"""Named studies of the CLI: the counts that ROADMAP.md and CHANGES.md quote, from one command.

A study runs fixed configs, draws and schedules through this tree's
``waveinput`` and returns a small dict of counts and run labels.
``study/expected.json`` keeps the dict of every study.

    python tests/study.py run [NAME ...]   print the named studies (all without a name)
    python tests/study.py check            compare every study with study/expected.json;
                                           print each that differs at its first differing
                                           key path, with both values
    python tests/study.py update           rewrite study/expected.json from this tree

The package comes from ``PYTHONPATH``, so ``PYTHONPATH=<other>/src python
tests/study.py run float-range`` prints the counts of another tree.  A change
that moves a count pastes ``run <name>`` before and after into CHANGES.md and
commits the ``update``d file with it.  The expected file records today's
defects as they are.  Tier-1 (``tests/test_study.py``) checks the studies that fit
in about 2 s together: ``float-range``, ``traveling-wave``, ``strips`` and
``convergence`` (0.32-0.52 s in process).  CI runs ``check`` on all of them;
``verify-gates`` (1.65-1.80 s in process) stays there until ``verify`` is cheaper.

Studies:

``float-range``
    Every subcommand in both norms, at n = 65, on configs at the ends of the
    float range: T from 5e-324 to 1e308, gaussian sigma and tanh-bump w from
    1e-200 to 1e200, and amplitudes up to 1e308.  A run *escapes* when it
    warns, raises an exception that is not a ``WaveInputError`` (a traceback
    at the command line), prints inf or nan, or exits 2 with other than one
    stderr line.  A run is *rejected* when it exits 2 cleanly.  ``verify``
    reads the ``minimizer.csv`` of the same config's ``solve``, or zeros on
    the decision grid where that ``solve`` wrote none.

``dilation``
    40 ``random_spec`` draws (seed 7, n = 257), each against its dilation
    s f(x / lam) with horizon lam T, for s = 2^m and lam = 2^k at five (m, k).
    A power-of-two dilation scales every value of the pipeline exactly, so
    every verdict should stay.  For each (m, k) and norm it counts the pairs
    whose ``verify`` verdict of the minimizer, ``pms`` outcome or flags (eps
    1e-1 and 1e-3, times s in L1 and s lam^(-1/2) in L2), or oracle
    ``rel_gap`` differ, and it lists the verdict changes.

``traveling-wave``
    ``verify`` of the exact input -s cos x of u = s sin(x - t), at n = 513
    with K1 = K2 = 1, for (T, s) = (1, 1), (10, 1), (1, 1e6) and (1, 1e-6).
    Each case reports the verdict, the feasibility residual, the PDE residual
    and its budget.  Every case should be an ``MS_candidate`` whose numbers
    scale with s.

``pms-flags``
    60 ``random_spec`` draws (seed 7, n = 257) and their mirror images
    (f0(-x), fT(-x), K2, K1), each smoothed by ``pms_sequence`` from the L1
    strip minimizer and the L2 closed form at eps 1e-1, 1e-3 and 1e-5.  It
    counts the entries whose ``satisfied`` flag is False on each side and
    lists the flags that flip under mirroring.  Mirroring mirrors every
    answer, so no flag should flip.

``strips``
    300 ``random_spec`` draws (seed 7, n = 257): the count of each L1
    ``boundary_case``, and the width of each interior strip,
    int (a_j - a_{j+1}) over int max_k |a_k|, as its minimum and median.
    A width above 0 means the L1 minimizer is not unique.

``verify-gates``
    60 ``random_spec`` draws (seed 7): ``verify_solution`` on the L1 strip
    minimizer and the L2 closed form at n = 257 and 1025 (240 inputs), and
    on their PMS entries at n = 257 for eps 1e-1, 1e-3 and 1e-5 (360).  For
    each set it counts the verdicts, and the verdicts that the
    ``boundaryT_max`` gate or the PDE gate decides alone: feasible inputs
    that every other check passes.  It also counts the ``MS_candidate``s
    that list ``kink_cells``, and by verdict the PMS entries with a corner
    or end patch (``delta_corner``, ``delta_hermite``) under 2h.

``convergence``
    40 ``random_spec`` draws (seed 7) at n = 129, 513, 2049 and 16385, read
    through ``answer``.  ``A1_error`` is the largest |A1 - mean(S)| /
    mean_k |S_k| at each n, S from ``segment_integrals``: the identity
    A1 = mean(S) of ROADMAP item 10.  ``l1_objective_error`` is the largest
    |objective(n) - objective(16385)| / |objective(16385)| of the L1
    minimizer at each coarser n: its grid error (item 8).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "study" / "expected.json"

SIN = {"f0": "sin 1 0", "fT": "sin 1 -1"}
FLOAT_RANGE = [
    *({**SIN, "T": T} for T in (
        "5e-324", "1e-310", "1e-305", "1e-300", "1e-250", "1e-200", "1e-170", "1e-150",
        "1e-100", "1e-50", "1e-10", "1", "1e10", "1e50", "1e100", "1e150", "1e200", "1e250",
        "1e300", "1e307", "1e308",
    )),
    *({"f0": f"gaussian {amp} 0 {sigma}", "fT": "sin 1 -1"} for amp, sigma in (
        (1, "1e-200"), (1, "1e-160"), (1, "1e-80"), (1, "1e-77"), (1, "1e-20"), (1, "1e20"),
        (1, "1e200"), ("1e150", 1), ("1e308", 1), ("1e12", 0.6),
    )),
    *({"f0": f"tanh-bump {amp} 0 {w}", "fT": "sin 1 -1"} for amp, w in (
        (1, "1e-200"), (1, "1e-160"), (1, "1e-100"), (1, "0.001"), (1, "1e20"), (1, "1e200"),
        ("1e308", 1),
    )),
    {"f0": "sin 1e300 0", "fT": "sin 1 -1"},
    {"f0": "sin 1 0", "fT": "cos 1e150 0"},
    {"f0": "zero", "fT": "const 1e300"},
    {"f0": "const 1e308", "fT": "zero"},
    {"f0": "const 1e300", "fT": "const 1e300", "T": "1e10"},
    {"f0": "sin 1 0", "fT": "poly 0 1e300 1"},
    {"f0": "sin 1 0", "fT": "poly 0 1e308 1"},
    {"f0": "poly 1e200 0 1e200", "fT": "zero"},
    {"f0": "poly 0 1e300", "fT": "poly 0 1e300", "T": "1e10"},
    {"f0": "sin 1 0", "fT": "sin 1 -1", "T": "1e-3", "n": "4097"},
]
COMMANDS = ("solve", "verify", "oracle", "pms")
_INF_NAN = re.compile(r"\b(inf|nan)\b")


def _config(path: Path, **kv) -> Path:
    base = {"T": "1", "K1": "1", "K2": "1", "n": "65", "norm": "l2", "eps_schedule": "1e-1"}
    base.update(kv)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")
    return path


def _outcome(cli, argv: list[str]) -> str:
    """Run ``main`` on argv: ``clean``, ``rejected: <stderr line>`` or ``escape: <why>``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:
            return f"escape: raised {type(exc).__name__}"
    lines = err.getvalue().splitlines()
    if caught:
        return f"escape: {len(caught)} warning(s)"
    if _INF_NAN.search(out.getvalue()):
        return "escape: printed inf/nan"
    if code == 2:
        return f"rejected: {lines[0]}" if len(lines) == 1 else "escape: stderr"
    return "clean"


def float_range_runs():
    """(label, outcome) for every run of the float-range study."""
    from waveinput import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, case in enumerate(FLOAT_RANGE):
            label = " ".join(f"{k}={v}" for k, v in case.items())
            for norm in ("l1", "l2"):
                cfg = str(_config(tmp / f"{i}-{norm}.cfg", norm=norm, **case))
                out = tmp / f"{i}-{norm}"
                for command in COMMANDS:
                    argv = [command, "--config", cfg, "--out", str(out / command)]
                    if command == "verify":
                        argv += ["--input", _verify_input(out, case)]
                    yield f"{label} {norm} {command}", _outcome(cli, argv)


def _verify_input(out: Path, case: dict) -> str:
    """The solve's minimizer.csv, or zeros on the decision grid where it wrote none."""
    path = out / "solve" / "minimizer.csv"
    if not path.exists():
        import numpy as np

        T, n = float(case.get("T", 1)), int(case.get("n", 65))
        path = out / "zeros.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):
            xs = np.linspace(-T, T, n).tolist()
        path.write_text("x,v\n" + "".join(f"{x!r},0.0\n" for x in xs), encoding="utf-8")
    return str(path)


def float_range() -> dict:
    runs = list(float_range_runs())
    escapes = sorted(f"{label}: {what}" for label, what in runs if what.startswith("escape"))
    return {
        "runs": len(runs),
        "clean": sum(what == "clean" for _, what in runs),
        "rejected": sum(what.startswith("rejected") for _, what in runs),
        "escaping": len(escapes),
        "escapes": escapes,
    }


DILATIONS = ((20, 0), (0, 6), (-30, -4), (40, 10), (-8, 2))
DIFFERS = ("verdict", "pms", "rel_gap")


def _dilate(f, s: float, lam: float):
    """s f(x / lam) with its derivatives; with s and lam powers of two every step is exact."""
    from waveinput.functions import SmoothFunction

    return SmoothFunction(
        lambda x: s * f.value(x / lam),
        lambda x: (s / lam) * f.d1(x / lam),
        lambda x: (s / lam**2) * f.d2(x / lam),
    )


def _minimizers(spec, n: int = 257) -> tuple:
    """The shifts at n, the L1 strip minimizer and the L2 closed form."""
    from waveinput.oracle import answer
    from waveinput.tbvp import shift_sequence

    ts = shift_sequence(spec, n)
    return ts, answer(ts, spec.A, "l1").v, answer(ts, spec.A, "l2").v


def _dilation_outcomes(spec, units: tuple) -> list:
    """(verify verdict, pms outcome and flags, oracle rel_gap) of the L1 and L2 minimizers."""
    from waveinput.approx import pms_sequence
    from waveinput.errors import WaveInputError
    from waveinput.oracle import l1_oracle, l2_oracle
    from waveinput.verify import verify_solution

    ts, *minimizers = _minimizers(spec)
    oracles = (l1_oracle, l2_oracle)
    out = []
    for p, v, oracle, unit in zip((1, 2), minimizers, oracles, units):
        try:
            entries = pms_sequence(v, ts, [1e-1 * unit, 1e-3 * unit], p)
            pms = ("ok", *(e.satisfied for e in entries))
        except WaveInputError as exc:
            pms = (type(exc).__name__, *(e.satisfied for e in getattr(exc, "entries", [])))
        out.append((verify_solution(v, ts).classification, pms, oracle(ts, spec.A).rel_gap))
    return out


def dilation() -> dict:
    import numpy as np
    from conftest import random_spec
    from waveinput.tbvp import ProblemSpec

    rng = np.random.default_rng(7)
    specs = [random_spec(rng) for _ in range(40)]
    base = [_dilation_outcomes(spec, (1.0, 1.0)) for spec in specs]
    counts, changes = {}, {}
    for m, k in DILATIONS:
        s, lam = 2.0**m, 2.0**k
        for spec, want in zip(specs, base):
            big = ProblemSpec(
                _dilate(spec.f0, s, lam), _dilate(spec.fT, s, lam), lam * spec.T, spec.K1, spec.K2
            )
            got = _dilation_outcomes(big, (s, s / lam**0.5))
            for norm, a, b in zip(("l1", "l2"), want, got):
                row = counts.setdefault(f"{m},{k} {norm}", dict.fromkeys(DIFFERS, 0))
                for key, x, y in zip(DIFFERS, a, b):
                    row[key] += bool(x != y)
                if a[0] != b[0]:
                    change = f"{m},{k} {norm} {a[0]} -> {b[0]}"
                    changes[change] = changes.get(change, 0) + 1
    total = {key: sum(row[key] for row in counts.values()) for key in DIFFERS}
    return {"pairs": 2 * len(specs) * len(DILATIONS), "differ": {**counts, "total": total},
            "verdict_changes": changes}


TRAVELING_WAVES = ((1.0, 1.0), (10.0, 1.0), (1.0, 1e6), (1.0, 1e-6))


def traveling_wave() -> dict:
    import numpy as np
    from conftest import scaled
    from waveinput.functions import catalog, sample
    from waveinput.tbvp import ProblemSpec, shift_sequence
    from waveinput.verify import verify_solution

    out = {}
    for T, s in TRAVELING_WAVES:
        f0, fT = (scaled(catalog("sin", [1.0, phi]), s) for phi in (0.0, -T))
        v = sample(scaled(catalog("cos", [1.0, np.pi]), s), -T, T, 513)
        rep = verify_solution(v, shift_sequence(ProblemSpec(f0, fT, T, 1, 1), 513))
        out[f"T={T!r} s={s!r}"] = {
            "verdict": rep.classification,
            "feasibility_residual": rep.feasibility_residual,
            "pde_residual_max": rep.pde_residual_max,
            "pde_budget": rep.pde_budget,
        }
    return out


PMS_SCHEDULE = (1e-1, 1e-3, 1e-5)


def _pms_flags(spec) -> tuple:
    """The ``satisfied`` flags of the L1 and L2 minimizers' PMS entries."""
    from waveinput.approx import pms_sequence

    ts, *minimizers = _minimizers(spec)
    return tuple(
        tuple(e.satisfied for e in pms_sequence(v, ts, PMS_SCHEDULE, p))
        for p, v in zip((1, 2), minimizers)
    )


def pms_flags() -> dict:
    import numpy as np
    from conftest import random_spec
    from waveinput.tbvp import ProblemSpec

    rng = np.random.default_rng(7)
    unsatisfied, mirrored, flips = ({"l1": 0, "l2": 0} for _ in range(3))
    flipped = []
    for draw in range(60):
        spec = random_spec(rng)
        # lam = -1 gives f(-x), -f'(-x), f''(-x) bit for bit
        mirror = ProblemSpec(_dilate(spec.f0, 1.0, -1.0), _dilate(spec.fT, 1.0, -1.0),
                             spec.T, spec.K2, spec.K1)
        for norm, a, b in zip(("l1", "l2"), _pms_flags(spec), _pms_flags(mirror)):
            unsatisfied[norm] += a.count(False)
            mirrored[norm] += b.count(False)
            for eps, x, y in zip(PMS_SCHEDULE, a, b):
                if x != y:
                    flips[norm] += 1
                    flipped.append(f"draw {draw} {norm} eps {eps!r}: {x} -> {y}")
    return {"entries": 2 * 60 * len(PMS_SCHEDULE), "unsatisfied": unsatisfied,
            "unsatisfied_mirrored": mirrored, "flips": flips, "flipped": flipped}


def strips() -> dict:
    import statistics

    import numpy as np
    from conftest import random_spec
    from waveinput.functions import simpson_weights, wsum
    from waveinput.oracle import answer
    from waveinput.tbvp import shift_sequence

    rng = np.random.default_rng(7)
    cases, widths = {}, []
    for _ in range(300):
        spec = random_spec(rng)
        ans = answer(shift_sequence(spec, 257), spec.A, "l1")
        env, facts = ans.env, dict(ans.facts)
        j, case = facts["strip"], facts["boundary_case"]
        cases[case] = cases.get(case, 0) + 1
        if 1 <= j <= env.K - 1:
            scale = wsum(simpson_weights(env.ts.n, env.ts.grid.h), np.abs(env.values).max(axis=0))
            widths.append(float((env.integrals[j - 1] - env.integrals[j]) / scale))
    return {"draws": 300, "boundary_case": cases,
            "interior_width": {"min": min(widths), "median": statistics.median(widths)}}


def _gates(reports) -> dict:
    """The verdicts of ``reports``, the ``MS_candidate``s that list kink cells, and the
    verdicts that boundaryT_max or the PDE gate decides alone."""
    from waveinput.verify import FEAS_TOL, SEAM_TOL

    verdicts, alone, kinked = {}, {"boundaryT_max": 0, "pde": 0}, 0
    for rep in reports:
        verdicts[rep.classification] = verdicts.get(rep.classification, 0) + 1
        kinked += rep.classification == "MS_candidate" and len(rep.kink_cells) > 0
        ends = max(rep.endpoint_value_residual, rep.endpoint_deriv_residual) <= SEAM_TOL
        bT = rep.boundaryT_max <= SEAM_TOL
        pde = rep.pde_residual_max <= rep.pde_budget
        if rep.feasibility_residual <= FEAS_TOL and ends:
            alone["boundaryT_max"] += pde and not bT
            alone["pde"] += bT and not pde
    return {"inputs": len(reports), "verdicts": verdicts, "decided_alone": alone,
            "kinked_MS_candidate": kinked}


def verify_gates() -> dict:
    import numpy as np
    from conftest import random_spec
    from waveinput.approx import pms_sequence
    from waveinput.verify import verify_solution

    rng = np.random.default_rng(7)
    minimizers, entries, sub_2h = [], [], {}
    for _ in range(60):
        spec = random_spec(rng)
        ts, *vs = _minimizers(spec, 257)
        ts_fine, *fine = _minimizers(spec, 1025)
        minimizers += [*(verify_solution(v, ts) for v in vs),
                       *(verify_solution(v, ts_fine) for v in fine)]
        for p, v in zip((1, 2), vs):
            for e in pms_sequence(v, ts, PMS_SCHEDULE, p):
                rep = verify_solution(e.result.g, ts)
                entries.append(rep)
                if min(e.result.stages["delta_corner"], e.result.stages["delta_hermite"]) < 2 * v.h:
                    sub_2h[rep.classification] = sub_2h.get(rep.classification, 0) + 1
    return {"minimizers": _gates(minimizers),
            "pms_entries": {**_gates(entries), "sub_2h_verdicts": sub_2h}}


CONVERGENCE_N = (129, 513, 2049, 16385)


def convergence() -> dict:
    import numpy as np
    from conftest import random_spec
    from waveinput.oracle import answer
    from waveinput.tbvp import segment_integrals, shift_sequence

    rng = np.random.default_rng(7)
    a1 = dict.fromkeys(CONVERGENCE_N, 0.0)
    l1 = dict.fromkeys(CONVERGENCE_N[:-1], 0.0)
    for _ in range(40):
        spec = random_spec(rng)
        S = segment_integrals(spec)
        objective = {}
        for n in CONVERGENCE_N:
            ts = shift_sequence(spec, n)
            A1 = answer(ts, spec.A, "l2").A1
            a1[n] = max(a1[n], float(abs(A1 - S.mean()) / np.abs(S).mean()))
            objective[n] = answer(ts, spec.A, "l1").objective
        fine = objective[CONVERGENCE_N[-1]]
        for n in l1:
            l1[n] = max(l1[n], abs(objective[n] - fine) / abs(fine))
    return {"draws": 40,
            "A1_error": {f"n={n}": x for n, x in a1.items()},
            "l1_objective_error": {f"n={n}": x for n, x in l1.items()}}


STUDIES = {
    "float-range": float_range,
    "dilation": dilation,
    "traveling-wave": traveling_wave,
    "pms-flags": pms_flags,
    "strips": strips,
    "verify-gates": verify_gates,
    "convergence": convergence,
}


class _Missing:
    def __repr__(self) -> str:
        return "nothing"


MISSING = _Missing()


def first_difference(want, got, path: str):
    """``<path>: expected <want>, got <got>`` at the first key or index that differs, or None."""
    if isinstance(want, list) and isinstance(got, list):
        want, got = dict(enumerate(want)), dict(enumerate(got))
    if not (isinstance(want, dict) and isinstance(got, dict)):
        return None if want == got else f"{path}: expected {want!r}, got {got!r}"
    for key in [*want, *(key for key in got if key not in want)]:
        found = first_difference(want.get(key, MISSING), got.get(key, MISSING), f"{path}[{key!r}]")
        if found:
            return found
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("names", nargs="*", metavar="NAME", help=", ".join(STUDIES))
    sub.add_parser("check")
    sub.add_parser("update")
    args = parser.parse_args(argv)

    names = getattr(args, "names", None) or list(STUDIES)
    for name in set(names) - set(STUDIES):
        parser.error(f"no study named {name!r}")
    got = {name: STUDIES[name]() for name in names}
    if args.command == "run":
        print(json.dumps(got, indent=1))
        return 0
    if args.command == "update":
        EXPECTED.parent.mkdir(exist_ok=True)
        EXPECTED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))
    bad = [first_difference(want.get(name, MISSING), got.get(name, MISSING), name)
           for name in sorted(set(got) | set(want))]
    bad = [line for line in bad if line]
    print("\n".join(bad) or f"{len(got)} studies match {EXPECTED.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
