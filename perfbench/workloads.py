"""Workload definitions: seeded inputs, the fixed call list, and output checks.

Every workload is a fixed list of ``waveinput`` CLI calls.  ``setup`` writes
the configs (and sample files) for one seed, runs each config once through
the CLI in-process to obtain reference values, and returns the calls with
their checks.  The program only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TAU = 2.0 * math.pi
SOLVE_CSVS = ("envelopes.csv", "shifts.csv", "minimizer.csv", "extended.csv")
PMS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
FEAS_TOL = 1e-8
ORACLE_TOL = {"l1": 1e-4, "l2": 1e-6}  # the CLI's own certification gates

# The README's traveling-wave problem u = sin(x - t), T = 1, K = 3.
README_F0 = "sin 1 0"
README_FT = "sin 1 -1"
README_L1_ORACLE_DEFECT = (
    "README traveling-wave L1 oracle runs all 200000 iterations and exits 5 "
    "although rel_gap is about 1.5e-8"
)

WHY = {
    "solve-sweep": "solve across catalog families, a spline file config, both norms, "
                   "n=513/K=3 and n=8193/K=17; import and CSV write dominate",
    "verify-fine": "verify rough L1 and smooth L2 candidates at n=8193/K=17 and "
                   "n=2049/K=9; SolutionField evaluation and CSV read dominate",
    "pms-schedule": "pms on the README traveling wave, eps 1e-1..1e-4 in L1 and to 1e-3 in L2; "
                    "Bernstein degree reaches 32768, import under 10%",
    "oracle-certify": "oracle on seeded n=513 problems in L1 and L2 plus the README L1 "
                      "config; the subgradient loop dominates",
}
WORKLOADS = tuple(WHY)

# Seconds one pass takes on a 2-vCPU machine.  A run makes --seconds // this
# many passes, so the work per run does not depend on how fast the program is.
NOMINAL_PASS_S = {
    "solve-sweep": 10.0,
    "verify-fine": 9.0,
    "pms-schedule": 21.0,
    "oracle-certify": 14.0,
}


@dataclass
class Call:
    """One CLI invocation: ``python -m waveinput.cli <argv>``."""

    label: str
    argv: list
    out: Path
    check: object            # check(code, stdout) -> list of error strings
    known_defect: str = ""   # a documented failure this call is expected to show
    record: dict = field(default_factory=dict)  # facts the report prints


@dataclass
class Sizes:
    small: int = 513
    mid: int = 2049
    big: int = 8193
    pms_schedule: tuple = PMS_SCHEDULE

    @classmethod
    def smoke(cls) -> "Sizes":
        # at n=65 the L1 entry at eps=1e-4 is out of the degree budget (exit 6)
        return cls(65, 65, 65, PMS_SCHEDULE[:3])


def run_cli(cli, argv):
    """Run ``cli.main(argv)`` in this process; returns (exit code, stdout).

    An exception escaping ``main`` counts as exit 1, as it would in a child.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception:  # the call fails; the run goes on and reports it
            print(traceback.format_exc())
            code = 1
    return code, out.getvalue()


def stdout_value(text: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}\s*=\s*(\S+)", text, re.MULTILINE)
    if m is None:
        raise ValueError(f"no '{key} =' line in output")
    return m.group(1)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simpson(values: np.ndarray, h: float) -> float:
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


def write_config(path: Path, *, f0, fT, T, K1, K2, n, norm, seed, out, eps=None):
    lines = [
        f"f0 = {f0}", f"fT = {fT}", f"T = {T!r}", f"K1 = {K1}", f"K2 = {K2}",
        f"n = {n}", f"norm = {norm}", f"seed = {seed}", f"output_dir = {out}",
    ]
    if eps is not None:
        lines.append("eps_schedule = " + " ".join(repr(e) for e in eps))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def family(rng: random.Random, name: str) -> str:
    u = rng.uniform
    if name == "sin":
        return f"sin {u(0.6, 1.6):.6f} {u(0.0, TAU):.6f}"
    if name == "gaussian":
        return f"gaussian {u(0.5, 1.5):.6f} {u(-0.5, 0.5):.6f} {u(0.4, 1.0):.6f}"
    if name == "tanh-bump":
        return f"tanh-bump {u(0.5, 1.5):.6f} {u(-0.5, 0.5):.6f} {u(0.4, 1.0):.6f}"
    if name == "poly":
        return f"poly {u(-0.5, 0.5):.6f} {u(-0.3, 0.3):.6f} {u(-0.05, 0.05):.6f}"
    raise ValueError(name)


def write_samples(path: Path, rng: random.Random, lo: float, hi: float) -> None:
    """Two-column x,y samples of a seeded smooth curve, covering [lo, hi]."""
    a1, a2 = rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.4)
    w1, w2 = rng.uniform(0.5, 1.2), rng.uniform(1.5, 2.5)
    p1, p2 = rng.uniform(0.0, TAU), rng.uniform(0.0, TAU)
    xs = np.linspace(lo - 0.05, hi + 0.05, 241)
    ys = a1 * np.sin(w1 * xs + p1) + a2 * np.cos(w2 * xs + p2)
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))
    path.write_text("x,y\n" + rows, encoding="utf-8")


class Context:
    """Where one run's files go, and the in-process CLI used for reference runs."""

    def __init__(self, cli, work: Path, seed: int, sizes: Sizes):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.sizes = sizes

    def problem(self, label, **cfg) -> tuple:
        """Write a config and run ``solve`` on it once; returns (config, ref dir, stdout)."""
        cfg_path = self.work / f"{label}.cfg"
        ref = self.work / "ref" / label
        write_config(cfg_path, out=self.work / "out" / label, **cfg)
        code, text = run_cli(self.cli, ["solve", "--config", str(cfg_path), "--out", str(ref)])
        if code != 0:
            raise RuntimeError(f"set-up solve of {label} exited {code}")
        return cfg_path, ref, text


# --------------------------------------------------------------- solve-sweep

def _check_solve(out: Path, A: float, n: int, T: float, ref_hashes: dict):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        errs = []
        v = np.loadtxt(out / "minimizer.csv", delimiter=",", skiprows=1)[:, 1]
        if v.size != n:
            return [f"minimizer.csv has {v.size} rows, want {n}"]
        got = simpson(v, 2.0 * T / (n - 1))
        if abs(got - A) > 1e-8 * max(1.0, abs(A)):
            errs.append(f"integral {got!r} != A {A!r}")
        for name, want in ref_hashes.items():
            if sha256(out / name) != want:
                errs.append(f"{name} differs from the set-up run")
        return errs
    return check


def setup_solve_sweep(ctx: Context) -> list:
    rng = random.Random(f"solve-sweep:{ctx.seed}")
    s = ctx.sizes
    window = 3.0  # K1 = K2 = 1 windows span [-3T, 3T]
    plan = [
        ("sin", "sin", "l1", s.small, 1),
        ("gaussian", "tanh-bump", "l2", s.small, 1),
        ("tanh-bump", "poly", "l1", s.small, 1),
        ("poly", "gaussian", "l2", s.small, 1),
        ("file", "sin", "l1", s.small, 1),
        ("gaussian", "sin", "l1", s.big, 8),
        ("sin", "tanh-bump", "l2", s.big, 8),
    ]
    calls = []
    for i, (f0_name, fT_name, norm, n, k) in enumerate(plan):
        label = f"solve{i}-{f0_name}-{norm}-n{n}-K{2 * k + 1}"
        T = round(rng.uniform(0.8, 1.2), 6)
        if f0_name == "file":
            samples = ctx.work / f"{label}.samples.csv"
            write_samples(samples, rng, -window * T, window * T)
            f0 = f"file {samples}"
        else:
            f0 = family(rng, f0_name)
        cfg, ref, text = ctx.problem(
            label, f0=f0, fT=family(rng, fT_name), T=T, K1=k, K2=k, n=n, norm=norm,
            seed=rng.randrange(1000),
        )
        A = float(stdout_value(text, "A"))
        hashes = {name: sha256(ref / name) for name in SOLVE_CSVS}
        out = ctx.work / "out" / label
        calls.append(Call(label, ["solve", "--config", str(cfg), "--out", str(out), "--quiet"],
                          out, _check_solve(out, A, n, T, hashes)))
    return calls


# --------------------------------------------------------------- verify-fine

def _check_verify(out: Path, record: dict):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        rows = dict(
            line.split(",", 1)
            for line in (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        record["verdict"] = rows.get("classification", "missing")
        feas = float(rows["feasibility_residual"])
        return [] if feas <= FEAS_TOL else [f"feasibility_residual {feas!r} > {FEAS_TOL}"]
    return check


def setup_verify_fine(ctx: Context) -> list:
    rng = random.Random(f"verify-fine:{ctx.seed}")
    calls = []
    for n, k in ((ctx.sizes.big, 8), (ctx.sizes.mid, 4)):
        problem = dict(f0=family(rng, "gaussian"), fT=family(rng, "sin"),
                       T=round(rng.uniform(0.8, 1.2), 6), K1=k, K2=k, n=n)
        for norm in ("l1", "l2"):
            label = f"verify-{norm}-n{n}-K{2 * k + 1}"
            cfg, ref, _ = ctx.problem(label, norm=norm, seed=0, **problem)
            out = ctx.work / "out" / label
            record = {}
            calls.append(Call(label, ["verify", "--config", str(cfg), "--input",
                                      str(ref / "minimizer.csv"), "--out", str(out), "--quiet"],
                              out, _check_verify(out, record), record=record))
    return calls


# -------------------------------------------------------------- pms-schedule

def _check_pms(out: Path, entries: int, n: int):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        rows = (out / "pms_summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        errs = []
        if len(rows) != entries:
            errs.append(f"{len(rows)} summary rows, want {entries}")
        bad = [r for r in rows if r.rsplit(",", 1)[-1] != "yes"]
        if bad:
            errs.append(f"unsatisfied entries: {bad}")
        for i in range(1, entries + 1):
            with open(out / f"pms_{i:03d}.csv", "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != n + 1:
                errs.append(f"pms_{i:03d}.csv has {lines - 1} rows, want {n}")
        return errs
    return check


def setup_pms_schedule(ctx: Context) -> list:
    # The README problem is fixed; the seed only reaches the config's seed key.
    # L2 stops one entry short: its eps=1e-4 entry alone costs about 9 s.
    n = ctx.sizes.small
    calls = []
    for norm, eps in (("l1", ctx.sizes.pms_schedule), ("l2", ctx.sizes.pms_schedule[:-1])):
        label = f"pms-readme-{norm}-n{n}"
        cfg, _, _ = ctx.problem(label, f0=README_F0, fT=README_FT, T=1.0, K1=1, K2=1,
                                n=n, norm=norm, seed=ctx.seed, eps=eps)
        out = ctx.work / "out" / label
        calls.append(Call(label, ["pms", "--config", str(cfg), "--out", str(out), "--quiet"],
                          out, _check_pms(out, len(eps), n)))
    return calls


# ------------------------------------------------------------ oracle-certify

def _check_oracle(norm: str, analytic: float, known_defect: str):
    def check(code, stdout):
        errs = []
        if code != 0 and not (known_defect and code == 5):
            errs.append(f"exit {code}")
        got = float(stdout_value(stdout, "analytic_value"))
        if abs(got - analytic) > 1e-12 * max(1.0, abs(analytic)):
            errs.append(f"analytic_value {got!r} != solve objective {analytic!r}")
        gap = float(stdout_value(stdout, "rel_gap"))
        if not gap < ORACLE_TOL[norm]:
            errs.append(f"rel_gap {gap!r} >= {ORACLE_TOL[norm]}")
        return errs
    return check


def setup_oracle_certify(ctx: Context) -> list:
    rng = random.Random(f"oracle-certify:{ctx.seed}")
    n = ctx.sizes.small

    def jitter():
        return 1.0 + rng.uniform(-0.1, 0.1)

    plan = [("l1", 0)] + [("l2", i) for i in range(3)]
    problems = []
    for norm, i in plan:
        problems.append((f"oracle-{norm}-{i}-n{n}", norm, dict(
            f0=f"gaussian {jitter():.6f} {0.1 * jitter():.6f} {0.6 * jitter():.6f}",
            fT=f"sin {1.2 * jitter():.6f} {0.8 * jitter():.6f}",
            T=1.0, seed=rng.randrange(1000)), ""))
    problems.append((f"oracle-readme-l1-n{n}", "l1",
                     dict(f0=README_F0, fT=README_FT, T=1.0, seed=0), README_L1_ORACLE_DEFECT))
    calls = []
    for label, norm, cfg_args, defect in problems:
        cfg, _, text = ctx.problem(label, K1=1, K2=1, n=n, norm=norm, **cfg_args)
        analytic = float(stdout_value(text, "objective"))
        calls.append(Call(label, ["oracle", "--config", str(cfg)], ctx.work / "out" / label,
                          _check_oracle(norm, analytic, defect), known_defect=defect))
    return calls


SETUP = {
    "solve-sweep": setup_solve_sweep,
    "verify-fine": setup_verify_fine,
    "pms-schedule": setup_pms_schedule,
    "oracle-certify": setup_oracle_certify,
}
