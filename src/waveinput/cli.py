"""Command-line front end: solve, verify, oracle, and smoothing runs.

The config file is flat ``key = value`` text with ``#`` comments.  Keys:

    f0, fT          function data: either ``<name> <p1> <p2> ...`` from the
                    catalog or ``file <path>`` with two-column x,y samples
    T               half-length of the decision interval (positive)
    K1, K2          periods to the left/right of the decision interval (>= 1)
    n               decision grid size (odd, >= 65)
    norm            l1 or l2
    eps_schedule    decreasing positive tolerances (pms runs only)
    seed            accepted and ignored (non-negative integer)
    output_dir      where CSVs go (default "out", --out overrides)

Every run writes CSVs with '\\n' newlines and repr-exact floats, so a given
config produces byte-identical output files.

Exit codes: 0 success, 2 bad config/input, 3 degenerate scaling in the L1
construction, 4 infeasible input in verify, 5 oracle did not certify,
6 approximation budget unreachable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .approx import pms_sequence
from .errors import (
    ApproxBudgetExceeded,
    ConfigError,
    DegenerateScaling,
    WaveInputError,
)
from .functions import GridFunction, catalog, from_samples
from .l1 import construct_h, ms_endpoint_check, order_envelopes, select_strip
from .l2 import l2_minimizer, l2_ms_check
from .oracle import l1_oracle, l2_oracle
from .tbvp import ProblemSpec, extend_input
from .verify import verify_solution

_REQUIRED = ("f0", "ft", "t", "k1", "k2", "n", "norm")
# nothing reads "seed" now, but perfbench's config writer still writes it
_KNOWN = _REQUIRED + ("eps_schedule", "seed", "output_dir")


@dataclass
class RunConfig:
    f0_spec: tuple
    fT_spec: tuple
    T: float
    K1: int
    K2: int
    n: int
    norm: str
    eps_schedule: list | None
    output_dir: str


def _fmt(x) -> str:
    return repr(float(x))


def _parse_function_spec(key: str, value: str) -> tuple:
    parts = value.split()
    if not parts:
        raise ConfigError(f"{key}: empty function spec")
    if parts[0] == "file":
        path = value[value.index("file") + 4 :].strip()
        if not path:
            raise ConfigError(f"{key}: file spec needs a path")
        return ("file", path)
    try:
        params = [float(tok) for tok in parts[1:]]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad parameter in {parts[1:]!r}") from exc
    if not all(map(math.isfinite, params)):
        raise ConfigError(f"{key}: non-finite parameter in {parts[1:]!r}")
    return ("catalog", parts[0], params)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return x


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    raw = {}
    for idx, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {idx}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip().lower()
        if key not in _KNOWN:
            raise ConfigError(f"line {idx}: unknown config key {key!r}")
        raw[key] = value.strip()

    for key in _REQUIRED:
        if key not in raw:
            name = "fT" if key == "ft" else key
            raise ConfigError(f"missing required config key {name!r}")

    T = _parse_float("T", raw["t"])
    if not T > 0:
        raise ConfigError(f"T must be positive, got {T}")
    K1 = _parse_int("K1", raw["k1"])
    K2 = _parse_int("K2", raw["k2"])
    if K1 < 1 or K2 < 1:
        raise ConfigError(f"K1 and K2 must be at least 1, got K1={K1}, K2={K2}")
    n = _parse_int("n", raw["n"])
    if n % 2 == 0:
        raise ConfigError(f"n must be odd, got n={n}")
    if n < 65:
        raise ConfigError(f"n must be at least 65, got n={n}")
    norm = raw["norm"].lower()
    if norm not in ("l1", "l2"):
        raise ConfigError(f"norm must be l1 or l2, got {raw['norm']!r}")

    schedule = None
    if "eps_schedule" in raw:
        toks = raw["eps_schedule"].replace(",", " ").split()
        schedule = [_parse_float("eps_schedule", tok) for tok in toks]
        if not schedule or any(e <= 0 for e in schedule):
            raise ConfigError("eps_schedule entries must be positive")
        if any(a <= b for a, b in zip(schedule, schedule[1:])):
            raise ConfigError("eps_schedule must be strictly decreasing")

    seed = _parse_int("seed", raw.get("seed", "0"))
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    return RunConfig(
        _parse_function_spec("f0", raw["f0"]),
        _parse_function_spec("fT", raw["ft"]),
        T,
        K1,
        K2,
        n,
        norm,
        schedule,
        raw.get("output_dir", "out"),
    )


def _read_xy(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns of a comma- or space-separated file, as floats.

    Lines before the first row that parses are skipped as headers; every
    later row must hold two numbers, and no value may be NaN or infinite.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.replace(",", " ").split()
                if not parts:
                    continue
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except (ValueError, IndexError):
                    if rows:
                        raise ConfigError(f"malformed row {line.strip()!r} in {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"non-finite value in {path}")
    xs, ys = data.T.copy()
    return xs, ys


def _build_function(key: str, spec: tuple):
    try:
        if spec[0] == "file":
            return from_samples(*_read_xy(spec[1]))
        return catalog(spec[1], spec[2])
    except WaveInputError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_problem(cfg: RunConfig) -> ProblemSpec:
    f0 = _build_function("f0", cfg.f0_spec)
    fT = _build_function("fT", cfg.fT_spec)
    try:
        return ProblemSpec(f0, fT, cfg.T, cfg.K1, cfg.K2)
    except WaveInputError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path: str, header: str, rows, fmt=_fmt) -> None:
    """Write header and rows with '\\n' newlines, each cell through fmt."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _solve_minimizer(cfg: RunConfig, spec: ProblemSpec):
    """Shared solve stage: returns (ts, env, v, objective, summary_lines)."""
    ts = spec.shifts(cfg.n)
    env = order_envelopes(ts)
    lines = [
        f"A  = {_fmt(spec.A)}",
        f"c1 = {_fmt(spec.c1)}",
        f"c2 = {_fmt(spec.c2)}",
    ]
    if cfg.norm == "l2":
        sol = l2_minimizer(ts, spec.A)
        lines.append(f"A1 = {_fmt(sol.A1)}")
        lines.append(f"objective = {_fmt(sol.objective)}")
        lines.append(f"ms_check = {l2_ms_check(sol, spec)}")
        return ts, env, sol.v, sol.objective, lines
    j = select_strip(env, spec.A)
    strip = construct_h(env, j, spec.A)
    lines.append(f"strip = {j}")
    lines.append(f"objective = {_fmt(strip.objective)}")
    lines.append(f"boundary_case = {strip.boundary_case}")
    if strip.degenerate:
        lines.append("degenerate = yes (coinciding envelopes, weight arbitrary)")
    if 1 <= j <= env.K - 1:
        lines.append(f"ms_endpoints = {ms_endpoint_check(env, j, spec.c1)}")
    else:
        lines.append("ms_endpoints = n/a (edge strip)")
    return ts, env, strip.h, strip.objective, lines


def cmd_solve(cfg: RunConfig, quiet: bool = False) -> int:
    spec = build_problem(cfg)
    try:
        ts, env, v, _, lines = _solve_minimizer(cfg, spec)
    except DegenerateScaling as exc:
        print(f"degenerate scaling: {exc}", file=sys.stderr)
        return 3
    os.makedirs(cfg.output_dir, exist_ok=True)
    xs = ts.grid.xs
    K = env.K

    _write_csv(
        os.path.join(cfg.output_dir, "envelopes.csv"),
        "x," + ",".join(f"a_{j}" for j in range(1, K + 1)),
        (tuple(row) for row in np.column_stack([xs, env.values.T])),
    )
    _write_csv(
        os.path.join(cfg.output_dir, "shifts.csv"),
        "x," + ",".join(f"t_{j}" for j in range(1, K + 1)),
        (tuple(row) for row in np.column_stack([xs, ts.values.T])),
    )
    _write_csv(
        os.path.join(cfg.output_dir, "minimizer.csv"),
        "x,v",
        zip(xs, v.values),
    )
    ext = extend_input(v, spec)
    _write_csv(
        os.path.join(cfg.output_dir, "extended.csv"),
        "x,v_ext",
        zip(ext.xs, ext.values),
    )
    for line in lines:
        _say(quiet, line)
    _say(quiet, f"wrote envelopes.csv shifts.csv minimizer.csv extended.csv to {cfg.output_dir}")
    return 0


def cmd_verify(cfg: RunConfig, input_csv: str, quiet: bool = False) -> int:
    spec = build_problem(cfg)
    xs, vs = _read_xy(input_csv)
    if xs.size != cfg.n:
        raise ConfigError(f"input csv has {xs.size} rows, config says n={cfg.n}")
    if np.max(np.abs(xs - np.linspace(-spec.T, spec.T, cfg.n))) > 1e-9 * max(1.0, spec.T):
        raise ConfigError("input csv x-column does not match the decision grid")
    rep = verify_solution(GridFunction(-spec.T, spec.T, cfg.n, vs), spec)

    rows = [
        ("classification", rep.classification),
        ("feasibility_residual", _fmt(rep.feasibility_residual)),
        ("pde_residual_max", _fmt(rep.pde_residual_max)),
        ("pde_budget", _fmt(rep.pde_budget)),
        ("boundary0_max", _fmt(rep.boundary0_max)),
        ("boundaryT_max", _fmt(rep.boundaryT_max)),
    ]
    for loc, jump in rep.seam_value_jumps:
        rows.append((f"seam_value_jump@{_fmt(loc)}", _fmt(jump)))
    for loc, jump in rep.seam_deriv_jumps:
        rows.append((f"seam_deriv_jump@{_fmt(loc)}", _fmt(jump)))
    for i, r in enumerate(rep.equilibrium_residuals):
        rows.append((f"equilibrium_residual_{i - spec.K1}", _fmt(r)))
    rows.append(("kink_cells", ";".join(_fmt(x) for x in rep.kink_cells) or "none"))

    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.output_dir, "report.csv"), "metric,value", rows, str)
    for key, val in rows:
        _say(quiet, f"{key} = {val}")
    return 0 if rep.classification != "infeasible" else 4


def cmd_oracle(cfg: RunConfig, quiet: bool = False) -> int:
    spec = build_problem(cfg)
    ts = spec.shifts(cfg.n)
    rep = (l2_oracle if cfg.norm == "l2" else l1_oracle)(ts, spec.A)
    _say(quiet, f"norm = {cfg.norm}")
    _say(quiet, f"oracle_value = {_fmt(rep.oracle_value)}")
    _say(quiet, f"analytic_value = {_fmt(rep.analytic_value)}")
    _say(quiet, f"rel_gap = {_fmt(rep.rel_gap)}")
    _say(quiet, f"iterations = {rep.iterations}")
    _say(quiet, f"converged = {rep.converged}")
    if not rep.converged:
        _say(quiet, "certification failed (gap or constraint above 64 ulps of scale)")
    return 0 if rep.converged else 5


def cmd_pms(cfg: RunConfig, quiet: bool = False) -> int:
    if cfg.eps_schedule is None:
        raise ConfigError("pms runs need an eps_schedule in the config")
    spec = build_problem(cfg)
    try:
        _, _, v, _, _ = _solve_minimizer(cfg, spec)
    except DegenerateScaling as exc:
        print(f"degenerate scaling: {exc}", file=sys.stderr)
        return 3
    p = 1 if cfg.norm == "l1" else 2
    os.makedirs(cfg.output_dir, exist_ok=True)

    failed = None
    try:
        entries = pms_sequence(v, spec, cfg.eps_schedule, p)
    except ApproxBudgetExceeded as exc:
        entries = getattr(exc, "entries", [])
        failed = exc

    summary_rows = []
    for i, e in enumerate(entries, 1):
        _write_csv(
            os.path.join(cfg.output_dir, f"pms_{i:03d}.csv"),
            "x,v,d1",
            zip(e.result.g.xs, e.result.g.values, e.result.g.d1),
        )
        summary_rows.append(
            (
                _fmt(e.epsilon),
                _fmt(e.result.achieved_lp_error),
                _fmt(e.norm_gap),
                _fmt(e.bound),
                "yes" if e.satisfied else "no",
            )
        )
        _say(
            quiet,
            f"eps={e.epsilon:g} achieved={e.result.achieved_lp_error:.3e} "
            f"gap={e.norm_gap:.3e} bound={e.bound:.3e} "
            f"{'ok' if e.satisfied else 'VIOLATED'}",
        )
    _write_csv(
        os.path.join(cfg.output_dir, "pms_summary.csv"),
        "eps,achieved_error,norm_gap,bound,satisfied",
        summary_rows,
        str,
    )
    if failed is not None:
        print(f"approximation budget exceeded: {failed}", file=sys.stderr)
        return 6
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="waveinput",
        description="Wave boundary-value input reconstruction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "run the configured minimizer and write plot CSVs"),
        ("verify", "check a candidate input against all residuals"),
        ("oracle", "certify the minimizer: exact Lagrangian dual in L1 and L2"),
        ("pms", "generate the smoothing sequence along eps_schedule"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
        if name == "verify":
            p.add_argument("--input", required=True, help="candidate CSV with x,v columns")

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out:
            cfg.output_dir = args.out
        if args.command == "solve":
            return cmd_solve(cfg, args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, args.input, args.quiet)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.quiet)
        return cmd_pms(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
