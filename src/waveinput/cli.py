"""Command-line front end: solve, verify, oracle, and smoothing runs.

The config file is flat ``key = value`` text with ``#`` comments.  Keys:

    f0, fT          function data: either ``<name> <p1> <p2> ...`` from the
                    catalog or ``file <path>`` with two-column x,y samples
    T               half-length of the decision interval, 1e-75 to 1e75
    K1, K2          periods to the left/right of the decision interval (>= 1)
    n               decision grid size (odd, >= 65)
    norm            l1 or l2
    eps_schedule    decreasing positive tolerances (pms runs only)
    seed            accepted and ignored (non-negative integer)
    output_dir      where CSVs go (default "out", --out overrides)

Every run writes CSVs with '\\n' newlines and repr-exact floats, so a given
config produces byte-identical output files.  A float is written as the bytes
of Python's ``repr``: numpy computes them a block of cells at a time for
1e-4 <= |x| < 1e16 (repr's fixed notation) and for ±0.0, and ``repr`` itself
writes every other value.  One writer writes every float CSV, formatting
each block of rows once: solve's envelopes.csv, shifts.csv and minimizer.csv
share its cells.  A big ``solve`` (25000 formatted cells or more, about
n·(3K+2)) writes extended.csv in a forked child (POSIX ``os.fork``) while
this process writes the other three files; without ``os.fork`` this process
writes all four.  No byte depends on that split, the CPU count, BLAS or
LAPACK: every sum is a ``functions.wsum`` in a fixed order, and the
``OPENBLAS_NUM_THREADS`` default below is for start-up only.

Exit codes: 0 success, 2 a usage error or any ``WaveInputError`` (``main`` prints its one
``config error:`` line), such as T outside [1e-75, 1e75], data above 1e75 in size (A/(2T),
the shifts, f0 and the extended input) or an output directory that cannot be created, 4
infeasible input in verify, 5 oracle did not certify, 6 approximation budget unreachable
(``cmd_pms`` catches it first).

The command line (``python -m waveinput.cli`` and the ``waveinput`` script) enters through
``run``.  Once ``main`` has returned its code (argparse's too), every file closed and the
forked writer reaped, it flushes stdout and stderr and leaves by ``os._exit``, without
interpreter teardown; so a tool that reports at exit (cProfile, coverage) must call ``main``
instead.  Only an uncaught exception exits the normal way.  A stdout or stderr that is
closed at start (``>&-``), has no reader (``| head``) or is open read-only takes nothing and
ends quietly (``_to``): every CSV, the other stream and the exit code stand.
"""

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass

# start-up only, no output bit depends on it: without a BLAS thread pool to start, "import
# numpy" took 170 ms instead of 240 ms (medians of 20 spawns each, 2-vCPU Linux VM)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import ApproxBudgetExceeded, ConfigError, WaveInputError
from .functions import GridFunction, SmoothFunction, catalog, from_samples
from .tbvp import ProblemSpec, extend_input, shift_sequence

_REQUIRED = ("f0", "ft", "t", "k1", "k2", "n", "norm")
# nothing reads "seed" now, but perfbench's config writer still writes it
_KNOWN = _REQUIRED + ("eps_schedule", "seed", "output_dir")


@dataclass
class RunConfig:
    spec: ProblemSpec
    n: int
    norm: str
    eps_schedule: list | None
    output_dir: str


def _fmt(x) -> str:
    if isinstance(x, list):
        return ";".join(map(_fmt, x)) or "none"
    return repr(float(x)) if isinstance(x, float) else str(x)


def _function(key: str, value: str) -> SmoothFunction:
    """f0 or fT from its config value: ``<name> <p1> <p2> ...`` or ``file <path>``."""
    parts = value.split()
    try:
        if not parts:
            raise ConfigError("empty function spec")
        if parts[0] == "file":
            path = value[4:].strip()
            if not path:
                raise ConfigError("file spec needs a path")
            return from_samples(*_read_xy(path))
        try:
            params = [float(tok) for tok in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"bad parameter in {parts[1:]!r}") from exc
        if not all(map(math.isfinite, params)):
            raise ConfigError(f"non-finite parameter in {parts[1:]!r}")
        return catalog(parts[0], params)
    except WaveInputError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    raw, seen = {}, {}  # key -> value, line number
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
        if key in seen:
            raise ConfigError(f"line {idx}: config key {key!r} already set on line {seen[key]}")
        raw[key], seen[key] = value.strip(), idx

    for key in _REQUIRED:
        if key not in raw:
            name = "fT" if key == "ft" else key
            raise ConfigError(f"missing required config key {name!r}")

    T = _parse_float("T", raw["t"])
    K1 = _parse_int("K1", raw["k1"])
    K2 = _parse_int("K2", raw["k2"])
    spec = ProblemSpec(_function("f0", raw["f0"]), _function("fT", raw["ft"]), T, K1, K2)
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

    return RunConfig(spec, n, norm, schedule, raw.get("output_dir", "out"))


def _read_xy(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns of a comma- or space-separated file, as floats.

    A line before the first row is a header, and skipped, when its first
    field does not start like a number: an optional sign, then a digit or a
    point and a digit.  Every other line must hold two numbers, and no value
    may be NaN or infinite.
    """
    flat = []  # x0, y0, x1, y1, ...
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                parts = line.replace(",", " ").split()
                if not parts:
                    continue
                try:
                    flat += float(parts[0]), float(parts[1])
                except (ValueError, IndexError):
                    if flat or re.match(r"[+-]?\.?\d", parts[0]):
                        raise ConfigError(f"malformed row {line.strip()!r} in {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    data = np.array(flat, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"non-finite value in {path}")
    xs, ys = data.T.copy()
    return xs, ys


def _lines(cells, ncols: int) -> bytes:
    """The CSV lines of the str ``cells``, flat and row-major, ``ncols`` to a row, in UTF-8."""
    return "\n".join([*map(",".join, zip(*[iter(cells)] * ncols)), ""]).encode()


# A formatted float cell is one _CELL-byte row: a sign, a "0.000" prefix (2 to 5 of
# its bytes lead 1e-4 <= |x| < 1), 18 slots for 17 digits and a point, and a
# separator.  Its "keep" row marks the bytes of its text, in order.  The slots of
# the template read "0.0", so a zero needs only its keep row.
_CELL = 25
_CELL_TEMPLATE = np.frombuffer(b"-0.000" + b"0." + b"0" * 16 + b",", np.uint8)
_TEN = 10 ** np.arange(18, dtype=np.int64)
# cells formatted at once; 2048 or 16384 left a process that solves in-process (the
# perfbench harness) with 3-7 MB more RSS
_BLOCK_CELLS = 4096


@functools.cache
def _cell_tables():
    """Lookup tables of _repr_cells, built on first use.

    - the ASCII digits of 0000..9999, four bytes to a uint32;
    - 10^k for k = 0..22, exact doubles, with Veltkamp's 26-bit split of each;
    - for a point after digit E (E = 17: no point), the slots that take digit i
      (``left``) and the one that takes the point (``point``); every other slot
      takes digit i - 1;
    - the keep row of each (sign, e + 5, kept digits) for e = -5..16, 0..18 digits.
    """
    digits = 48 + np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    pow10 = 10.0 ** np.arange(23)
    big = 134217729.0 * pow10
    pow10_hi = big - (big - pow10)
    point_at, text_slot = np.arange(18)[:, None], np.arange(-3, 21)  # slot i at byte 3 + i
    left = ((0 <= text_slot) & (text_slot <= point_at)).astype(np.uint8)
    point = (text_slot == point_at + 1).astype(np.uint8)
    trailing = np.zeros(10000, np.int64)
    for k in range(1, 5):
        trailing[:: 10**k] += 1
    sign, e, kept = (
        a.reshape(-1, 1)
        for a in np.meshgrid([0, 1], np.arange(-5, 17), np.arange(19), indexing="ij")
    )
    prefix = np.array([99, 0, 0, 1, 2, 3] + [99] * 19)  # byte taken when below -e
    cell_slot = np.array([99] * 6 + list(range(18)) + [99])  # taken below the digits (+ point)
    keep = (prefix < -e) | (cell_slot < kept + (e >= 0))
    keep[:, 0] = sign[:, 0] == 1
    keep[:, -1] = True
    return (digits.astype(np.uint8).view(np.uint32).ravel(), trailing, pow10, pow10_hi,
            pow10 - pow10_hi, left, point, keep)


def _shortest(x):
    """repr's digits of each x of the float64 ``x``, 1e-4 <= x < 1e16: (e, c, slow).

    repr prints the shortest decimal that reads back as x, the nearest to x of
    those (the problem Adams' Ryu solves, PLDI 2018).  Here it is c·10^(e-16),
    with e = floor(log10 x) and c an int64 of 17 digits, found exactly:
    y = x·10^(16-e) in [1e16, 1e17) is N + f (N an int64, 0 <= f < 1) by
    Dekker's two-product, since 10^k is an exact double for k <= 22.  The
    round-trip interval of x is y ± δ, δ = 2^(ex-54)·10^(16-e) for the frexp
    exponent ex.  Over this range f, δ and f ± δ are multiples of 2^-47 below
    16, so exact too.  The ends y ± δ are integers only from x = 2^52 on; there
    they are 10x ± 5 or 10(x ± 1) with x ± 1 odd, never shorter than 10x
    between them, so the interval may be taken closed whatever the mantissa's
    parity.  A power of two has a lower end half as far; for the 67 of them in
    range that changes no digit (the tests check each).  ``slow`` marks what
    repr must decide: exact ties, and an e that log10 put off by one near a
    power of ten.
    """
    _, _, pow10, pow10_hi, pow10_lo, *_ = _cell_tables()
    e = np.floor(np.log10(x)).astype(np.int64)
    p = pow10[16 - e]
    hi = x * p
    big = 134217729.0 * x  # Veltkamp's split into 26-bit halves
    x_hi = big - (big - x)
    x_lo = x - x_hi
    p_hi, p_lo = pow10_hi[16 - e], pow10_lo[16 - e]
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    floor_lo = np.floor(lo)
    N = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = lo - floor_lo
    bits = x.view(np.int64)
    delta = np.ldexp(p, (bits >> 52) - 1076)
    # the integers of the interval are N + [low, high]
    low, high = np.ceil(f - delta), np.floor(f + delta)
    top = N + high.astype(np.int64)
    width = (high - low).astype(np.int64)
    # it holds a multiple of 10^j iff top mod 10^j <= width; one of 100 at most, so the
    # nearest multiple of 1, 10 or 100 to y is the shortest digit string
    step = _TEN[(top % 10 <= width).astype(np.int64) + (top % 100 <= width)]
    q, r = np.divmod(N, step)
    side = (2 * r - step).astype(np.float64) + 2 * f  # sign of y - (q + 1/2)·step, exactly
    c = (q + (side > 0)) * step
    slow = (side == 0) | (N < _TEN[16]) | (c >= _TEN[17])
    return e, c, slow


def _fixed_text(e, c):
    """repr's fixed-notation digits and point for the (e, c) of _shortest: (text, kept).

    Byte 3 + i of a row of ``text`` is slot i of the cell: digit i of c up to
    digit e, then the point, then digit i - 1 (e < 0: digit i, no point).
    ``kept`` is the number of digits the text keeps.
    """
    digits, trailing, _, _, _, left, point, _ = _cell_tables()
    lead = c // _TEN[16]
    rest = c - lead * _TEN[16]
    high8 = rest // _TEN[8]
    low8 = rest - high8 * _TEN[8]
    words = np.empty((len(c), 6), np.uint32)  # the 17 digits at bytes 3..19, '0' after
    zeros = 0  # trailing zeros of c; the lead digit is not 0
    for i, g in enumerate((high8 // 10000, high8 % 10000, low8 // 10000, low8 % 10000)):
        words[:, i + 1] = digits[g]
        zeros = trailing[g] + (g == 0) * zeros
    words[:, 5] = 0x30303030
    d = words.view(np.uint8)
    d[:, 3] = lead + 48
    # flat, so that the uint8 arithmetic runs in one pass (it wraps, the sum does not)
    at = np.where(e >= 0, e, 17)
    flat, text = d.ravel(), np.empty_like(d)
    take_i, take_point = (np.take(t, at, axis=0).ravel()[1:] for t in (left, point))
    text.ravel()[1:] = flat[:-1] + take_i * (flat[1:] - flat[:-1]) + take_point * (46 - flat[:-1])
    return text, np.maximum(17 - zeros, e + 2)


def _repr_cells(values, rows, keep) -> None:
    """Lay out repr(float(x)) of each x of the float64 ``values`` as a cell row.

    Fills the first len(values) rows of ``rows`` (uint8) and ``keep`` (bool),
    both _CELL wide, with a ',' separator kept after each text.  Over
    1e-4 <= |x| < 1e16, repr's fixed notation, the text comes from _shortest;
    ±0.0 keep the template; exponent notation, nan, ±inf and _shortest's slow
    cells take repr itself.
    """
    keep_of = _cell_tables()[-1]
    m = len(values)
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e16)
    rows[:m] = _CELL_TEMPLATE
    sel = np.flatnonzero(fast)
    e, c, slow = _shortest(mag[sel])
    text, kept = _fixed_text(e, c)
    rows[sel, 6:24] = text[:, 3:21]
    code = (np.signbit(values) * 22 + 5) * 19 + 2  # the keep row of ±0.0
    code[sel] += e * 19 + kept - 2
    np.take(keep_of, code, axis=0, out=keep[:m])
    other = ~fast & (mag != 0)
    other[sel[slow]] = True
    if other.any():
        idx = np.flatnonzero(other)
        text = ("%-24r" * len(idx) % tuple(values[idx].tolist())).encode()  # no repr has a space
        text = np.frombuffer(text, np.uint8).reshape(-1, 24)
        rows[idx, :24] = text
        keep[idx, :24] = text != ord(" ")
        keep[idx, 24] = True


def _csv_blocks(takes, *columns):
    """The CSV lines of the stacked float columns, a block of rows at a time: one per take.

    Each float is formatted once, into buffers that each block reuses: a write
    keeps a few small arrays, however long its columns.  A take picks the
    cells of a line from its block row: None every column, a list the same
    columns in every row, a function of the block's first row and row count
    one list per row.  None ends the lines in the shared buffer itself, so it
    must be the only take.
    """
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _BLOCK_CELLS // width)
    values = np.empty((step, width))
    rows = np.empty((step, width, _CELL), np.uint8)
    keep = np.empty((step, width, _CELL), bool)
    n = len(columns[0])
    for a in range(0, n, step):
        k = min(step, n - a)
        np.concatenate([np.reshape(c[a : a + k], (k, -1)) for c in columns], axis=1, out=values[:k])
        _repr_cells(values[:k].ravel(), rows.reshape(-1, _CELL), keep.reshape(-1, _CELL))
        lines = []
        for take in takes:
            if callable(take):
                take = take(a, k)
            at = np.s_[:k] if take is None else np.s_[np.arange(k)[:, None], take]
            cells, kept = rows[at], keep[at]
            cells[:, -1, -1] = ord("\n")
            lines.append(cells.ravel().compress(kept.ravel()))
        yield lines


def _write_csvs(files, *columns) -> None:
    """Write the (path, header, take) ``files`` from one pass of _csv_blocks over ``columns``."""
    with contextlib.ExitStack() as stack:
        fhs = [stack.enter_context(open(path, "wb")) for path, _, _ in files]
        for fh, (_, header, _) in zip(fhs, files):
            fh.write(_lines(header, len(header)))
        for lines in _csv_blocks([take for _, _, take in files], *columns):
            for fh, block in zip(fhs, lines):
                fh.write(block)


def _to(stream, method: str, *args) -> None:
    """``stream.method(*args)`` on sys.stdout or sys.stderr.  None (fd closed at start) takes
    nothing, and from an EPIPE (no reader) or EBADF (read-only fd) on, its fd is os.devnull."""
    if stream is None:
        return
    try:
        getattr(stream, method)(*args)
    except OSError as exc:
        if exc.errno not in (errno.EPIPE, errno.EBADF):
            raise
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _say(quiet: bool, line: str) -> None:
    if not quiet:
        _to(sys.stdout, "write", line + "\n")


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a regular file on the path, no permission, ...
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc


_SOLVE_CSVS = ("envelopes.csv", "shifts.csv", "minimizer.csv", "extended.csv")
# Formatted cells from which a forked child writes extended.csv.  Measured warm on a
# 2-vCPU VM shared with other load: with the second CPU free the fork wins from about
# 11271 cells (n=1025/K=3) on; with it busy the fork loses 5-7 ms at every size up to
# 34825 (n=2049/K=5).  Weighted equally, the two even out near 22535 cells (n=2049/K=3).
_FORK_CELLS = 25_000


def _write_solve_csvs(out_dir: str, ts, v, ext) -> None:
    """Write the _SOLVE_CSVS into ``out_dir``: the three decision-grid files, then extended.csv.

    A decision-grid row formats x, the K shifts and v once: shifts.csv takes x
    and the shifts in row order, envelopes.csv x and the shifts sorted descending,
    minimizer.csv x and v.  From _FORK_CELLS formatted cells on, where os.fork
    exists, a child forked before any file is open writes extended.csv while
    this process writes the other three.  The child leaves through os._exit, so
    it runs no exit handler and flushes no buffer of this process; a status
    other than 0 raises OSError, and the child is reaped whatever fails here.
    On any failure no file is left, stale ones included.
    """
    paths = [os.path.join(out_dir, name) for name in _SOLVE_CSVS]
    K = ts.K
    # shifts hold no -0.0 and equal floats have equal bits: these cells are np.sort's, bytewise
    order = np.argsort(ts.values, axis=0)[::-1]
    grid = [
        (paths[0], ["x", *(f"a_{j}" for j in range(1, K + 1))],
         lambda a, k: np.hstack([np.zeros((k, 1), np.intp), 1 + order[:, a : a + k].T])),
        (paths[1], ["x", *(f"t_{j}" for j in range(1, K + 1))], np.arange(K + 1)),
        (paths[2], ["x", "v"], [0, K + 1]),
    ]
    extended = [(paths[3], ["x", "v_ext"], None)]
    pid = 0
    try:
        # x, the K shifts and v per decision node; x and v_ext per window node
        if hasattr(os, "fork") and ts.values.size + 2 * v.size + 2 * ext.n >= _FORK_CELLS:
            for stream in (sys.stdout, sys.stderr):
                _to(stream, "flush")
            with warnings.catch_warnings():
                # Python 3.12+ warns that fork() in a multi-threaded process may
                # deadlock the child.  The CLI runs BLAS on one thread, so there
                # is no other thread unless OPENBLAS_NUM_THREADS is set or the
                # caller loaded numpy first; then the others are numpy's idle BLAS
                # pool, and the child only formats floats and writes a file.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _write_csvs(extended, ext.xs, ext.values)
                    status = 0
                except Exception as exc:
                    _to(sys.stderr, "write", f"solve: writing extended.csv failed: {exc!r}\n")
                    _to(sys.stderr, "flush")
                finally:
                    # never return into the caller, which would run its code twice
                    os._exit(status)
        try:
            _write_csvs(grid, ts.grid.xs, ts.values.T, v)
            if not pid:
                _write_csvs(extended, ext.xs, ext.values)
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else 0
        if status:
            raise OSError(f"the process writing extended.csv exited with {status}")
    except BaseException:
        for p in paths:
            if os.path.exists(p):
                os.remove(p)
        raise


def cmd_solve(cfg: RunConfig, quiet: bool = False) -> int:
    from .oracle import answer

    ans = answer(shift_sequence(cfg.spec, cfg.n), cfg.spec.A, cfg.norm)
    ext = extend_input(ans.v, ans.ts)
    _make_dir(cfg.output_dir)
    _write_solve_csvs(cfg.output_dir, ans.ts, ans.v.values, ext)
    for name, value in (("A ", cfg.spec.A), ("c1", cfg.spec.c1), ("c2", cfg.spec.c2), *ans.facts):
        _say(quiet, f"{name} = {_fmt(value)}")
    _say(quiet, f"wrote {' '.join(_SOLVE_CSVS)} to {cfg.output_dir}")
    return 0


def cmd_verify(cfg: RunConfig, input_csv: str, quiet: bool = False) -> int:
    from .verify import verify_solution

    spec = cfg.spec
    xs, vs = _read_xy(input_csv)
    if xs.size != cfg.n:
        raise ConfigError(f"input csv has {xs.size} rows, config says n={cfg.n}")
    if np.max(np.abs(xs - np.linspace(-spec.T, spec.T, cfg.n))) > 1e-9 * spec.T:
        raise ConfigError("input csv x-column does not match the decision grid")
    rep = verify_solution(GridFunction(-spec.T, spec.T, cfg.n, vs), shift_sequence(spec, cfg.n))

    rows = [(key, _fmt(val)) for key, val in vars(rep).items()]
    _make_dir(cfg.output_dir)
    with open(os.path.join(cfg.output_dir, "report.csv"), "wb") as fh:
        fh.write(_lines(("metric", "value", *sum(rows, ())), 2))
    for key, val in rows:
        _say(quiet, f"{key} = {val}")
    return 0 if rep.classification != "infeasible" else 4


def cmd_oracle(cfg: RunConfig, quiet: bool = False) -> int:
    from .oracle import l1_oracle, l2_oracle

    rep = (l2_oracle if cfg.norm == "l2" else l1_oracle)(shift_sequence(cfg.spec, cfg.n), cfg.spec.A)
    for name, value in (("norm", cfg.norm), *vars(rep).items()):
        _say(quiet, f"{name} = {_fmt(value)}")
    if not rep.converged:
        _say(quiet, "certification failed (gap or constraint above 64 ulps of scale)")
    return 0 if rep.converged else 5


def cmd_pms(cfg: RunConfig, quiet: bool = False) -> int:
    if cfg.eps_schedule is None:
        raise ConfigError("pms runs need an eps_schedule in the config")
    from .approx import pms_sequence
    from .oracle import answer

    ans = answer(shift_sequence(cfg.spec, cfg.n), cfg.spec.A, cfg.norm)
    p = 1 if cfg.norm == "l1" else 2
    _make_dir(cfg.output_dir)

    failed = None
    try:
        entries = pms_sequence(ans.v, ans.ts, cfg.eps_schedule, p)
    except ApproxBudgetExceeded as exc:
        entries = exc.entries
        failed = exc

    summary = ["eps", "achieved_error", "norm_gap", "bound", "satisfied"]  # then row after row
    for i, e in enumerate(entries, 1):
        g = e.result.g
        path = os.path.join(cfg.output_dir, f"pms_{i:03d}.csv")
        _write_csvs([(path, ["x", "v", "d1"], None)], g.xs, g.values, g.d1)
        summary += (
            _fmt(e.epsilon),
            _fmt(e.result.achieved_lp_error),
            _fmt(e.norm_gap),
            _fmt(e.bound),
            "yes" if e.satisfied else "no",
        )
        _say(
            quiet,
            f"eps={e.epsilon:g} achieved={e.result.achieved_lp_error:.3e} "
            f"gap={e.norm_gap:.3e} bound={e.bound:.3e} "
            f"{'ok' if e.satisfied else 'VIOLATED'}",
        )
    with open(os.path.join(cfg.output_dir, "pms_summary.csv"), "wb") as fh:
        fh.write(_lines(summary, 5))
    if failed is not None:
        _to(sys.stderr, "write", f"approximation budget exceeded: {failed}\n")
        return 6
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (about 1 ms, a fifth of a small solve)."""
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2), its text written
        return exc.code
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
    except WaveInputError as exc:
        _to(sys.stderr, "write", f"config error: {exc}\n")
        return 2


def run() -> None:
    """``main`` on ``sys.argv``, then its exit code without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        _to(stream, "flush")
    os._exit(code)


if __name__ == "__main__":
    run()
