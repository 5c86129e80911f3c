"""Two-point boundary value problem for u_tt = u_xx on a finite window.

Data are two smooth profiles f0 = u(0, .) and fT = u(T, .).  The unknown
input is the initial velocity v(x) = u_t(0, x).  Prescribing u at t = 0 and
t = T forces v to satisfy, for every y,

    v(y + T) = v(y - T) + 2 fT'(y) - f0'(y + T) - f0'(y - T)

so v on the decision interval [-T, T] determines it on the whole window
[-(2 K1 + 1) T, (2 K2 + 1) T].  `recurrence_increment` is the one copy of
2 fT^(m)(y) - f0^(m)(y + T) - f0^(m)(y - T): A, c1 and c2 are its orders
0-2 at y = 0, and `shift_values` accumulates it into the shifts ts_k (or
their slopes) at any points of [-T, T].  `shift_sequence(spec, n)`, the one way to the
shifts, discretizes the continuous problem, a `ProblemSpec`, on n nodes; the module also
extends inputs by the recurrence and reconstructs u(t, x) by D'Alembert's formula.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError, OutOfRegion, UnsupportedNorm
from .functions import GridFunction, SmoothFunction, simpson_weights, wsum


@dataclass
class ProblemSpec:
    """The continuous problem: data plus the derived constants of the endpoint relations.

    A  = 2 fT(0)  - f0(T)  - f0(-T)    (value of the integral of v over [-T, T])
    c1 = 2 fT'(0) - f0'(T) - f0'(-T)   (v(T) - v(-T) for a continuous extension)
    c2 = 2 fT''(0)- f0''(T)- f0''(-T)  (v'(T) - v'(-T) for a C1 extension)
    K  = K1 + K2 + 1 periods of length 2T cover the window.
    """

    f0: SmoothFunction
    fT: SmoothFunction
    T: float
    K1: int
    K2: int
    A: float = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)
    K: int = field(init=False)

    def __post_init__(self):
        self.T = float(self.T)
        if not 1e-75 <= self.T <= 1e75:  # the range of _check_scale
            raise DomainError(f"T={self.T!r} is outside the supported range [1e-75, 1e75]")
        self.K1 = int(self.K1)
        self.K2 = int(self.K2)
        if self.K1 < 1 or self.K2 < 1:
            raise DomainError(f"K1 and K2 must be at least 1, got K1={self.K1}, K2={self.K2}")
        self.K = self.K1 + self.K2 + 1
        lo, hi = self.window
        if not (self.f0.covers(lo, hi) and self.fT.covers(lo, hi)):
            raise DomainError(
                f"f0 and fT must cover the window [{lo}, {hi}]; "
                f"got f0.domain={self.f0.domain}, fT.domain={self.fT.domain}"
            )
        self.A, self.c1, self.c2 = (float(recurrence_increment(self, 0.0, m)) for m in range(3))

    @property
    def window(self) -> tuple[float, float]:
        return (-(2 * self.K1 + 1) * self.T, (2 * self.K2 + 1) * self.T)


def recurrence_increment(spec: ProblemSpec, y, m: int = 1):
    """2 fT^(m)(y) - f0^(m)(y+T) - f0^(m)(y-T) for derivative order m in 0..2.

    At m = 1 this is the jump of the recurrence: v(y + T) = v(y - T) + r(y)
    for any input extension.  At y = 0 the orders 0, 1, 2 give A, c1, c2.
    """
    y = np.asarray(y, dtype=float)
    fT, f0 = (getattr(f, ("value", "d1", "d2")[m]) for f in (spec.fT, spec.f0))
    with np.errstate(all="ignore"):
        return 2.0 * fT(y) - f0(y + spec.T) - f0(y - spec.T)


def _check_scale(what: str, *parts) -> None:
    """DomainError unless the data scale S, the largest |x| of ``parts``, is at most 1e75.

    The parts are |A|/(2T), the shifts and their end slopes (which hold -c1 and -c2), and
    f0 and v - ts_k on the window; data that overflow arrive as inf or NaN, unwarned.  For
    1e-75 <= T <= 1e75 (< 2^250) and n, K <= 2^40, h = 2T/(n - 1) is in [2^-289, 2^250],
    |v| <= 3S and |u| <= S + TS, so these are normal floats: h^2, 1/h^2 (< 2^578), v^2
    (< 2^503), T K v^2 (< 2^836, as K^2 in the PMS bound), v/h^2 and u/h^2 (< 2^831), and
    verify's budget 100 u h^2 (< 2^1007).
    """
    S = float(np.max([(np.max(part), -np.min(part)) for part in parts]))  # no |part| temporary
    if not S <= 1e75:
        raise DomainError(f"the data scale {S!r} ({what}) is outside the supported range [0, 1e75]")


@dataclass
class ShiftSequence:
    """The n-node discretization of ``spec``: its K shifts on the decision grid.

    Row i of ``values`` is the shift ts_k of window period k = i - K1, so
    rows run k = -K1..K2 in window order and row K1 (period 0) is zero.
    Period k of the window carries v(x + 2kT) = v(x) - ts_k(x), so the
    full-window L^p integral of the extension collapses to
    sum_k |ts_k(x) - v(x)|^p over [-T, T].  Row i of ``d_ends`` holds the
    end slopes ts_k'(-T) and ts_k'(T), taken from the analytic second
    derivatives of the data.
    """

    spec: ProblemSpec
    values: np.ndarray
    d_ends: np.ndarray

    @property
    def K(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @cached_property
    def grid(self) -> GridFunction:
        return GridFunction(-self.spec.T, self.spec.T, self.n, np.zeros(self.n))


def shift_values(spec: ProblemSpec, x, m: int = 0) -> np.ndarray:
    """The K shifts ts_k (m = 0) or their slopes ts_k' (m = 1) at points x of [-T, T].

    Row i holds period k = i - K1 at every point of x.  Moving one period
    right subtracts r(x + (2k-1)T) from the running shift, moving left adds
    r(x - (2k-1)T), where r is `recurrence_increment` of order m + 1.  No
    closed form is transcribed; the identity ts_k(-T) = ts_{k-1}(T) - c1
    between consecutive rightward shifts is a consequence and is exercised
    in the tests.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((spec.K, x.size))
    for sign, count in ((1, spec.K2), (-1, spec.K1)):
        for k in range(1, count + 1):
            i = spec.K1 + sign * k
            r = recurrence_increment(spec, x + sign * (2 * k - 1) * spec.T, m + 1)
            out[i] = out[i - sign] - sign * r
    return out


def shift_sequence(spec: ProblemSpec, n: int) -> ShiftSequence:
    """`shift_values` on the n-node decision grid, with the slopes at -T and T."""
    if n < 3 or n % 2 == 0:
        raise GridError(f"shift grid size must be odd >= 3, got {n}")
    xs = np.linspace(-spec.T, spec.T, n)
    values, d_ends = shift_values(spec, xs), shift_values(spec, xs[[0, -1]], 1)
    _check_scale("|A|/(2T) and the shifts", spec.A / (2 * spec.T), values, d_ends)
    return ShiftSequence(spec, values, d_ends)


def _branches(v: GridFunction, ts: ShiftSequence) -> np.ndarray:
    """The (K, n) branch rows v - ts_k; GridError unless v has ts.n nodes spanning [-T, T]."""
    if v.n != ts.n:
        raise GridError(f"input has {v.n} nodes, the shift grid {ts.n}")
    T = ts.spec.T
    if max(abs(v.a + T), abs(v.b - T)) > 1e-9 * T:
        raise GridError(f"input grid [{v.a}, {v.b}] must span the decision interval [{-T}, {T}]")
    return v.values[None, :] - ts.values


def _extension(v: GridFunction, ts: ShiftSequence) -> tuple[np.ndarray, GridFunction]:
    """The (K, n) branch rows v - ts_k and the window array they make."""
    branch = _branches(v, ts)
    lo, hi = ts.spec.window
    closing = branch[-1, 0] + float(recurrence_increment(ts.spec, hi - ts.spec.T))
    out = np.append(branch[:, :-1].ravel(), closing)
    return branch, GridFunction(lo, hi, out.size, out)


def extend_input(v: GridFunction, ts: ShiftSequence) -> GridFunction:
    """Propagate a decision-interval input to the whole window.

    Each period contributes its branch v - ts_k without its last node, so
    every seam node x = (2k+1)T stores the right-limit branch (the
    recurrence-propagated value); in particular the node x = T holds
    v(-T) + c1 rather than v(T) whenever those differ.  The discrepancy
    |v(T) - v(-T) - c1| is the seam jump that `verify` reports as its
    endpoint value residual, not an error here.  The final window node has
    no right neighbour period, so it is closed with one more application
    of the recurrence.
    """
    return _extension(v, ts)[1]


# Per-interval quadrature rules exact for cubics, used to build the
# cumulative-integral table node by node.
_PREFIX_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_PREFIX_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0


def _prefix_tables(branch: np.ndarray, h: float) -> np.ndarray:
    """Row-wise cumulative integrals: P[k, j] = integral of row k, node 0..j."""
    n = branch.shape[1]
    if n < 5:
        raise GridError("prefix tables need at least 5 nodes per period")
    inc = np.empty((branch.shape[0], n - 1))
    inc[:, 1:-1] = (
        _PREFIX_INNER[0] * branch[:, :-3]
        + _PREFIX_INNER[1] * branch[:, 1:-2]
        + _PREFIX_INNER[2] * branch[:, 2:-1]
        + _PREFIX_INNER[3] * branch[:, 3:]
    )
    inc[:, 0] = wsum(_PREFIX_FIRST, branch[:, :4])
    inc[:, -1] = wsum(_PREFIX_FIRST[::-1], branch[:, -4:])
    table = np.zeros((branch.shape[0], n))
    np.cumsum(inc * h, axis=1, out=table[:, 1:])
    return table


@dataclass
class SolutionField:
    """Evaluator of u(t, x) on the trapezoidal domain of determinacy.

    u(t, x) = (f0(x+t) + f0(x-t))/2 + (C(x+t) - C(x-t))/2.  C is a
    cumulative integral of the extended input built period by period from
    each period's own branch samples, so seam jumps of the extension never
    leak into neighbouring quadrature cells (C stays continuous and exact
    even when the input violates the endpoint value relation); ``branch``
    holds those (K, n) rows v - ts_k.  One window-node table holds C and f0:
    ``level`` reads node rows off it, ``u`` fills a cell with the cubic
    Hermite of C on the cell's end slopes, which are ``branch`` samples.
    """

    spec: ProblemSpec
    v_full: GridFunction
    branch: np.ndarray = field(repr=False)

    def __post_init__(self):
        with np.errstate(all="ignore"):
            self._F = self.spec.f0.value(self.v_full.xs)
        _check_scale("|f0| and the extended input", self._F, self.branch)
        ptab = _prefix_tables(self.branch, self.v_full.h)
        # each period's table, raised by the integral of the periods before
        C = np.concatenate([[0.0], np.cumsum(ptab[:-1, -1])])[:, None] + ptab
        self._C = np.append(C[:, :-1].ravel(), C[-1, -1])

    def level(self, j: int) -> np.ndarray:
        """u(j h, .) on window nodes j .. N-1-j, the nodes of trapezoid row j."""
        if not 0 <= j <= (self.branch.shape[1] - 1) // 2:
            raise OutOfRegion(f"row {j} lies outside the trapezoid")
        F, C, k = self._F, self._C, 2 * j
        return 0.5 * (F[k:] + F[: F.size - k]) + 0.5 * (C[k:] - C[: C.size - k])

    def in_region(self, t, x):
        """Vectorized membership test for the trapezoid (1e-12 slack)."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        lo, hi = self.spec.window
        slack = 1e-12 * (hi - lo)
        cap = np.minimum(np.minimum(x - lo, hi - x), self.spec.T)
        return (x >= lo - slack) & (x <= hi + slack) & (t >= -slack) & (t <= cap + slack)

    def _cumulative(self, s: np.ndarray) -> np.ndarray:
        g = self.v_full
        h = g.h
        # cells never straddle a seam because seams are grid nodes
        j = np.clip(np.floor((s - g.a) / h).astype(int), 0, g.n - 2)
        th = (s - (g.a + j * h)) / h
        c0 = self._C[j]
        c1 = self._C[j + 1]
        row, col = np.divmod(j, self.branch.shape[1] - 1)  # the cell's period and node in it
        d0, d1 = self.branch[row, col], self.branch[row, col + 1]
        h00 = (2 * th - 3) * th * th + 1.0
        h10 = ((th - 2) * th + 1.0) * th
        h01 = (3 - 2 * th) * th * th
        h11 = (th - 1.0) * th * th
        return h00 * c0 + h01 * c1 + h * (h10 * d0 + h11 * d1)

    def u(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        ok = self.in_region(t, x)
        if not np.all(ok):
            bad = np.argwhere(~np.atleast_1d(ok))
            raise OutOfRegion(f"{bad.shape[0]} query point(s) outside the trapezoid")
        plus = x + t
        minus = x - t
        half_data = 0.5 * (self.spec.f0.value(plus) + self.spec.f0.value(minus))
        half_int = 0.5 * (self._cumulative(np.atleast_1d(plus)) - self._cumulative(np.atleast_1d(minus)))
        out = np.asarray(half_data + half_int.reshape(np.shape(half_data)))
        return float(out) if out.ndim == 0 else out


def dalembert(v: GridFunction, ts: ShiftSequence) -> SolutionField:
    """Reconstruct the solution field from a decision-interval input."""
    branch, v_full = _extension(v, ts)
    return SolutionField(ts.spec, v_full, branch)


def full_norm(v: GridFunction, ts: ShiftSequence, p: int) -> float:
    """Full-window input measure folded onto the decision interval.

    Returns the integral over [-T, T] of sum_k |ts_k(x) - v(x)|^p, which
    equals the window integral of |v_ext|^p (branchwise, with the seam
    convention of extend_input).  v must sit on the grid of ts.
    """
    branch = _branches(v, ts)
    if p not in (1, 2):
        raise UnsupportedNorm(f"only p in {{1, 2}} is supported, got p={p}")
    return float(wsum(simpson_weights(v.n, v.h), (np.abs(branch) ** p).sum(axis=0)))


def segment_integrals(spec: ProblemSpec) -> np.ndarray:
    """Per-period window integrals 2 fT(2kT) - f0((2k+1)T) - f0((2k-1)T).

    Entry index runs k = -K1..K2; the middle entry (k = 0) is A.  Any
    extension of a feasible input integrates to exactly these values over
    the corresponding periods.
    """
    ks = np.arange(-spec.K1, spec.K2 + 1, dtype=float)
    return recurrence_increment(spec, 2 * ks * spec.T, 0)
