"""Constructive C1 approximation under integral and endpoint-offset constraints.

Given grid samples v on [a, b] (n odd), build a C1 function g with offsets
g(b) - g(a) = c1 and g'(b) - g'(a) = c2, a prescribed exact integral, and
||g - Q||_p below a requested budget (p = 1 or 2).  The target Q is the
piecewise quadratic through each node triple (x_2i, x_2i+1, x_2i+2); its
exact integral is the Simpson sum of v, so "integral A" and "close to v"
speak of one function (the linear interpolant would miss A by O(h^2) and
put that floor under every budget).

1. The core is the box average g_c(x) = (1/2 delta) int_{x-delta}^{x+delta} Q,
   Q continued past a and b by its end quadratics.  Its slope
   (Q(x+delta) - Q(x-delta)) / (2 delta) is continuous because Q is, so g_c
   is exactly C1 for every delta > 0: a cubic between the breakpoints
   x_2i +- delta, Q + q'' delta^2 / 6 away from Q's corners, the cubic blend
   of two quadratics near a lone corner, and the sum of blends where
   corners overlap.  Value and slope are evaluated piece by piece in panel
   coordinates; a difference of one global primitive would lose about
   ulp * int|v| / delta.
2. The cubic Hermite patch on [b - delta_h, b] keeps the core's value and
   slope at the seam and lands on g_c(a) + c1 and g_c'(a) + c2 at b;
   delta_h shrinks until the measured error fits the budget.
3. One constant, subtracted from core and patch alike, puts the integral on
   the target and keeps the offsets; each patch width measures its error
   once, with its own constant.

The corner half-width delta is derived from the budget.  A corner with slope
jump D costs |D| delta^2 / 6 in L1 and |D| (delta^3 / 40)^(1/2) in L2; delta
starts from that closed form for half the budget, capped at CORNER_CAP of the
interval, since the widest delta gives node slopes smooth enough for the
finite-difference seam check of `verify`.  From 2h up it is snapped to
2h * 2^k, which puts every breakpoint on an even node: a breakpoint inside a
Simpson panel makes the Simpson sum of the result's nodes miss its exact
integral.  delta then halves until two gates hold, after removing the
constant the corners add:

* the exact Lp distance to Q (Gauss on the breakpoint segments, exact for
  p = 2), which is what the budget bounds;
* the Simpson Lp distance of the core's node samples to v, which is what the
  norm gap of `pms_sequence` sees: a corner moves node values by about
  D delta / 4 with weight h rather than delta.

The patch width can fall below the grid spacing, so errors are measured on
the exact piecewise form (Gauss per segment, split at the seam), not on node
samples.  A budget within 64 ulps of ||Q||_p is below the rounding of that
measurement and is reported unreachable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ApproxBudgetExceeded, BadParams, UnsupportedNorm
from .functions import (
    FEAS_TOL, GAUSS_X, C1GridFunction, GridFunction, gauss, integrate, lp_total, rounding,
    simpson_weights, wsum,
)
from .tbvp import ShiftSequence, full_norm

# widest corner half-width, as a fraction of the interval
CORNER_CAP = 1.0 / 8.0


# ---------------------------------------------------------------- box core

class BoxCore:
    """The box average of the Simpson-panel quadratic Q of grid samples f.

    Panel j of the padded tables starts at a + 2h (j - pad); the `pad`
    panels on each side continue the end quadratics, which holds every
    window [x - delta, x + delta] with x in [a, b].  On panel j,
    Q = q0 + q1 u + q2 u^2 with u the distance from the panel's start.
    """

    def __init__(self, f: GridFunction, delta: float):
        self.xs, self.a, self.h2, self.delta = f.xs, f.a, 2.0 * f.h, float(delta)
        h, v = f.h, f.values
        q0, f1, f2 = v[0:-2:2], v[1:-1:2], v[2::2]
        q1 = (4.0 * f1 - 3.0 * q0 - f2) / (2.0 * h)
        q2 = (q0 - 2.0 * f1 + f2) / (2.0 * h * h)
        self.pad = pad = int(self.delta / self.h2) + 2
        # each padded panel re-expands the in-range quadratic nearest to it
        # about its own start, d away from that quadratic's start
        j = np.arange(-pad, q0.size + pad)
        src = np.clip(j, 0, q0.size - 1)
        h2 = self.h2
        d = h2 * (j - src)
        self.q0 = q0[src] + d * (q1[src] + d * q2[src])
        self.q1 = q1[src] + 2.0 * d * q2[src]
        self.q2 = q2[src]
        whole = h2 * (self.q0 + h2 * (self.q1 / 2.0 + h2 * self.q2 / 3.0))
        self.cum = np.concatenate(([0.0], np.cumsum(whole)))
        # slope jumps of Q at its interior corners x_2, x_4, ..., x_{n-3}
        self.jumps = q1[1:] - (q1[:-1] + 2.0 * h2 * q2[:-1])

    def _panel(self, x):
        """Index of the padded panel holding x, and the panel's start."""
        j = np.floor((x - self.a) / self.h2).astype(np.intp) + self.pad
        return j, self.a + self.h2 * (j - self.pad)

    def target(self, x) -> np.ndarray:
        j, z = self._panel(x)
        u = x - z
        return self.q0[j] + u * (self.q1[j] + u * self.q2[j])

    def __call__(self, x):
        """Value and slope of the core at the points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = self.delta
        q0, q1, q2 = self.q0, self.q1, self.q2
        L, zl = self._panel(x - d)
        R, zr = self._panel(x + d)
        # both window ends on one panel: the box average of one quadratic
        u = x - zl
        one_v = q0[L] + u * q1[L] + q2[L] * (u * u + d * d / 3.0)
        one_d = q1[L] + 2.0 * u * q2[L]
        # else the tail of panel L, the whole panels between and the head of
        # panel R, each from its own panel end: r and s are the head and
        # tail lengths, and Q(x_L end) = q0[L + 1] by continuity.  s is
        # taken from r so that s + r + the whole panels is 2 delta to the
        # rounding of delta; formed from x, s would carry the rounding of
        # x, which is 1e-4 of delta = 1e-12.
        r = x + d - zr
        s = (2.0 * d - self.h2 * (R - L - 1)) - r
        e0 = q0[L + 1]
        e1 = q1[L] + 2.0 * self.h2 * q2[L]
        tail = s * (e0 - s * (e1 / 2.0 - s * q2[L] / 3.0))
        head = r * (q0[R] + r * (q1[R] / 2.0 + r * q2[R] / 3.0))
        many_v = (tail + (self.cum[R] - self.cum[L + 1]) + head) / (2.0 * d)
        many_d = (q0[R] - e0 + r * (q1[R] + r * q2[R]) + s * (e1 - s * q2[L])) / (2.0 * d)
        one = L == R
        return np.where(one, one_v, many_v), np.where(one, one_d, many_d)

    def edges(self, lo: float, hi: float) -> np.ndarray:
        """Nodes and core breakpoints x_2i +- delta strictly inside (lo, hi), with lo and hi."""
        z = self.xs[2:-1:2]
        # np.union1d's sort and dedupe, which would load numpy.ma
        e = np.sort(np.concatenate((self.xs, z - self.delta, z + self.delta)))
        e = e[np.concatenate(([True], e[1:] != e[:-1]))]
        return np.concatenate(([lo], e[(e > lo) & (e < hi)], [hi]))

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral of the core over [lo, hi], inside [a, b]."""
        pts, wts = gauss(self.edges(lo, hi))
        return float(wsum(wts, self(pts)[0]))


# ------------------------------------------------------------- cubic Hermite

def _hermite_integral(dt, v0, d0, v1, d1) -> float:
    """Exact integral of the _hermite cubic over its interval of length dt."""
    return dt * (v0 + v1) / 2.0 + dt * dt * (d0 - d1) / 12.0


def _hermite(s, b, v0, d0, v1, d1, x):
    """Cubic with value/slope (v0,d0) at s and (v1,d1) at b, and its slope."""
    dt = b - s
    t = (np.asarray(x, dtype=float) - s) / dt
    t2 = t * t
    t3 = t2 * t
    val = (
        (2 * t3 - 3 * t2 + 1) * v0
        + dt * (t3 - 2 * t2 + t) * d0
        + (-2 * t3 + 3 * t2) * v1
        + dt * (t3 - t2) * d1
    )
    der = (
        (6 * t2 - 6 * t) * (v0 - v1) / dt
        + (3 * t2 - 4 * t + 1) * d0
        + (3 * t2 - 2 * t) * d1
    )
    return val, der


# ---------------------------------------------------------------- main types

@dataclass
class C1Curve:
    """Exact piecewise form of a result: box core + cubic end patch - shift.

    The patch width may be far below the grid spacing, so honest error
    measurement and integrals have to go through this object rather than
    through node samples.  ``integral`` re-integrates the core on its own
    Gauss cells: a check on the shift, not the sum that set it.
    """

    a: float
    b: float
    seam: float
    core: BoxCore
    shift: float   # subtracted from core and patch alike
    patch: tuple   # (v0, d0, v1, d1) of the cubic against the core

    def __call__(self, x):
        """Value and slope of the result at the points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        core_v, core_d = self.core(np.clip(x, self.a, self.seam))
        hv, hd = _hermite(self.seam, self.b, *self.patch, np.clip(x, self.seam, self.b))
        left = x < self.seam
        return np.where(left, core_v, hv) - self.shift, np.where(left, core_d, hd)

    def integral(self) -> float:
        patch = _hermite_integral(self.b - self.seam, *self.patch)
        return self.core.integral(self.a, self.seam) + patch - self.shift * (self.b - self.a)


@dataclass
class ApproxResult:
    g: C1GridFunction
    achieved_lp_error: float
    integral_residual: float
    endpoint_value_residual: float
    endpoint_deriv_residual: float
    stages: dict
    curve: C1Curve


def _check_epsilon(eps: float) -> None:
    if not 0.0 < eps < np.inf:
        raise BadParams(f"epsilon must be positive and finite, got {eps}")


def _first_corner_width(core: BoxCore, share: float, width: float, p: int) -> float:
    """The budget's closed-form corner half-width, capped, snapped to 2h * 2^k."""
    jump = float(np.sum(np.abs(core.jumps)))
    delta = CORNER_CAP * width
    if jump > 0.0:
        try:
            fit = np.sqrt(6.0 * share / jump) if p == 1 else (40.0 * (share / jump) ** 2) ** (1.0 / 3.0)
        except OverflowError:  # a budget past the float range: the cap wins
            fit = np.inf
        delta = min(delta, fit)
    if delta >= core.h2:
        delta = core.h2 * 2.0 ** np.floor(np.log2(delta / core.h2))
    return float(delta)


# ------------------------------------------------------------- the pipeline

def approximate_c1(
    f: GridFunction, c1: float, c2: float, target_integral: float, epsilon: float, p: int
) -> ApproxResult:
    """Run the pipeline; see the module docstring for the stage layout.

    The corner half-width starts from the budget's closed form and halves
    until the core is within half the budget of Q, both exactly and on the
    node samples; the patch width shrinks from about a sixtieth of the
    interval (never below six grid cells to start, so the patch stays
    visible to node-level consumers whenever the budget allows) until the
    measured error fits.  Neither halves below 2^-40 of the interval.
    Failure raises ApproxBudgetExceeded with the best attempt attached: a
    budget at or below 64 ulps of ||Q||_p is below the rounding of the
    measurement and always fails.
    """
    eps = float(epsilon)
    _check_epsilon(eps)
    if p not in (1, 2):
        raise UnsupportedNorm(f"p must be 1 or 2, got {p}")
    a, b = f.a, f.b
    width = b - a
    xs = f.xs
    w_nodes = simpson_weights(f.n, f.h)
    share = eps / 2.0
    delta_min = width * 2.0 ** -40

    # the slope jumps of Q at its corners do not depend on delta
    delta = _first_corner_width(BoxCore(f, 0.0), share, width, p)
    halvings = 0
    while True:
        core = BoxCore(f, delta)
        edges = core.edges(a, b)
        pts, wts = gauss(edges)
        core_v = core(pts)[0]
        q_at_pts = core.target(pts)
        diffs = core_v - q_at_pts
        # the constant the corners add, which the integral shift removes
        drift = float(wsum(wts, diffs)) / width
        at_nodes = core(xs)[0] - f.values - drift
        if (
            lp_total(wts, diffs - drift, p) < share
            and lp_total(w_nodes, at_nodes, p) < share
        ) or delta / 2.0 < delta_min:
            break
        delta /= 2.0
        halvings += 1

    # a measured error below 64 ulps of ||Q||_p is rounding, not a result
    floor = rounding(lp_total(wts, q_at_pts, p))
    # integrals of the core from a to each edge
    cells = (-1, GAUSS_X.size)
    prefix = np.concatenate(([0.0], np.cumsum(wsum(wts.reshape(cells), core_v.reshape(cells)))))

    value_a, slope_a = core(a)
    v1, d1 = float(value_a[0]) + c1, float(slope_a[0]) + c2

    delta_raw = min(max(width / 64.0, 6.0 * f.h), width / 3.0)
    while True:
        # snap a patch of two or more cells onto an even-index node, so
        # composite Simpson pairs on the result never straddle the seam
        if delta_raw >= 2.0 * f.h:
            j = int(np.floor((b - delta_raw - a) / f.h + 1e-12))
            j -= j % 2
            delta_h = (f.n - 1 - max(j, 0)) * f.h
        else:
            delta_h = delta_raw
        seam = b - delta_h
        jc = min(max(int(np.searchsorted(edges, seam, side="right")) - 1, 0), edges.size - 2)
        seam_v, seam_d = core(seam)
        patch = (float(seam_v[0]), float(seam_d[0]), v1, d1)

        part_pts, part_wts = gauss(np.array([edges[jc], seam]))
        part_v = core(part_pts)[0]
        inner = xs[(xs > seam) & (xs < b)]
        patch_pts, patch_wts = gauss(np.concatenate(([seam], inner, [b])))
        hv, _ = _hermite(seam, b, *patch, patch_pts)
        core_int = prefix[jc] + float(wsum(part_wts, part_v))
        shift = (core_int + _hermite_integral(b - seam, *patch) - target_integral) / width

        n_left = jc * GAUSS_X.size
        # off Q on the core's cells left of the seam's cell, that cell up to the seam, the patch
        w_off = np.concatenate((wts[:n_left], part_wts, patch_wts))
        off = (diffs[:n_left], part_v - core.target(part_pts), hv - core.target(patch_pts))
        achieved = lp_total(w_off, np.concatenate(off) - shift, p)
        reached = achieved < eps and eps > floor
        if reached or delta_raw / 2.0 < delta_min:
            break
        delta_raw /= 2.0

    curve = C1Curve(a, b, seam, core, shift, patch)
    vals, ders = curve(xs)
    g = C1GridFunction(a, b, f.n, vals, ders)

    stages = {
        "m": 3,  # the core's piecewise degree
        "delta_corner": delta,
        "delta_hermite": delta_h,
        "retries": halvings,  # corner-width halvings
    }
    result = ApproxResult(
        g,
        achieved,
        abs(curve.integral() - target_integral),
        abs((vals[-1] - vals[0]) - c1),
        abs((ders[-1] - ders[0]) - c2),
        stages,
        curve,
    )
    if reached:
        return result
    raise ApproxBudgetExceeded(
        f"could not reach Lp budget {eps} (best {achieved:.3e}, rounding floor "
        f"{floor:.3e}, corner width {delta:.3e}, patch width {delta_h:.3e})",
        result=result,
    )


# ----------------------------------------------------------------- sequences

@dataclass
class PMSEntry:
    epsilon: float
    result: ApproxResult
    norm_gap: float
    bound: float
    satisfied: bool


def pms_sequence(v: GridFunction, ts: ShiftSequence, eps_schedule, p: int):
    """Smooth a feasible input along a decreasing tolerance schedule.

    Each entry runs the pipeline with the problem's endpoint offsets and
    integral, then checks the objective gap against the advertised bound:
    2KT*eps for p = 1 and M*eps for p = 2, where M is the Cauchy-Schwarz
    factor ||sum_i (2 t_i - v_n - v)||_2 measured on the grid; `satisfied`
    is gap <= bound, with no slack.  Under u -> s u(t/lam, x/lam) the gap
    scales by s in L1 but the L1 bound by s lam, so its units are still
    open.  Results are carried forward whenever an earlier entry already
    beats a later budget, so achieved errors are non-increasing.
    """
    if p not in (1, 2):
        raise UnsupportedNorm(f"p must be 1 or 2, got {p}")
    eps_schedule = [float(e) for e in eps_schedule]
    for e in eps_schedule:
        _check_epsilon(e)
    if any(b <= s for b, s in zip(eps_schedule, eps_schedule[1:])):
        raise BadParams("tolerance schedule must be strictly decreasing")
    if abs(integrate(v) - ts.spec.A) > FEAS_TOL:
        raise BadParams("input is not feasible: integral constraint fails")

    base_norm = full_norm(v, ts, p)
    w_simpson = simpson_weights(v.n, v.h)

    entries = []
    prev: ApproxResult | None = None
    for eps in eps_schedule:
        try:
            result = approximate_c1(v, ts.spec.c1, ts.spec.c2, ts.spec.A, eps, p)
        except ApproxBudgetExceeded as exc:
            exc.entries = entries  # expose what already succeeded
            raise
        if prev is not None and prev.achieved_lp_error < result.achieved_lp_error:
            if prev.achieved_lp_error < eps:
                result = prev
        gap = abs(full_norm(result.g, ts, p) - base_norm)
        if p == 1:
            bound = 2.0 * ts.spec.K * ts.spec.T * eps
        else:
            w = -(result.g.values + v.values)[None, :] + 2.0 * ts.values
            m_factor = np.sqrt(float(wsum(w_simpson, np.sum(w, axis=0) ** 2)))
            bound = m_factor * eps
        entries.append(PMSEntry(eps, result, gap, bound, gap <= bound))
        prev = result
    return entries
