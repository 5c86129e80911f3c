"""Constructive C1 approximation under integral and endpoint-offset constraints.

Given grid samples of a continuous target f on [a, b], build a C1 function g
with prescribed offsets g(b) - g(a) = c1 and g'(b) - g'(a) = c2, prescribed
exact integral, and ||g - f||_p below a requested budget (p = 1 or 2).

The construction here is a Bernstein core plus a single cubic end patch:

1. fit a Bernstein polynomial B_m to (the piecewise-linear interpolant of) f,
   with the degree chosen by a doubling search against the measured Lp error;
2. shift by a constant so the integral matches the target;
3. replace the last stretch [b - delta, b] by the cubic Hermite patch that
   keeps value and slope at the seam and lands on the offset value and slope
   at b, shrinking delta until the measured error fits the budget;
4. shift by a final constant to restore the integral (a constant moves both
   endpoints together, so the offsets survive untouched).

Imposing the offsets through the end patch rather than through a linear tail
glued before the Bernstein stage keeps the polynomial degree modest: a tail
thin enough for an L2 budget is a near-jump, and resolving a near-jump with
Bernstein polynomials costs degrees in the millions.  The patch, by contrast,
is exact cubic hardware no matter how thin it gets.  Since the patch width
can fall below the grid spacing, error measurement is done on the exact
piecewise representation (per-cell Gauss quadrature, split at the seam), not
on node samples.

Bernstein sums are taken over the binomial window only.  The basis weight
b_{m,k}(u) is the probability that K ~ Bin(m, u) equals k, so B_m f(u) =
E f(K/m) puts almost all of its weight near k = m*u.  Each sum runs over
k in [m*u - W, m*u + W], clipped to [0, m], with W = 12*sqrt(m*u*(1-u)) + 30.
By Bernstein's inequality the omitted mass is below 2*e^-45, far under one
unit of rounding, so the truncation is exact to rounding at every degree; a
sum costs O(sqrt(m)) per point instead of O(m), and at small m the window
already covers 0..m.  The weights are formed in log space, which is
flat-stable at any degree: log C(m, k) from gammaln (the one reason `pms`
loads scipy.special), plus k*log(u) + (m-k)*log(1-u) with one libm log of u
and one of 1 - u per point.  Points at u = 0 and u = 1 get exactly one-hot
weight rows, so endpoint values and derivatives of the core are exact and
the endpoint residuals of the final result sit at rounding level by
arithmetic, not by tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ApproxBudgetExceeded, BadParams, UnsupportedNorm
from .functions import C1GridFunction, GridFunction, integrate, simpson_weights
from .tbvp import ProblemSpec, full_norm

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)

DEGREE_START = 8
DEGREE_CAP = 32768

# Sorted points per block of a Bernstein sum.  A block sums over the union
# of its points' windows, so larger blocks widen it; smaller ones pay more
# interpreter overhead per point.
_BLOCK = 32


# ----------------------------------------------------------------- Bernstein

def _bern_combine(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * b_{m,k}(u) for u in [0, 1], over the binomial window.

    The points are sorted and taken _BLOCK at a time; each block sums over
    the union of its points' windows k in [m*u - W, m*u + W] with
    W = 12*sqrt(m*u*(1-u)) + 30.  Bernstein's inequality,
    P(|K - m*u| >= t) <= 2*exp(-t^2 / (2*(m*u*(1-u) + t/3))), gives at
    t = W an exponent of at least 45, so the weight left out is below
    2*e^-45 times max|coeffs|: the sum is exact to rounding.

    log(u) and log(1 - u) are taken once per point with libm's `math.log`,
    which makes k*log(u) equal scipy's xlogy(k, u) bit for bit (numpy's log
    is off by an ulp on some u).  A point at u = 0 or u = 1 has no finite
    log; its row is set one-hot, exactly 1 at k = 0 or k = m and 0 elsewhere.
    """
    c = np.asarray(coeffs, dtype=float)
    m = len(c) - 1
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if m == 0:
        return np.full(u.shape, c[0])
    # imported here so that only `pms` pays for loading scipy.special
    from scipy.special import gammaln
    order = np.argsort(u)
    us = u[order]
    # sorted, so the points at 0 are us[:n0] and those at 1 are us[n1:]
    n0 = int(np.searchsorted(us, 0.0, side="right"))
    n1 = int(np.searchsorted(us, 1.0, side="left"))
    inner = us[n0:n1]
    lu = np.zeros(us.shape)
    lv = np.zeros(us.shape)
    lu[n0:n1] = list(map(math.log, inner.tolist()))
    lv[n0:n1] = list(map(math.log, (1.0 - inner).tolist()))
    half = 12.0 * np.sqrt(m * us * (1.0 - us)) + 30.0
    lo = np.clip(np.floor(m * us - half), 0, m).astype(np.intp)
    hi = np.clip(np.ceil(m * us + half), 0, m).astype(np.intp) + 1
    # log-binomial table over only the k some window reaches, from k_lo on:
    # the patch search calls this with one point at a time at full degree
    k_lo = lo.min()
    ks = np.arange(k_lo, hi.max())
    logc = gammaln(m + 1) - gammaln(ks + 1) - gammaln(m - ks + 1)
    cw = c[k_lo:]
    sums = np.empty(us.shape)
    for i in range(0, us.size, _BLOCK):
        blk = slice(i, i + _BLOCK)
        j = slice(lo[blk].min() - k_lo, hi[blk].max() - k_lo)
        logw = logc[j] + ks[j] * lu[blk, None] + (m - ks[j]) * lv[blk, None]
        # one-hot rows: weight 1 at k = 0 for u = 0, at k = m for u = 1
        if i < n0:
            logw[: n0 - i] = np.where(ks[j] == 0, 0.0, -np.inf)
        if n1 < i + _BLOCK:
            logw[max(n1 - i, 0) :] = np.where(ks[j] == m, 0.0, -np.inf)
        sums[blk] = np.exp(logw) @ cw[j]
    out = np.empty(u.shape)
    out[order] = sums
    return out


def _bern_value(c, a, b, x):
    u = np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)
    return _bern_combine(c, u)


def _bern_deriv(c, a, b, x):
    c = np.asarray(c, dtype=float)
    m = len(c) - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m == 0:
        return np.zeros(x.shape)
    d = m * np.diff(c) / (b - a)
    u = np.clip((x - a) / (b - a), 0.0, 1.0)
    return _bern_combine(d, u)


def _bern_integral(c, a, b) -> float:
    c = np.asarray(c, dtype=float)
    return (b - a) * float(np.sum(c)) / len(c)


def _bern_primitive_at(c, a, b, x) -> float:
    """Exact integral of the Bernstein polynomial from a to x."""
    c = np.asarray(c, dtype=float)
    m = len(c) - 1
    q = np.concatenate(([0.0], np.cumsum(c))) * (b - a) / (m + 1)
    u = np.clip((x - a) / (b - a), 0.0, 1.0)
    return float(_bern_combine(q, np.atleast_1d(u))[0])


# ------------------------------------------------------------- cubic Hermite

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


def _hermite_integral(s, b, v0, d0, v1, d1) -> float:
    dt = b - s
    return dt * (v0 + v1) / 2.0 + dt * dt * (d0 - d1) / 12.0


# ---------------------------------------------------------------- main types

@dataclass
class ApproxRequest:
    f: GridFunction
    c1: float
    c2: float
    target_integral: float
    epsilon: float
    p: int = 2


@dataclass
class C1Curve:
    """Exact piecewise form of a result: Bernstein core + cubic end patch.

    The patch width may be far below the grid spacing, so honest error
    measurement and integrals have to go through this object rather than
    through node samples.
    """

    a: float
    b: float
    seam: float
    coeffs: np.ndarray
    pre_shift: float     # subtracted from the core before the patch was built
    final_shift: float   # subtracted from everything at the end
    patch: tuple         # (v0, d0, v1, d1) of the cubic against the core

    def value(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        core = _bern_value(self.coeffs, self.a, self.b, x) - self.pre_shift
        hv, _ = _hermite(self.seam, self.b, *self.patch, np.clip(x, self.seam, self.b))
        return np.where(x < self.seam, core, hv) - self.final_shift

    def d1(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        core = _bern_deriv(self.coeffs, self.a, self.b, x)
        _, hd = _hermite(self.seam, self.b, *self.patch, np.clip(x, self.seam, self.b))
        return np.where(x < self.seam, core, hd)

    def integral(self) -> float:
        core = _bern_primitive_at(self.coeffs, self.a, self.b, self.seam)
        core -= self.pre_shift * (self.seam - self.a)
        patch = _hermite_integral(self.seam, self.b, *self.patch)
        return core + patch - self.final_shift * (self.b - self.a)


@dataclass
class ApproxResult:
    g: C1GridFunction
    achieved_lp_error: float
    integral_residual: float
    endpoint_value_residual: float
    endpoint_deriv_residual: float
    stages: dict
    curve: C1Curve


# ------------------------------------------------------------- measurement

def _gauss(edges: np.ndarray):
    """Gauss points and weights on every cell between consecutive edges, flattened."""
    mid = (edges[1:] + edges[:-1]) / 2.0
    hw = (edges[1:] - edges[:-1]) / 2.0
    pts = mid[:, None] + hw[:, None] * _GAUSS_X[None, :]
    wts = hw[:, None] * _GAUSS_W[None, :]
    return pts.ravel(), wts.ravel()


def _lp_total(parts, p: int) -> float:
    """Combine (weights, diffs) pairs into one Lp norm."""
    acc = 0.0
    for w, d in parts:
        acc += float(np.sum(w * np.abs(d) ** p))
    return acc ** (1.0 / p)


# ------------------------------------------------------------- the pipeline

def approximate_c1(req: ApproxRequest, *, m_start: int = DEGREE_START) -> ApproxResult:
    """Run the pipeline; see the module docstring for the stage layout.

    The Bernstein degree doubles from m_start until the measured Lp distance
    to the target is under half the budget; the patch width shrinks from
    about a sixtieth of the interval (never below six grid cells to start, so
    the patch stays visible to node-level consumers whenever the budget
    allows) until the total measured error fits.  If that fails with the
    degree search stopped at its cap, the search resumes once up to a
    doubled cap before giving up; failure raises ApproxBudgetExceeded with
    the best attempt attached.

    m_start must be DEGREE_START, or a degree that a search for the same
    target at a larger budget reached, capped at DEGREE_CAP.  The distance
    at a degree does not depend on the budget, so every degree below such a
    start missed half the larger budget and would be passed through anyway:
    the result is the same as from DEGREE_START.
    """
    f = req.f
    if req.epsilon <= 0:
        raise BadParams(f"epsilon must be positive, got {req.epsilon}")
    if req.p not in (1, 2):
        raise UnsupportedNorm(f"p must be 1 or 2, got {req.p}")
    p = req.p
    a, b = f.a, f.b
    width = b - a
    xs = f.xs
    eps = float(req.epsilon)

    pts, wts = _gauss(xs)
    f_at_pts = np.interp(pts, xs, f.values)

    def measure_core(m):
        samp = np.interp(np.linspace(a, b, m + 1), xs, f.values)
        diffs = _bern_value(samp, a, b, pts) - f_at_pts
        return samp, diffs

    cap = DEGREE_CAP
    retries = 0
    m = m_start
    coeffs, diffs = measure_core(m)
    core_err = _lp_total([(wts, diffs)], p)
    while True:
        while core_err >= eps / 2.0 and 2 * m <= cap:
            m *= 2
            coeffs, diffs = measure_core(m)
            core_err = _lp_total([(wts, diffs)], p)
        flagged = core_err >= eps / 2.0

        s2 = (_bern_integral(coeffs, a, b) - req.target_integral) / width
        cell_p = np.sum(
            wts.reshape(f.n - 1, 8) * np.abs(diffs.reshape(f.n - 1, 8) - s2) ** p,
            axis=1,
        )

        d1_at_a = (len(coeffs) - 1) * (coeffs[1] - coeffs[0]) / width
        v1 = (float(coeffs[0]) - s2) + req.c1
        d1_end = float(d1_at_a) + req.c2

        delta_raw = min(max(width / 64.0, 6.0 * f.h), width / 3.0)
        delta_min = max(width * 2.0 ** -40, 1e-13)
        chosen = None
        while True:
            # snap a patch of two or more cells onto an even-index node, so
            # composite Simpson pairs on the result never straddle the seam
            if delta_raw >= 2.0 * f.h:
                j = int(np.floor((b - delta_raw - a) / f.h + 1e-12))
                j -= j % 2
                delta = (f.n - 1 - max(j, 0)) * f.h
            else:
                delta = delta_raw
            seam = b - delta
            jc = min(max(int(np.searchsorted(xs, seam, side="right")) - 1, 0), f.n - 2)
            v0 = float(_bern_value(coeffs, a, b, np.array([seam]))[0]) - s2
            d0 = float(_bern_deriv(coeffs, a, b, np.array([seam]))[0])

            part_pts, part_wts = _gauss(np.array([xs[jc], seam]))
            part_diffs = (
                _bern_value(coeffs, a, b, part_pts)
                - s2
                - np.interp(part_pts, xs, f.values)
            )
            inner = xs[(xs > seam) & (xs < b)]
            patch_pts, patch_wts = _gauss(np.concatenate(([seam], inner, [b])))
            hv, _ = _hermite(seam, b, v0, d0, v1, d1_end, patch_pts)
            patch_diffs = hv - np.interp(patch_pts, xs, f.values)

            total = (
                float(np.sum(cell_p[:jc]))
                + float(np.sum(part_wts * np.abs(part_diffs) ** p))
                + float(np.sum(patch_wts * np.abs(patch_diffs) ** p))
            ) ** (1.0 / p)

            if total < eps or delta_raw / 2.0 < delta_min:
                # final constant shift to restore the integral exactly
                i_all = C1Curve(a, b, seam, coeffs, s2, 0.0, (v0, d0, v1, d1_end)).integral()
                r3 = (i_all - req.target_integral) / width
                achieved = _lp_total(
                    [
                        (wts[: jc * 8], diffs[: jc * 8] - s2 - r3),
                        (part_wts, part_diffs - r3),
                        (patch_wts, patch_diffs - r3),
                    ],
                    p,
                )
                if achieved < eps:
                    chosen = (delta, seam, v0, d0, r3, achieved)
                    break
                if delta_raw / 2.0 < delta_min:
                    chosen = None
                    last = (delta, seam, v0, d0, r3, achieved)
                    break
            delta_raw /= 2.0

        if chosen is None and flagged and retries == 0:
            # resume the degree search once, up to a doubled cap
            retries += 1
            cap *= 2
            continue

        delta, seam, v0, d0, r3, achieved = chosen if chosen else last

        curve = C1Curve(a, b, seam, coeffs, s2, r3, (v0, d0, v1, d1_end))
        vals = curve.value(xs)
        ders = curve.d1(xs)
        g = C1GridFunction(a, b, f.n, vals, ders)

        stages = {
            "m": m,
            "delta_hermite": delta,
            "shift_pre": s2,
            "shift_final": r3,
            "degree_flagged": flagged,
            "retries": retries,
        }
        result = ApproxResult(
            g,
            achieved,
            abs(curve.integral() - req.target_integral),
            abs((vals[-1] - vals[0]) - req.c1),
            abs((ders[-1] - ders[0]) - req.c2),
            stages,
            curve,
        )
        if chosen is not None:
            return result
        raise ApproxBudgetExceeded(
            f"could not reach Lp budget {eps} (best {achieved:.3e}, "
            f"degree {m}, patch width {delta:.3e})",
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


def pms_sequence(v: GridFunction, spec: ProblemSpec, eps_schedule, p: int = 2):
    """Smooth a feasible input along a decreasing tolerance schedule.

    Each entry runs the pipeline with the problem's endpoint offsets and
    integral, then checks the objective gap against the advertised bound:
    2KT*eps for p = 1 and M*eps for p = 2, where M is the Cauchy-Schwarz
    factor ||sum_i (2 t_i - v_n - v)||_2 measured on the grid.  Results are
    carried forward whenever an earlier entry already beats a later budget,
    so achieved errors are non-increasing along the schedule.  Each entry's
    degree search starts where the previous entry's own search stopped,
    capped at DEGREE_CAP; see approximate_c1 for why that changes nothing.
    """
    if p not in (1, 2):
        raise UnsupportedNorm(f"p must be 1 or 2, got {p}")
    eps_schedule = [float(e) for e in eps_schedule]
    if any(e <= 0 for e in eps_schedule):
        raise BadParams("tolerance schedule must be positive")
    if any(b <= s for b, s in zip(eps_schedule, eps_schedule[1:])):
        raise BadParams("tolerance schedule must be strictly decreasing")
    if abs(integrate(v) - spec.A) > 1e-8:
        raise BadParams("input is not feasible: integral constraint fails")

    shifts = spec.shifts(v.n)
    base_norm = full_norm(v, shifts, p)
    w_simpson = simpson_weights(v.n, v.h)

    entries = []
    prev: ApproxResult | None = None
    m_start = DEGREE_START
    for eps in eps_schedule:
        req = ApproxRequest(v, spec.c1, spec.c2, spec.A, eps, p)
        try:
            result = approximate_c1(req, m_start=m_start)
        except ApproxBudgetExceeded as exc:
            exc.entries = entries  # expose what already succeeded
            raise
        m_start = min(result.stages["m"], DEGREE_CAP)
        if prev is not None and prev.achieved_lp_error < result.achieved_lp_error:
            if prev.achieved_lp_error < eps:
                result = prev
        vn = GridFunction(v.a, v.b, v.n, result.g.values)
        gap = abs(full_norm(vn, shifts, p) - base_norm)
        if p == 1:
            bound = 2.0 * spec.K * spec.T * eps
        else:
            w = -(vn.values + v.values)[None, :] + 2.0 * shifts.values
            m_factor = np.sqrt(float(np.sum(w_simpson * np.sum(w, axis=0) ** 2)))
            bound = m_factor * eps
        entries.append(PMSEntry(eps, result, gap, bound, gap <= bound + 1e-12))
        prev = result
    return entries
