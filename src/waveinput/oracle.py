"""Independent certification of the minimizers.

Both oracles evaluate the exact Lagrangian dual of the discretized problem
min sum_i w_i sum_k |ts_k,i - v_i|^p subject to w.v = A straight from the
shift array, without touching the closed forms.  The dual value bounds
every feasible objective from below (weak duality) and equals the optimum
(strong duality); it takes no sort, strip choice or iteration.  The
analytic values enter only the final report.

L2: with m the pointwise shift mean and SS_i = sum_k (ts_k,i - m_i)^2,
the inner minimum sits at v_i = m_i + lam/(2K), so
g(lam) = lam A + w.(SS - lam m) - lam^2 W/(4K) with W = sum_i w_i, a
concave parabola with its maximum at lam* = 2K(A - w.m)/W.

L1: g(lam) = lam A + sum_i w_i min_v (sum_k |ts_k,i - v| - lam v): the inner
function is piecewise linear with slopes K - 2j, so g is concave and
piecewise linear with its kinks at lam in {K, K-2, ..., -K}, and at each
of them the inner minimum sits on a shift value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import GridFunction, rounding, simpson_weights, wsum
from .l1 import construct_h, order_envelopes, select_strip
from .l2 import l2_minimizer
from .tbvp import ShiftSequence


@dataclass
class OracleReport:
    """The dual value, the primal value and rel_gap = |dual - primal| / primal (0.0 where
    they agree, inf where only the primal is 0); `converged` is `_certify`'s verdict."""

    oracle_value: float
    analytic_value: float
    rel_gap: float
    iterations: int
    converged: bool
    v_oracle: GridFunction


def _certify(
    dual: float, primal: float, gap_scale: float, v: GridFunction, w: np.ndarray, A: float,
    feas_scale: float, iterations: int,
) -> OracleReport:
    """Converged when the duality gap is within 64 ulps of gap_scale and the
    primal input v meets w.v = A within 64 ulps of feas_scale (`rounding`)."""
    converged = (
        abs(primal - dual) <= rounding(gap_scale)
        and abs(wsum(w, v.values) - A) <= rounding(feas_scale)
    )
    rel_gap = abs(dual - primal) / primal if primal else (np.inf if dual else 0.0)
    return OracleReport(dual, primal, rel_gap, iterations, bool(converged), v)


def l2_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """Exact dual value against the closed form's primal value.

    The gap scale is S2 = sum_i w_i sum_k (|ts_k,i| + |v_i|)^2, and the
    constraint scale w.(|m| + |c|) + |A| with c = A1/(2T) the closed form's
    constant: v rounds as the sum m + c, so w.|v| + |A| is too small a
    scale where the two cancel.
    """
    tv = ts.values
    K = ts.K
    w = simpson_weights(ts.n, ts.grid.h)
    W = float(w.sum())
    m = tv.mean(axis=0)
    ss = ((tv - m) ** 2).sum(axis=0)
    lam = 2.0 * K * (A - float(wsum(w, m))) / W
    dual = lam * A + float(wsum(w, ss - lam * m)) - lam * lam * W / (4.0 * K)
    sol = l2_minimizer(ts, A)
    v = sol.v.values
    S2 = float(wsum(w, ((np.abs(tv) + np.abs(v)) ** 2).sum(axis=0)))
    c = sol.A1 / (2.0 * ts.spec.T)
    feas_scale = float(wsum(w, np.abs(m) + abs(c))) + abs(A)
    return _certify(dual, sol.objective, S2, sol.v, w, A, feas_scale, 1)


def l1_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """Exact dual value against the strip construction's primal value.

    The gap scale is S = sum_i w_i sum_k |ts_k,i| + K |A|, and the
    constraint scale w.|h| + |A|.
    """
    tv = ts.values
    K = ts.K
    w = simpson_weights(ts.n, ts.grid.h)
    lam = K - 2.0 * np.arange(K + 1)
    # inner[j, i]: the least over m of the term at v = ts_m,i, one m at a time (O(K n) memory)
    inner = np.full((K + 1, ts.n), np.inf)
    for m in range(K):
        at_shift = np.abs(tv - tv[m]).sum(axis=0)  # the pointwise objective at v = ts_m,i
        np.minimum(inner, at_shift - lam[:, None] * tv[m], out=inner)
    dual = float(np.max(lam * A + wsum(w, inner)))
    env = order_envelopes(ts)
    sol = construct_h(env, select_strip(env, A), A)
    S = float(wsum(w, np.abs(tv).sum(axis=0))) + K * abs(A)
    feas_scale = wsum(w, np.abs(sol.h.values)) + abs(A)
    return _certify(dual, sol.objective, S, sol.h, w, A, feas_scale, K + 1)
