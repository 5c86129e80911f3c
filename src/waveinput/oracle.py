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

from .errors import GridError
from .functions import GridFunction, simpson_weights
from .l1 import construct_h, order_envelopes, select_strip
from .l2 import l2_minimizer
from .tbvp import ShiftSequence


@dataclass
class OracleReport:
    oracle_value: float
    analytic_value: float
    rel_gap: float
    iterations: int
    converged: bool
    v_oracle: GridFunction


def _check_oracle_grid(ts: ShiftSequence) -> None:
    if ts.n < 65 or ts.n % 2 == 0:
        raise GridError(f"oracle grid must be odd >= 65, got {ts.n}")


def _certify(
    dual: float,
    primal: float,
    gap_scale: float,
    v: GridFunction,
    w: np.ndarray,
    A: float,
    feas_scale: float,
    iterations: int,
) -> OracleReport:
    """Converged when the duality gap is within 64 ulps of gap_scale and the
    primal input v meets w.v = A within 64 ulps of feas_scale."""
    eps = np.finfo(float).eps
    converged = (
        abs(primal - dual) <= 64 * eps * gap_scale
        and abs(np.dot(w, v.values) - A) <= 64 * eps * feas_scale
    )
    gap = abs(dual - primal) / max(primal, 1e-12)
    return OracleReport(dual, primal, gap, iterations, bool(converged), v)


def l2_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """Exact dual value against the closed form's primal value.

    The gap scale is S2 = sum_i w_i sum_k (|ts_k,i| + |v_i|)^2, and the
    constraint scale w.(|m| + |c|) + |A| with c = A1/(2T) the closed form's
    constant: v rounds as the sum m + c, so w.|v| + |A| is too small a
    scale where the two cancel.
    """
    _check_oracle_grid(ts)
    tv = ts.values
    K = ts.K
    w = simpson_weights(ts.n, ts.grid.h)
    W = float(w.sum())
    m = tv.mean(axis=0)
    ss = ((tv - m) ** 2).sum(axis=0)
    lam = 2.0 * K * (A - float(np.dot(w, m))) / W
    dual = lam * A + float(np.dot(w, ss - lam * m)) - lam * lam * W / (4.0 * K)
    sol = l2_minimizer(ts, A)
    v = sol.v.values
    S2 = float(np.dot(w, ((np.abs(tv) + np.abs(v)) ** 2).sum(axis=0)))
    c = sol.A1 / (2.0 * ts.spec.T)
    feas_scale = float(np.dot(w, np.abs(m) + abs(c))) + abs(A)
    return _certify(dual, sol.objective, S2, sol.v, w, A, feas_scale, 1)


def l1_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """Exact dual value against the strip construction's primal value.

    The gap scale is S = sum_i w_i sum_k |ts_k,i| + K |A|, and the
    constraint scale w.|h| + |A|.
    """
    _check_oracle_grid(ts)
    tv = ts.values
    K = ts.K
    w = simpson_weights(ts.n, ts.grid.h)
    lam = K - 2.0 * np.arange(K + 1)
    # at_shift[m, i]: the pointwise objective at v = ts_m,i
    at_shift =np.abs(tv[:, None, :] - tv[None, :, :]).sum(axis=0)
    inner = (at_shift[None] - lam[:, None, None] * tv[None]).min(axis=1)
    dual = float(np.max(lam * A + inner @ w))
    env = order_envelopes(ts)
    sol = construct_h(env, select_strip(env, A), A)
    S = float(np.dot(w, np.abs(tv).sum(axis=0))) + K * abs(A)
    feas_scale = np.dot(w, np.abs(sol.h.values)) + abs(A)
    return _certify(dual, sol.objective, S, sol.h, w, A, feas_scale, K + 1)
