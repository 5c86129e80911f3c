"""Independent certification of the minimizers.

The oracles re-solve the discretized constrained problems without
touching the closed forms.  L2 runs a projected gradient descent from a
random start.  L1 evaluates the exact Lagrangian dual
g(lam) = lam A + sum_i w_i min_v (sum_k |ts_k,i - v| - lam v): the inner
function is piecewise linear with slopes K - 2j, so g is concave and
piecewise linear with its kinks at lam in {K, K-2, ..., -K}, and at each
of them the inner minimum sits on a shift value.  Its maximum bounds
every feasible objective from below (weak duality) and equals the optimum
(LP strong duality); it takes no sort, strip choice or iteration.  The
analytic values enter only the final report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .functions import GridFunction, simpson_weights
from .l1 import construct_h, order_envelopes, select_strip
from .l2 import l2_minimizer
from .tbvp import ShiftSequence

# Iteration cap of the L2 descent loop.
L2_ITER_CAP = 10**5


@dataclass
class OracleReport:
    p: int
    n: int
    oracle_value: float
    analytic_value: float
    rel_gap: float
    iterations: int
    converged: bool
    v_oracle: GridFunction


def _check_oracle_grid(ts: ShiftSequence) -> None:
    if ts.n < 65 or ts.n % 2 == 0:
        raise GridError(f"oracle grid must be odd >= 65, got {ts.n}")


def _project(v: np.ndarray, w: np.ndarray, A: float, w_dot_w: float) -> np.ndarray:
    return v - (np.dot(w, v) - A) / w_dot_w * w


def _gap(oracle_value: float, analytic_value: float) -> float:
    return abs(oracle_value - analytic_value) / max(analytic_value, 1e-12)


def l2_oracle(ts: ShiftSequence, A: float, seed: int) -> OracleReport:
    """Projected gradient descent on the Simpson-weighted least squares."""
    _check_oracle_grid(ts)
    n = ts.n
    tv = ts.values
    K = ts.K
    w = simpson_weights(n, ts.grid.h)
    w_dot_w = float(np.dot(w, w))
    col_sum = tv.sum(axis=0)
    sq_term = float(np.dot(w, (tv * tv).sum(axis=0)))

    def objective(v):
        return float(K * np.dot(w, v * v) - 2 * np.dot(w, v * col_sum) + sq_term)

    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(tv))))
    v = _project(rng.normal(scale=scale, size=n), w, A, w_dot_w)
    step = 1.0 / (2.0 * K * float(np.max(w)))
    history = [objective(v)]
    converged = False
    it = 0
    for it in range(1, L2_ITER_CAP + 1):
        grad = 2.0 * w * (K * v - col_sum)
        v = _project(v - step * grad, w, A, w_dot_w)
        history.append(objective(v))
        if it >= 100 and history[-101] - history[-1] < 1e-12:
            converged = True
            break
    value = history[-1]
    analytic = l2_minimizer(ts, A).objective
    return OracleReport(
        2, n, value, analytic, _gap(value, analytic), it, converged,
        ts.grid.with_values(v),
    )


def l1_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """Exact dual value against the strip construction's primal value.

    Converged when the duality gap is within 64 ulps of the problem's
    scale S = sum_i w_i sum_k |ts_k,i| + K |A| and the primal input meets
    the constraint to 64 ulps of its own scale.
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
    eps = np.finfo(float).eps
    S = float(np.dot(w, np.abs(tv).sum(axis=0))) + K * abs(A)
    h = sol.h.values
    converged = (
        abs(sol.objective - dual) <= 64 * eps * S
        and abs(np.dot(w, h) - A) <= 64 * eps * (np.dot(w, np.abs(h)) + abs(A))
    )
    return OracleReport(
        1, ts.n, dual, sol.objective, _gap(dual, sol.objective), K + 1,
        bool(converged), sol.h,
    )
