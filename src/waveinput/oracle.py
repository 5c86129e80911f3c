"""Brute-force certification of the minimizers by first-order methods.

The oracles re-solve the discretized constrained problems from random
starts without touching the closed forms: a projected gradient descent
for the smooth L2 objective and a projected subgradient method with
diminishing steps for L1.  Their converged values certify the analytic
constructions; the analytic values enter only the final report.

A useful structural fact for L1: once an iterate sits strictly inside the
optimal strip at every node, the subgradient is exactly proportional to
the constraint normal, the projected step vanishes, and the method stalls
at an exact optimum.  The stall detector turns that into convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .functions import GridFunction, simpson_weights
from .l1 import construct_h, order_envelopes, select_strip
from .l2 import l2_minimizer
from .tbvp import ShiftSequence

# Iteration caps of the two descent loops.
L2_ITER_CAP = 10**5
L1_ITER_CAP = 2 * 10**5


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


def l1_oracle(ts: ShiftSequence, A: float, seed: int) -> OracleReport:
    """Projected subgradient descent with diminishing steps, best iterate kept."""
    _check_oracle_grid(ts)
    n = ts.n
    tv = ts.values
    w = simpson_weights(n, ts.grid.h)
    w_dot_w = float(np.dot(w, w))

    def objective(v):
        return float(np.dot(w, np.abs(tv - v[None, :]).sum(axis=0)))

    rng = np.random.default_rng(seed)
    eta0 = max(float(np.ptp(tv)), 1e-3)
    v = _project(rng.normal(scale=0.5 * eta0 + 1e-3, size=n), w, A, w_dot_w)
    best_v = v.copy()
    best = objective(v)
    stall = 0
    converged = False
    it = 0
    for it in range(1, L1_ITER_CAP + 1):
        sub = w * np.sign(v[None, :] - tv).sum(axis=0)
        v = _project(v - (eta0 / np.sqrt(it)) * sub, w, A, w_dot_w)
        val = objective(v)
        if val < best - 1e-12:
            best, best_v, stall = val, v.copy(), 0
        else:
            stall += 1
            if stall >= 2000:
                converged = True
                break
    env = order_envelopes(ts)
    analytic = construct_h(env, select_strip(env, A), A).objective
    return OracleReport(
        1, n, best, analytic, _gap(best, analytic), it, converged,
        ts.grid.with_values(best_v),
    )
