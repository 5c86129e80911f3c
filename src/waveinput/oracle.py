"""The answer to one problem, built once by ``answer`` for ``solve``, ``pms`` and
both oracles: the minimum-norm input with its L1 strip or L2 closed-form facts.

Both oracles evaluate the exact Lagrangian dual of the discretized problem
min sum_i w_i sum_k |ts_k,i - v_i|^p subject to w.v = A, without touching the
closed forms.  The dual value bounds every feasible objective from below (weak
duality) and equals the optimum (strong duality); it takes no strip choice or
iteration.  L2 reads the shift array; L1 reads the answer's envelope integrals.

L2: with m the pointwise shift mean and SS_i = sum_k (ts_k,i - m_i)^2,
the inner minimum sits at v_i = m_i + lam/(2K), so
g(lam) = lam A + w.(SS - lam m) - lam^2 W/(4K) with W = sum_i w_i, a
concave parabola with its maximum at lam* = 2K(A - w.m)/W.

L1: g(lam) = lam A + sum_i w_i min_v (sum_k |ts_k,i - v| - lam v) is concave and
piecewise linear with kinks at lam = K - 2j, where l1.strip_duals gives it in closed
form from the integrals of each node's shifts sorted descending: the answer's
env.integrals, so the oracle and the solver share that one sort.  The certificate still
checks on its own the primal (full_norm over the raw shifts) and feasibility; the tests
check the sort against a no-sort dual reference and exact rational envelope integrals.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedNorm
from .functions import GridFunction, rounding, simpson_weights, wsum
from .l1 import OrderEnvelopes, construct_h, ms_endpoint_check, order_envelopes, select_strip, strip_duals
from .tbvp import ShiftSequence


@dataclass(frozen=True)
class Answer:
    """The minimizer v, its objective, L1's envelopes env and L2's A1 (each None in the other
    norm), and ``facts``, the (name, value) pairs ``solve`` prints after A, c1 and c2: L2 A1,
    objective, ms_check; L1 strip, objective, boundary_case, degenerate (if so), ms_endpoints."""

    ts: ShiftSequence
    env: OrderEnvelopes | None
    v: GridFunction
    objective: float
    A1: float | None
    facts: tuple


def answer(ts: ShiftSequence, A: float, norm: str) -> Answer:
    """The least ``norm`` ("l1" or "l2") window size of v subject to w.v = A, on ``ts``."""
    if norm not in ("l1", "l2"):
        raise UnsupportedNorm(f"norm must be l1 or l2, got {norm!r}")
    if norm == "l2":
        from .l2 import l2_minimizer, l2_ms_check

        sol = l2_minimizer(ts, A)
        facts = ("A1", sol.A1), ("objective", sol.objective), ("ms_check", l2_ms_check(ts))
        return Answer(ts, None, sol.v, sol.objective, sol.A1, facts)
    env = order_envelopes(ts)
    j = select_strip(env, A)
    sol = construct_h(env, j, A)
    facts = [("strip", j), ("objective", sol.objective), ("boundary_case", sol.boundary_case)]
    if sol.degenerate:
        facts.append(("degenerate", "yes (coinciding envelopes, weight arbitrary)"))
    ends = ms_endpoint_check(env, j, ts.spec.c1) if 1 <= j <= env.K - 1 else "n/a (edge strip)"
    return Answer(ts, env, sol.h, sol.objective, None, (*facts, ("ms_endpoints", ends)))


@dataclass
class OracleReport:
    """The dual value, the primal value and rel_gap = |dual - primal| / primal (0.0 where
    they agree, inf where only the primal is 0); `converged` is `_certify`'s verdict.
    ``oracle`` prints the fields in this order."""

    oracle_value: float
    analytic_value: float
    rel_gap: float
    iterations: int
    converged: bool


def _certify(
    dual: float, ans: Answer, gap_scale: float, w: np.ndarray, A: float, feas_scale: float,
    iterations: int,
) -> OracleReport:
    """Converged when the duality gap is within 64 ulps of gap_scale and the
    answer's v meets w.v = A within 64 ulps of feas_scale (`rounding`)."""
    primal = ans.objective
    converged = (
        abs(primal - dual) <= rounding(gap_scale)
        and abs(wsum(w, ans.v.values) - A) <= rounding(feas_scale)
    )
    rel_gap = abs(dual - primal) / primal if primal else (np.inf if dual else 0.0)
    return OracleReport(dual, primal, rel_gap, iterations, bool(converged))


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
    ans = answer(ts, A, "l2")
    S2 = float(wsum(w, ((np.abs(tv) + np.abs(ans.v.values)) ** 2).sum(axis=0)))
    feas_scale = float(wsum(w, np.abs(m) + abs(ans.A1 / (2.0 * ts.spec.T)))) + abs(A)
    return _certify(dual, ans, S2, w, A, feas_scale, 1)


def l1_oracle(ts: ShiftSequence, A: float) -> OracleReport:
    """The largest strip_duals entry of the answer's envelope integrals against the strip
    construction's primal (full_norm over the raw shifts), within the gap scale
    S = sum_i w_i sum_k |ts_k,i| + K |A|; feasibility within w.|h| + |A|."""
    w = simpson_weights(ts.n, ts.grid.h)
    ans = answer(ts, A, "l1")
    dual = float(np.max(strip_duals(ans.env.integrals, A)))
    S = float(wsum(w, np.abs(ts.values).sum(axis=0))) + ts.K * abs(A)
    feas_scale = wsum(w, np.abs(ans.v.values)) + abs(A)
    return _certify(dual, ans, S, w, A, feas_scale, ts.K + 1)
