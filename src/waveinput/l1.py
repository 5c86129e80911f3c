"""L1 minimization of the folded input norm over the decision interval.

The objective int sum_i |ts_i(x) - v(x)| dx is pointwise piecewise linear
in v(x) with slope K - 2j between the (j+1)-th and j-th largest shift
values.  Sorting the shifts pointwise gives a descending family of
envelopes a_1 >= ... >= a_K; the integral constraint selects a strip
between consecutive envelopes, and any feasible function pinched inside
that strip attains the minimum (a flat optimum set).  The canonical
minimizer is a convex combination of the two bounding envelopes, or on an
edge strip the outer envelope shifted by a constant.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .functions import GridFunction, rounding, simpson_weights, wsum
from .tbvp import ShiftSequence, full_norm


@dataclass
class OrderEnvelopes:
    """Pointwise descending rearrangement of the shift sequence.

    values[j-1] holds the j-th largest shift at each node (j = 1..K), so
    integrals is non-increasing.  order[j-1] holds the shift row each of
    those values came from: values = take_along_axis(ts.values, order, 0).
    """

    ts: ShiftSequence
    values: np.ndarray
    integrals: np.ndarray
    order: np.ndarray

    @property
    def K(self) -> int:
        return self.values.shape[0]


def order_envelopes(ts: ShiftSequence) -> OrderEnvelopes:
    # shifts hold no -0.0 and equal floats have equal bits, so these values
    # are those of np.sort(ts.values, axis=0)[::-1]
    order = np.argsort(ts.values, axis=0)
    vals = np.take_along_axis(ts.values, order, 0)[::-1]
    return OrderEnvelopes(ts, vals, wsum(simpson_weights(ts.n, ts.grid.h), vals), order[::-1])


def select_strip(env: OrderEnvelopes, A: float) -> int:
    """Index j of the strip [a_{j+1}, a_j] whose integrals bracket A.

    Ties go to the smallest index; j = 0 means A exceeds the top envelope
    integral strictly, j = K means A falls below the bottom one.
    """
    I = env.integrals  # non-increasing, bit for bit: sums of pointwise-ordered rows
    return 0 if A > I[0] else 1 + int(np.count_nonzero(I[1:] > A))


@dataclass
class StripSolution:
    """Canonical minimizer pinched in strip j, plus its certificate data.

    The strip is bounded by env.values[j] below and env.values[j - 1]
    above (the edge strips are unbounded on one side).  boundary_case
    records which branch of the construction produced h.  degenerate
    means the two envelope integrals are equal, so every convex weight is
    feasible and the weight 1/2 was arbitrary.
    """

    j: int
    h: GridFunction
    objective: float
    boundary_case: str
    degenerate: bool = False


def construct_h(env: OrderEnvelopes, j: int, A: float) -> StripSolution:
    """Explicit minimizer for strip j (callers should pass select_strip's j).

    Interior strips take the convex combination of the bounding envelopes
    with weight theta = (A - p2)/(p1 - p2), clamped to [0, 1].  The edge
    strips are the half-spaces v >= a_1 (j = 0) and v <= a_K (j = K), on
    which the objective is linear in v, so the outer envelope shifted by
    the constant (A - p_edge)/(2T) is a minimizer for every A.
    """
    K = env.K
    if not 0 <= j <= K:
        raise BadParams(f"strip index must be in 0..{K}, got {j}")
    grid = env.ts.grid

    if j == 0 or j == K:
        e = min(j, K - 1)
        shift = (A - float(env.integrals[e])) / (2.0 * env.ts.spec.T)
        h = grid.with_values(env.values[e] + shift)
        case = "shifted_top" if j == 0 else "shifted_bottom"
        return StripSolution(j, h, full_norm(h, env.ts, 1), case)

    upper_v = env.values[j - 1]
    lower_v = env.values[j]
    p1 = float(env.integrals[j - 1])
    p2 = float(env.integrals[j])
    if p1 == p2:
        # both envelope integrals equal A; any convex weight is feasible
        theta, case = 0.5, "interior"
    else:
        theta = (A - p2) / (p1 - p2)
        if theta >= 1.0:
            theta, case = 1.0, "on_upper"
        elif theta <= 0.0:
            theta, case = 0.0, "on_lower"
        else:
            case = "interior"
    h = grid.with_values(theta * upper_v + (1.0 - theta) * lower_v)
    return StripSolution(j, h, full_norm(h, env.ts, 1), case, p1 == p2)


def strip_duals(integrals: np.ndarray, A: float) -> np.ndarray:
    """The L1 dual g_j = (K - 2j) A + 2 S_j - S_K at lam = K - 2j, j = 0..K, from the K
    envelope integrals I_1 >= ... >= I_K, with S_j = I_1 + ... + I_j.

    At a node with shifts s_1 >= ... >= s_K and P_j = s_1 + ... + s_j, sum_k |s_k - v|
    - (K - 2j) v is flat on [s_{j+1}, s_j], at (P_j - j v) + ((K - j) v - P_K + P_j)
    - (K - 2j) v = 2 P_j - P_K; the weights turn P_j into S_j.  As g_{j+1} - g_j = 2 (I_{j+1}
    - A), the largest g_j is select_strip's.  A plain prefix sum errs by up to (2j + K) u S
    (u = eps/2, S the oracle's gap scale; past 64 ulps for K > 42), and a second prefix sum of
    each step's exact error (TwoSum) leaves 3u S at any K, beside the integrals' (log2 n + 1) u S.
    """
    K = len(integrals)
    I = np.concatenate(([0.0], integrals))
    S = np.cumsum(I)
    d = S[1:] - S[:-1]
    C = np.cumsum(np.concatenate(([0.0], (S[:-1] - (S[1:] - d)) + (I[1:] - d))))
    return (K - 2.0 * np.arange(K + 1)) * A + (2.0 * S - S[-1]) + (2.0 * C - C[-1])


def strip_lower_bound(env: OrderEnvelopes, j: int, A: float) -> float:
    """Certified objective floor of strip j: strip_duals' entry j, the L1 dual at lam = K - 2j.

    Every feasible v has at least this objective (weak duality); the canonical h
    attains it, as U is linear with slope K - 2j on the strip.
    """
    if not 0 <= j <= env.K:
        raise BadParams(f"lower bound needs 0 <= j <= K, got j={j}")
    return float(strip_duals(env.integrals, A)[j])


def ms_endpoint_check(env: OrderEnvelopes, j: int, c1: float) -> str:
    """Necessary-condition test for a smooth minimizer inside strip j.

    A C1 strip member must jump by c1 between the interval endpoints, so
    c1 has to fit inside [a_{j+1}(T) - a_j(-T), a_j(T) - a_{j+1}(-T)],
    within 64 ulps of the largest of the four end values plus |c1| (the
    rule of l2_ms_check); returns "obstructed" when it cannot, else
    "possible".
    """
    if not 1 <= j <= env.K - 1:
        raise BadParams(f"endpoint check needs an interior strip, got j={j}")
    (up0, up1), (lo0, lo1) = ends = env.values[j - 1 : j + 1, [0, -1]]
    slack = rounding(np.abs(ends).max() + abs(c1))
    return "possible" if lo1 - up0 - slack <= c1 <= up1 - lo0 + slack else "obstructed"
