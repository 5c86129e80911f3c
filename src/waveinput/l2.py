"""Closed-form L2 minimization of the folded input norm.

Writing the objective as sum_i int (ts_i - v)^2 and completing the square
around the shift mean shows the minimizer is mean + constant, with the
constant fixed by the integral constraint.  The residual v - mean being
constant is exactly the Cauchy-Schwarz equality case, so the closed form
is the unique continuous minimizer.
"""

from dataclasses import dataclass

import numpy as np

from .functions import GridFunction, rounding, simpson_weights, wsum
from .tbvp import ShiftSequence, full_norm


@dataclass
class L2Solution:
    v: GridFunction
    A1: float  # integral defect A - int mean(ts) the constant part of v carries
    mean_shift: GridFunction
    objective: float  # full-window squared L2 norm of the extension


def l2_minimizer(ts: ShiftSequence, A: float) -> L2Solution:
    mean = ts.values.mean(axis=0)
    A1 = float(A - wsum(simpson_weights(ts.n, ts.grid.h), mean))
    v_vals = mean + A1 / (2.0 * ts.spec.T)
    v = ts.grid.with_values(v_vals)
    return L2Solution(v, A1, ts.grid.with_values(mean), full_norm(v, ts, 2))


def l2_ms_check(ts: ShiftSequence) -> str:
    """Classify the closed-form minimizer on ``ts`` as an exact smooth solution or not.

    The extension of v is C2 across the seams iff v matches both endpoint
    relations.  v is the shift mean plus a constant, so its offsets are
    v(T) - v(-T) = mean_k(ts_k(T) - ts_k(-T)) and v'(T) - v'(-T) =
    mean_k(ts_k'(T) - ts_k'(-T)), read exactly off the shift array.  Each
    must equal c1 (c2) within 64 ulps of mean_k|ts_k(T) - ts_k(-T)| + |c1|
    (likewise for the slopes).
    """
    for ends, c in ((ts.values[:, [0, -1]], ts.spec.c1), (ts.d_ends, ts.spec.c2)):
        diff = ends[:, 1] - ends[:, 0]
        if abs(diff.mean() - c) > rounding(np.abs(diff).mean() + abs(c)):
            return "pms_only"
    return "ms_exists"
