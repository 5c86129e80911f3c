"""Closed-form L2 minimization of the folded input norm.

Writing the objective as sum_i int (ts_i - v)^2 and completing the square
around the shift mean shows the minimizer is mean + constant, with the
constant fixed by the integral constraint.  The residual v - mean being
constant is exactly the Cauchy-Schwarz equality case, so the closed form
is the unique continuous minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import GridFunction, fd_derivative, simpson_weights
from .tbvp import ProblemSpec, ShiftSequence, full_norm


@dataclass
class L2Solution:
    v: GridFunction
    A1: float
    mean_shift: GridFunction
    objective: float  # full-window squared L2 norm of the extension


def a1_constant(ts: ShiftSequence, A: float) -> float:
    """Integral defect A - int mean(ts) the constant part of v must carry."""
    w = simpson_weights(ts.n, ts.grid.h)
    mean = ts.values.mean(axis=0)
    return float(A - np.dot(w, mean))


def l2_minimizer(ts: ShiftSequence, A: float) -> L2Solution:
    mean = ts.values.mean(axis=0)
    A1 = a1_constant(ts, A)
    v_vals = mean + A1 / (2.0 * ts.spec.T)
    v = ts.grid.with_values(v_vals)
    return L2Solution(v, A1, ts.grid.with_values(mean), full_norm(v, ts, 2))


def l2_ms_check(
    sol: L2Solution,
    spec: ProblemSpec,
    tol_val: float = 1e-8,
    tol_der: float = 1e-6,
) -> str:
    """Classify the closed-form minimizer as an exact smooth solution or not.

    The extension of v is C2 across the seams iff v matches both endpoint
    relations; the derivative comparison uses one-sided 4th-order stencils,
    hence the looser default tolerance.
    """
    v = sol.v
    d = fd_derivative(v.values, v.h)
    val_gap = abs(v.values[-1] - v.values[0] - spec.c1)
    der_gap = abs(d[-1] - d[0] - spec.c2)
    return "ms_exists" if (val_gap <= tol_val and der_gap <= tol_der) else "pms_only"
