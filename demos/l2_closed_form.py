"""The least-squares input has a closed form: shift mean plus a constant.

Completing the square in sum_i int (t_i - v)^2 shows the only degree of
freedom the constraint can use is a constant offset of the mean, and the
Cauchy-Schwarz equality case makes it unique.  The exact Lagrangian dual,
evaluated straight from the shift sequence, confirms the formula.
"""

import numpy as np

from waveinput import ProblemSpec, catalog, l2_minimizer, l2_ms_check, l2_oracle

spec = ProblemSpec(
    catalog("poly", [0.1, -0.2, 0.15]),
    catalog("cos", [1.1, -0.3]),
    0.8,
    2,
    1,
)
n = 257
ts = spec.shifts(n)

sol = l2_minimizer(ts, spec.A)
print(f"K = {spec.K}, A = {spec.A:+.6f}")
print(f"constant part A1/(2T) = {sol.A1 / (2 * spec.T):+.6f}")
print(f"objective (squared window norm) = {sol.objective:.8f}")

resid = sol.v.values - sol.mean_shift.values
print(f"v minus the shift mean is constant: spread {np.ptp(resid):.3e}")

print(f"smoothness verdict for this instance: {l2_ms_check(sol, spec)}")

rep = l2_oracle(ts, spec.A)
print(f"\nLagrangian dual value {rep.oracle_value:.8f}")
print(f"  relative gap to the objective {rep.rel_gap:.2e}, certified={rep.converged}")
