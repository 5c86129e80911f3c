"""The least-squares input has a closed form: shift mean plus a constant.

Completing the square in sum_i int (t_i - v)^2 shows the only degree of
freedom the constraint can use is a constant offset of the mean, and the
Cauchy-Schwarz equality case makes it unique.  A projected gradient
oracle confirms the formula from random starts.
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

print("\nprojected gradient descent from three random starts")
for seed in (0, 1, 2):
    rep = l2_oracle(ts, spec.A, seed=seed)
    node_gap = np.max(np.abs(rep.v_oracle.values - sol.v.values))
    print(
        f"  seed {seed}: value gap {rep.rel_gap:.2e}, "
        f"node gap {node_gap:.2e}, {rep.iterations} iterations, "
        f"converged={rep.converged}"
    )
