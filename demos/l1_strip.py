# The L1 objective is piecewise linear in v(x) at each point, so its
# minimizers form a flat strip between two order envelopes.  This walks
# through envelope construction, strip selection, the explicit pinched
# minimizer, and the flatness of the optimum.

import numpy as np

from waveinput import (
    ProblemSpec,
    catalog,
    construct_h,
    full_norm,
    integrate,
    l1_oracle,
    ms_endpoint_check,
    order_envelopes,
    select_strip,
    shift_sequence,
    strip_lower_bound,
)

spec = ProblemSpec(
    catalog("gaussian", [1.2, 0.3, 1.5]),
    catalog("sin", [0.9, 0.4]),
    1.0,
    1,
    2,
)
n = 257
ts = shift_sequence(spec, n)
xs = ts.grid.xs
print(f"K = {spec.K} periods, decision grid n = {n}")

env = order_envelopes(ts)
print("\nenvelope integrals (descending):")
for j, I in enumerate(env.integrals, 1):
    print(f"  a_{j}: {I:+.6f}")
print(f"target integral A = {spec.A:+.6f}")

j = select_strip(env, spec.A)
print(f"\nA lands in strip {j} (between a_{j+1} and a_{j})")

sol = construct_h(env, j, spec.A)
print(f"pinched minimizer: boundary case '{sol.boundary_case}', objective {sol.objective:.8f}")
print(f"certified floor:   {strip_lower_bound(env, j, spec.A):.8f}")
print(f"integral of h:     {integrate(sol.h):+.6f}")

rng = np.random.default_rng(5)
print("\n20 random feasible inputs, objective minus optimum:")
worst = 0.0
for _ in range(20):
    vals = np.zeros(n)
    for _ in range(3):
        w = rng.uniform(0.3, 2.0)
        vals += rng.normal() * np.sin(w * xs) + rng.normal() * np.cos(w * xs)
    g = ts.grid.with_values(vals)
    g = g.with_values(vals + (spec.A - integrate(g)) / (2 * spec.T))
    worst = max(worst, sol.objective - full_norm(g, ts, 1))
print(f"  largest violation of the floor: {worst:.3e}  (never positive)")

# any function pinched inside the same strip ties the optimum exactly;
# build one by pushing h up and down within the strip walls while
# balancing the two half-integrals so the constraint is untouched
from waveinput import simpson_weights

raw = np.sin(3.7 * xs) + 0.5 * np.cos(1.3 * xs)
raw /= np.max(np.abs(raw))
up = np.maximum(raw, 0.0) * (env.values[j - 1] - sol.h.values)
dn = np.minimum(raw, 0.0) * (sol.h.values - env.values[j])
w = simpson_weights(n, ts.grid.h)
P, N = float(np.dot(w, up)), -float(np.dot(w, dn))
t = 0.9 * min(P, N)
sib = ts.grid.with_values(sol.h.values + (t / P) * up + (t / N) * dn)
print("\nflat optimum: a wiggled in-strip function with the same integral")
print(f"  max |sibling - h|:      {np.max(np.abs(sib.values - sol.h.values)):.4f}")
print(f"  integral drift:         {integrate(sib) - spec.A:+.3e}")
print(f"  objective gap vs h:     {full_norm(sib, ts, 1) - sol.objective:+.3e}")

print(f"\nsmooth-minimizer endpoint test: {ms_endpoint_check(env, j, spec.c1)}")

rep = l1_oracle(ts, spec.A)
print("\nexact Lagrangian dual cross-check")
print(f"  dual value     {rep.oracle_value:.8f}")
print(f"  primal value   {rep.analytic_value:.8f}")
print(f"  relative gap   {rep.rel_gap:.2e} over {rep.iterations} breakpoints, "
      f"certified: {rep.converged}")
