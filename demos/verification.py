"""Classify candidate inputs by reconstructing the field and checking residuals.

Three candidates against the same problem: the exact smooth input, a
feasible but kinked one whose endpoint slopes break v'(T) - v'(-T) = c2,
and one that violates the integral constraint outright.  Ends with the
residual convergence table that backs the interior stencil.
"""

import numpy as np

from waveinput import (
    GridFunction,
    ProblemSpec,
    catalog,
    integrate,
    sample,
    shift_sequence,
    verify_solution,
)

T = 1.0
spec = ProblemSpec(catalog("sin", [1.0, 0.0]), catalog("sin", [1.0, -T]), T, 1, 1)
n = 513
xs = np.linspace(-T, T, n)
ts = shift_sequence(spec, n)


def show(title, rep):
    print(f"\n{title}")
    print(f"  classification        {rep.classification}")
    print(f"  feasibility residual  {rep.feasibility_residual:.3e}")
    print(f"  pde residual (budget) {rep.pde_residual_max:.3e} ({rep.pde_budget:.3e})")
    print(f"  boundary residual t=T {rep.boundaryT_max:.3e}")
    print(f"  endpoint residuals    {rep.endpoint_value_residual:.3e} / {rep.endpoint_deriv_residual:.3e}")
    if rep.kink_cells:
        print(f"  kinks near            {', '.join(f'{x:+.3f}' for x in rep.kink_cells)}")


exact = GridFunction(-T, T, n, -np.cos(xs))
show("exact input -cos(x)", verify_solution(exact, ts))

rough = GridFunction(-T, T, n, -np.cos(xs) + 0.05 * np.abs(np.sin(2.0 * xs)))
rough = rough.with_values(rough.values + (spec.A - integrate(rough)) / (2 * T))
show("feasible but kinked perturbation", verify_solution(rough, ts))

bad = GridFunction(-T, T, n, -np.cos(xs) + 0.1)
show("integral constraint violated", verify_solution(bad, ts))

print("\ninterior residual convergence (exact input, halving h):")
smooth = catalog("cos", [1.0, np.pi])  # -cos(x) as a function, sampled on each grid
prev = None
for m in (129, 257, 513):
    r = verify_solution(sample(smooth, -T, T, m), shift_sequence(spec, m)).pde_residual_max
    ratio = "" if prev is None else f"   ratio {prev / r:.2f}"
    print(f"  n = {m:4d}   residual {r:.3e}{ratio}")
    prev = r
