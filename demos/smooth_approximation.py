# Turn a kinked minimizer into a C1 input without breaking any of the
# three hard constraints: prescribed integral, prescribed endpoint value
# offset, prescribed endpoint slope offset.  The budget eps only governs
# how far the smooth version may drift in Lp.

import numpy as np

from waveinput import GridFunction, approximate_c1

n = 513
xs = np.linspace(-1.0, 1.0, n)
f = GridFunction(-1.0, 1.0, n, np.abs(xs))
c1, c2, target = 0.3, -0.7, 1.0

print("target: |x| on [-1, 1] with offsets c1 = 0.3, c2 = -0.7, integral 1")
print(f"{'eps':>8} {'achieved':>12} {'integral res':>14} {'value res':>12} {'slope res':>12} {'corner':>10} {'patch':>10} {'knots':>6}")
for eps in (1e-1, 1e-2, 1e-3):
    res = approximate_c1(f, c1, c2, target, eps, p=2)
    print(
        f"{eps:8.0e} {res.achieved_lp_error:12.3e} {res.integral_residual:14.2e} "
        f"{res.endpoint_value_residual:12.2e} {res.endpoint_deriv_residual:12.2e} "
        f"{res.stages['delta_corner']:10.2e} {res.stages['delta_hermite']:10.2e} {res.curve.knots.size:6d}"
    )

res = approximate_c1(f, c1, c2, target, 1e-2, p=2)
g = res.g
print("\nendpoint bookkeeping at eps = 1e-2:")
print(f"  g(b) - g(a) = {g.values[-1] - g.values[0]:+.12f}  (want {c1})")
print(f"  g'(b) - g'(a) = {g.d1[-1] - g.d1[0]:+.12f}  (want {c2})")
print(f"  curve integral = {res.curve.integral():.12f}  (want {target})")

# slope samples across the former kink move gradually now
mid = n // 2
print("\nslopes through x = 0 (the target jumps from -1 to +1 there):")
for i in range(mid - 3, mid + 4):
    print(f"  x = {g.xs[i]:+7.4f}   g' = {g.d1[i]:+8.4f}")
