"""Reconstruct a traveling wave from two endpoint snapshots.

The snapshots f0 = sin(x) and fT = sin(x - T) pin down everything except
the initial velocity.  Feeding the known exact velocity v = -cos(x) back
in must reproduce u(t, x) = sin(x - t) over the whole trapezoid.
"""

import numpy as np

from waveinput import GridFunction, ProblemSpec, catalog, dalembert, extend_input, shift_sequence

T = 1.0
spec = ProblemSpec(catalog("sin", [1.0, 0.0]), catalog("sin", [1.0, -T]), T, 1, 1)

print("derived constants")
print(f"  A  = {spec.A:+.6f}   (integral of v over [-T, T])")
print(f"  c1 = {spec.c1:+.6f}   (v(T) - v(-T) for a continuous extension)")
print(f"  c2 = {spec.c2:+.6f}   (v'(T) - v'(-T) for a C1 extension)")

n = 513
xs = np.linspace(-T, T, n)
v = GridFunction(-T, T, n, -np.cos(xs))
ts = shift_sequence(spec, n)  # the problem on the n-node decision grid

ext = extend_input(v, ts)
lo, hi = spec.window
print(f"\nextension covers [{lo:+.1f}, {hi:+.1f}] with {ext.n} nodes")
print(f"  max |v_ext + cos| over the window: {np.max(np.abs(ext.values + np.cos(ext.xs))):.3e}")

field = dalembert(v, ts)
print("\nfield reconstruction errors against sin(x - t)")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    xq = np.linspace(lo + t, hi - t, 401)
    err = np.max(np.abs(field.u(t, xq) - np.sin(xq - t)))
    print(f"  t = {t:4.2f}   max error {err:.3e}")

# the two boundary snapshots come back exactly
x0 = np.linspace(lo, hi, 401)
xT = np.linspace(lo + T, hi - T, 401)
print(f"\n  u(0, .) vs f0:  {np.max(np.abs(field.u(0.0, x0) - np.sin(x0))):.3e}")
print(f"  u(T, .) vs fT:  {np.max(np.abs(field.u(T, xT) - np.sin(xT - T))):.3e}")
