# A pre-minimum sequence: smooth the L1 strip minimizer under a shrinking
# tolerance schedule and watch the objective gap close at the advertised
# linear rate.

from waveinput import ProblemSpec, answer, catalog, pms_sequence, shift_sequence

T = 1.0
spec = ProblemSpec(catalog("sin", [1.0, 0.0]), catalog("sin", [1.0, -T]), T, 1, 1)
strip = answer(shift_sequence(spec, 257), spec.A, "l1")
h = strip.v

print(f"strip minimizer objective (window L1 size): {strip.objective:.8f}")
print(f"linear gap bound per unit eps: 2KT = {2 * spec.K * spec.T:.1f}")

print(f"\n{'eps':>8} {'achieved':>12} {'norm gap':>12} {'bound':>12} ok")
for e in pms_sequence(h, strip.ts, [1e-1, 1e-2, 1e-3, 1e-4], p=1):
    print(
        f"{e.epsilon:8.0e} {e.result.achieved_lp_error:12.3e} "
        f"{e.norm_gap:12.3e} {e.bound:12.3e} {'yes' if e.satisfied else 'NO'}"
    )

print("\neach entry is C1 with the problem's endpoint offsets:")
for i, e in enumerate(pms_sequence(h, strip.ts, [1e-2], p=1), 1):
    g = e.result.g
    print(f"  g(b)-g(a) = {g.values[-1] - g.values[0]:+.10f}   (c1 = {spec.c1:+.10f})")
    print(f"  g'(b)-g'(a) = {g.d1[-1] - g.d1[0]:+.10f}   (c2 = {spec.c2:+.10f})")
