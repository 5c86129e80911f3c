"""Tests for the constrained C1 approximation pipeline."""

import numpy as np
import pytest

from waveinput import approx
from waveinput.approx import (
    CORNER_CAP,
    BoxCore,
    _hermite,
    approximate_c1,
    pms_sequence,
)
from waveinput.errors import ApproxBudgetExceeded, BadParams, UnsupportedNorm
from waveinput.functions import GridFunction, integrate, simpson_weights
from waveinput.l1 import construct_h, order_envelopes, select_strip
from waveinput.l2 import l2_minimizer
from waveinput.tbvp import shift_sequence
from waveinput.verify import verify_solution

from conftest import feasible_random_v, random_spec, traveling_spec


def grid_of(fn, a, b, n):
    xs = np.linspace(a, b, n)
    return GridFunction(a, b, n, fn(xs))


def assert_integral_within_64_ulps(entries, spec):
    """The integral residual is rounding: 64 ulps of |A| + Simpson integral of |g|."""
    for e in entries:
        g = e.result.g
        scale = abs(spec.A) + float(np.dot(simpson_weights(g.n, g.h), np.abs(g.values)))
        assert e.result.integral_residual <= 64 * np.finfo(float).eps * scale, e.epsilon


class TestIntegralShift:
    """approximate_c1's one constant shift puts the result on the target integral."""

    def test_constant_to_zero(self):
        g = grid_of(lambda x: np.ones_like(x), 0.0, 1.0, 9)
        out = approximate_c1(g, 0.0, 0.0, 0.0, 2.0, p=2).g
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_zero_to_two(self):
        g = grid_of(lambda x: 0 * x, 0.0, 2.0, 9)
        out = approximate_c1(g, 0.0, 0.0, 4.0, 3.0, p=2).g
        assert np.allclose(out.values, 2.0)

    def test_already_on_target(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 129)
        res = approximate_c1(g, 1.0, 0.0, 0.5, 1e-10, p=2)
        assert np.allclose(res.g.values, g.values, atol=1e-14)
        assert res.curve.integral() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [65, 513])
    @pytest.mark.parametrize("p", [1, 2])
    def test_readme_schedule_integral_is_rounding(self, n, p):
        # integral_residual re-integrates the result, apart from the sums that set the shift
        spec, v = readme_minimizer(p, n)
        schedule = [10.0**-k for k in range(1, 9)]
        assert_integral_within_64_ulps(pms_sequence(v, shift_sequence(spec, n), schedule, p), spec)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_problem_integral_is_rounding(self, seed):
        spec = random_spec(np.random.default_rng(seed))
        p = 1 + seed % 2
        v = minimizer(spec, p, 257)
        entries = pms_sequence(v, shift_sequence(spec, 257), [1e-1, 1e-3, 1e-5], p)
        assert_integral_within_64_ulps(entries, spec)


class TestHermitePatch:
    """The cubic end patch keeps value and slope at the seam and lands on the offsets."""

    def test_line_with_matching_slope_unchanged(self):
        xs = np.linspace(0.75, 1.0, 9)
        val, der = _hermite(0.75, 1.0, 3.25, 3.0, 4.0, 3.0, xs)
        assert np.allclose(val, 3 * xs + 1, atol=1e-13)
        assert np.allclose(der, 3.0, atol=1e-13)

    def test_frozen_midpoint_value(self):
        # cubic with H(1)=0, H'(1)=0, H(2)=0, H'(2)=1 gives H(1.5) = -0.125
        val, der = _hermite(1.0, 2.0, 0.0, 0.0, 0.0, 1.0, np.array([1.5, 2.0]))
        assert val[0] == pytest.approx(-0.125, abs=1e-15)
        assert der[1] == pytest.approx(1.0)

    def test_seam_continuity(self):
        rng = np.random.default_rng(5)
        v0, d0, v1, d1 = rng.normal(size=4)
        val, der = _hermite(0.75, 1.0, v0, d0, v1, d1, np.array([0.75, 1.0]))
        assert val == pytest.approx([v0, v1], abs=1e-12)
        assert der == pytest.approx([d0, d1], abs=1e-12)


class TestPipeline:
    def test_zero_request_is_exact(self):
        f = GridFunction(-1.0, 1.0, 65, np.zeros(65))
        res = approximate_c1(f, 0.0, 0.0, 0.0, 0.1, p=2)
        assert res.achieved_lp_error < 1e-14
        assert res.integral_residual < 1e-14
        assert res.endpoint_value_residual == 0.0
        assert res.endpoint_deriv_residual == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_kinked_target_with_offsets(self, p):
        f = grid_of(np.abs, -1.0, 1.0, 257)
        res = approximate_c1(f, 0.3, -0.7, 1.0, 1e-2, p=p)
        assert res.achieved_lp_error < 1e-2
        assert res.integral_residual <= 1e-10
        assert res.endpoint_value_residual <= 1e-10
        assert res.endpoint_deriv_residual <= 1e-10
        # the result is C1: across the kink the slope samples move
        # gradually, while the target's slope jumps by 2 there (the final
        # node pair is excluded: at this budget the end patch that carries
        # the derivative offset is narrower than one cell, so the full
        # offset legitimately shows up between the last two samples)
        assert np.max(np.abs(np.diff(res.g.d1[:-2]))) < 1.0

    def test_tighter_l1_budget(self):
        f = grid_of(np.abs, -1.0, 1.0, 257)
        res = approximate_c1(f, 0.3, -0.7, 1.0, 1e-3, p=1)
        assert res.achieved_lp_error < 1e-3
        assert res.integral_residual <= 1e-10

    def test_curve_matches_node_samples(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        res = approximate_c1(f, 0.2, 0.1, 1.0, 5e-2, p=2)
        vals, ders = res.curve(f.xs)
        assert np.allclose(vals, res.g.values, atol=1e-12)
        assert np.allclose(ders, res.g.d1, atol=1e-12)
        assert res.curve.integral() == pytest.approx(1.0, abs=1e-12)

    def test_seam_is_c1_on_the_curve(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        res = approximate_c1(f, 0.2, 0.1, 1.0, 5e-2, p=2)
        s = res.curve.seam
        left, right = s - 1e-10, s + 1e-10
        (lv,), (ld,) = res.curve(left)
        (rv,), (rd,) = res.curve(right)
        assert abs(lv - rv) < 1e-8
        assert abs(ld - rd) < 1e-6

    def test_unreachable_budget_raises_with_best_effort(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(f, 0.3, -0.7, 1.0, 1e-15, p=2)
        best = exc.value.result
        assert best is not None
        # constraints hold even on the failed attempt
        assert best.integral_residual <= 1e-10
        assert best.endpoint_value_residual <= 1e-10
        assert best.endpoint_deriv_residual <= 1e-10

    def test_rejects_bad_request(self):
        f = grid_of(np.abs, -1.0, 1.0, 65)
        with pytest.raises(BadParams):
            approximate_c1(f, 0.0, 0.0, 1.0, -1.0, p=2)


class TestCornerWidth:
    """The core's piecewise degree is 3; approximate_c1 chooses its corner half-width.

    The width starts from the budget's closed form, capped at CORNER_CAP of
    the interval, and `retries` counts its halvings.
    """

    def test_constant_keeps_the_capped_width(self):
        g = grid_of(lambda x: np.full_like(x, 3.0), 0.0, 1.0, 33)
        res = approximate_c1(g, 0.0, 0.0, 3.0, 1e-12, p=2)
        assert res.stages["m"] == 3
        assert res.stages["delta_corner"] == CORNER_CAP
        assert res.stages["retries"] == 0
        assert np.max(np.abs(res.g.values - 3.0)) < 1e-13

    def test_line_keeps_the_capped_width(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 33)
        res = approximate_c1(g, 1.0, 0.0, 0.5, 1e-10, p=2)
        assert res.stages["m"] == 3
        assert res.stages["delta_corner"] == CORNER_CAP
        assert res.stages["retries"] == 0

    def test_kink_narrows_the_width_below_the_cap(self):
        # the kink's slope jump makes the budget's closed form bite below the cap
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        res = approximate_c1(g, 0.0, 0.0, 0.25, 0.01, p=2)
        assert res.stages["m"] == 3
        assert 2.0 * g.h <= res.stages["delta_corner"] < CORNER_CAP
        assert res.achieved_lp_error < 0.01

    def test_cap_reported_when_unreachable(self):
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(g, 0.0, 0.0, 0.25, 1e-17, p=2)
        # the budget is below 64 ulps of ||Q||_2 = 12^(-1/2), which is reported
        floor = 64.0 * np.finfo(float).eps / np.sqrt(12.0)
        assert f"rounding floor {floor:.3e}" in str(exc.value)
        stages = exc.value.result.stages
        # the width halved down to its floor before giving up
        assert stages["m"] == 3
        assert stages["retries"] >= 1
        assert stages["delta_corner"] < 1e-11
        assert exc.value.result.achieved_lp_error < floor

    def test_unflagged_failure_does_not_retry(self):
        # a line has no corners, so the first width is exact; the end offset
        # then asks for a jump no patch of width >= 1e-13 fits into 1e-9, and
        # a narrower corner cannot help, so nothing is halved
        g = grid_of(lambda x: 2.0 * x, 0.0, 1.0, 257)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(g, 5.0, 0.0, 1.0, 1e-9, p=2)
        stages = exc.value.result.stages
        assert stages["m"] == 3
        assert stages["delta_corner"] == CORNER_CAP
        assert stages["retries"] == 0


class TestSmoothingClassification:
    def test_pseudo_ms_becomes_ms_candidate(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, K1=1, K2=1, T=1.0)
        v = feasible_random_v(spec, 257, rng, compatible=True)
        xs = v.xs
        # break both endpoint relations with Simpson-neutral perturbations
        rough = v.values + 0.05 * (xs**2 - 1.0 / 3.0) + 0.05 * xs**3
        v = v.with_values(rough)
        assert verify_solution(v, shift_sequence(spec, v.n)).classification == "pseudo_MS"

        res = approximate_c1(v, spec.c1, spec.c2, spec.A, 5e-2, p=2)
        smoothed = GridFunction(v.a, v.b, v.n, res.g.values)
        rep = verify_solution(smoothed, shift_sequence(spec, smoothed.n))
        assert rep.classification == "MS_candidate"


class TestPMSSequence:
    def test_zero_problem_all_zero(self):
        from waveinput.functions import catalog
        from waveinput.tbvp import ProblemSpec

        z = catalog("zero", [])
        spec = ProblemSpec(z, z, 1.0, 1, 1)
        v = GridFunction(-1.0, 1.0, 129, np.zeros(129))
        entries = pms_sequence(v, shift_sequence(spec, v.n), [1e-1, 1e-2], p=1)
        for e in entries:
            assert np.allclose(e.result.g.values, 0.0, atol=1e-14)
            assert e.norm_gap < 1e-12
            assert e.satisfied

    @pytest.mark.parametrize("p", [1, 2])
    def test_smooth_input_bounds_hold(self, p):
        spec = traveling_spec()
        xs = np.linspace(-1.0, 1.0, 257)
        v = GridFunction(-1.0, 1.0, 257, -np.cos(xs))
        entries = pms_sequence(v, shift_sequence(spec, v.n), [1e-1, 1e-2, 1e-3], p=p)
        errs = [e.result.achieved_lp_error for e in entries]
        assert errs == sorted(errs, reverse=True) or len(set(errs)) < 3
        for e in entries:
            assert e.result.achieved_lp_error < e.epsilon
            assert e.satisfied, (e.norm_gap, e.bound)

    def test_monotone_achieved_error(self):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, K1=1, K2=2, T=1.0)
        v = feasible_random_v(spec, 257, rng, compatible=False)
        entries = pms_sequence(v, shift_sequence(spec, v.n), [2e-1, 1e-1, 5e-2], p=2)
        errs = [e.result.achieved_lp_error for e in entries]
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_worse_later_result_carries_the_earlier_entry(self, monkeypatch):
        # the second approximate_c1 call returns its result for a ten times looser
        # budget, worse than the first entry, which already meets the second budget
        spec, v = readme_minimizer(1, n=129)
        real, calls = approx.approximate_c1, []

        def worse_later(v, c1, c2, A, eps, p):
            calls.append(eps)
            return real(v, c1, c2, A, eps if len(calls) == 1 else 10 * eps, p)

        monkeypatch.setattr(approx, "approximate_c1", worse_later)
        entries = pms_sequence(v, shift_sequence(spec, v.n), [1e-2, 5e-3], p=1)
        assert calls == [1e-2, 5e-3]
        first, later = (e.result for e in entries)
        assert first.achieved_lp_error < 5e-3 < fresh_result(v, spec, 5e-2, 1).achieved_lp_error
        assert later is first
        errs = [e.result.achieved_lp_error for e in entries]
        assert errs == sorted(errs, reverse=True)

    def test_infeasible_input_rejected(self):
        spec = traveling_spec()
        v = GridFunction(-1.0, 1.0, 129, np.full(129, 5.0))
        with pytest.raises(BadParams):
            pms_sequence(v, shift_sequence(spec, v.n), [1e-1], p=2)

    def test_bad_schedule_rejected(self):
        spec = traveling_spec()
        xs = np.linspace(-1.0, 1.0, 129)
        v = GridFunction(-1.0, 1.0, 129, -np.cos(xs))
        with pytest.raises(BadParams):
            pms_sequence(v, shift_sequence(spec, v.n), [1e-2, 1e-1], p=2)
        # and a norm other than L1 and L2
        with pytest.raises(UnsupportedNorm):
            pms_sequence(v, shift_sequence(spec, v.n), [1e-1], p=3)
        with pytest.raises(UnsupportedNorm):
            approximate_c1(v, spec.c1, spec.c2, spec.A, 1e-1, p=3)


def minimizer(spec, p, n):
    """The L1 strip minimizer or the L2 closed form of a problem."""
    ts = shift_sequence(spec, n)
    if p == 2:
        return l2_minimizer(ts, spec.A).v
    env = order_envelopes(ts)
    return construct_h(env, select_strip(env, spec.A), spec.A).h


def readme_minimizer(p, n=257):
    """The README traveling wave's L1 strip minimizer or L2 closed form."""
    spec = traveling_spec()
    return spec, minimizer(spec, p, n)


def assert_same_result(a, b):
    assert a.stages == b.stages
    assert a.achieved_lp_error == b.achieved_lp_error
    assert a.g.values.tobytes() == b.g.values.tobytes()
    assert a.g.d1.tobytes() == b.g.d1.tobytes()


def fresh_result(v, spec, eps, p):
    return approximate_c1(v, spec.c1, spec.c2, spec.A, eps, p)


class TestWarmStart:
    """pms_sequence carries no search state from one entry to the next.

    Every entry is what a fresh approximate_c1 call at its eps gives, and a
    failing entry raises what the fresh call raises.
    """

    @pytest.mark.parametrize(
        "p, schedule",
        [(1, [1e-1, 1e-2, 1e-3, 1e-4]), (2, [1e-1, 1e-2, 1e-3])],
    )
    def test_entries_match_fresh_searches(self, p, schedule):
        spec, v = readme_minimizer(p)
        entries = pms_sequence(v, shift_sequence(spec, v.n), schedule, p)
        assert [e.epsilon for e in entries] == schedule
        for e in entries:
            assert_same_result(e.result, fresh_result(v, spec, e.epsilon, p))
        # at least one entry halved its corner width
        assert max(e.result.stages["retries"] for e in entries) >= 1

    @pytest.mark.parametrize("p, cap", [(2, 64), (1, 128)])
    def test_cap_and_retry_match_fresh_searches(self, monkeypatch, p, cap):
        # a corner cap of width / cap; the last entry is below the rounding
        # floor, halves its corner width down to the floor and fails
        monkeypatch.setattr(approx, "CORNER_CAP", 1.0 / cap)
        spec, v = readme_minimizer(p)
        schedule = [1e-1, 1e-2, 1e-3, 1e-17]
        with pytest.raises(ApproxBudgetExceeded) as exc:
            pms_sequence(v, shift_sequence(spec, v.n), schedule, p)
        with pytest.raises(ApproxBudgetExceeded) as fresh:
            fresh_result(v, spec, schedule[-1], p)
        assert str(exc.value) == str(fresh.value)
        assert_same_result(exc.value.result, fresh.value.result)
        assert exc.value.result.stages["retries"] >= 1
        entries = exc.value.entries
        assert [e.epsilon for e in entries] == schedule[:-1]
        for e in entries:
            assert e.result.stages["delta_corner"] <= (v.b - v.a) / cap
            assert_same_result(e.result, fresh_result(v, spec, e.epsilon, p))


class TestEveryTolerance:
    """The README schedules reach 1e-8 in both norms.

    Not every problem does: the narrowest end patch (2^-40 of the interval)
    bounds the reach of an L2 input with a large endpoint jump.  Along
    1e-1 ... 1e-8 at n = 257, the L2 closed forms of
    random_spec(default_rng(s)), s = 0..11, all raise ApproxBudgetExceeded
    at 1e-6, 1e-7 or 1e-8.
    """

    @pytest.mark.parametrize("n", [65, 513])
    @pytest.mark.parametrize("p", [1, 2])
    def test_readme_schedule_to_1e_8(self, n, p):
        spec, v = readme_minimizer(p, n)
        schedule = [10.0**-k for k in range(1, 9)]
        entries = pms_sequence(v, shift_sequence(spec, v.n), schedule, p)
        assert [e.epsilon for e in entries] == schedule
        for e in entries:
            res = e.result
            assert res.achieved_lp_error < e.epsilon
            assert e.satisfied, (e.epsilon, e.norm_gap, e.bound)
            assert res.integral_residual <= 1e-10
            assert res.endpoint_value_residual <= 1e-10
            assert res.endpoint_deriv_residual <= 1e-10

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_non_finite_or_non_positive_epsilon_rejected(self, eps):
        spec, v = readme_minimizer(2, 65)
        with pytest.raises(BadParams):
            approximate_c1(v, spec.c1, spec.c2, spec.A, eps, p=2)
        with pytest.raises(BadParams):
            pms_sequence(v, shift_sequence(spec, v.n), [1e-1, eps], p=2)


def random_q(rng, n=65, a=-1.0, b=1.5):
    """Node samples whose Simpson-panel quadratic has slope jumps of order one."""
    xs = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    return GridFunction(a, b, n, np.sin(2.0 * xs) + h * np.cumsum(rng.normal(size=n)))


def quadratic(x):
    return 0.7 - 1.3 * x + 2.1 * x * x


class TestBoxCore:
    """The box average of the Simpson-panel quadratic Q, at any corner half-width."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cells", [0.3, 1.0, 1.5, 2.0, 8.0])
    def test_c1_across_every_breakpoint(self, seed, cells):
        f = random_q(np.random.default_rng(seed))
        core = BoxCore(f, cells * f.h)
        assert np.max(np.abs(core.jumps)) > 0.5
        z = f.xs[2:-1:2]
        bp = np.concatenate((z - core.delta, z + core.delta, z))
        bp = bp[(bp > f.a) & (bp < f.b)]
        left_v, left_d = core(np.nextafter(bp, -np.inf))
        right_v, right_d = core(np.nextafter(bp, np.inf))
        assert np.max(np.abs(left_v - right_v)) <= 1e-13
        assert np.max(np.abs(left_d - right_d)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cells", [2.0, 4.0, 16.0])
    def test_simpson_exact_once_breakpoints_sit_on_even_nodes(self, seed, cells):
        f = random_q(np.random.default_rng(seed))
        core = BoxCore(f, cells * f.h)
        simpson = float(np.dot(simpson_weights(f.n, f.h), core(f.xs)[0]))
        assert core.integral(f.a, f.b) == pytest.approx(simpson, abs=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_curve_integral_is_simpson_of_samples(self, seed):
        f = random_q(np.random.default_rng(seed))
        res = approximate_c1(f, 0.2, -0.3, 0.7, 1.0, p=1)
        assert res.stages["delta_corner"] >= 2.0 * f.h
        assert res.stages["delta_hermite"] >= 2.0 * f.h
        assert res.curve.integral() == pytest.approx(integrate(res.g), abs=1e-14)
        assert res.integral_residual <= 1e-14

    @pytest.mark.parametrize("cells", [1e-6, 0.3, 1.5, 4.0, 8.0])
    def test_quadratic_moves_by_a_constant(self, cells):
        # the box average of q is q + q'' delta^2 / 6, which the first shift removes
        f = grid_of(quadratic, -1.0, 1.5, 65)
        core = BoxCore(f, cells * f.h)
        xs = np.linspace(f.a, f.b, 1001)
        val, slope = core(xs)
        assert np.max(np.abs(val - quadratic(xs) - 4.2 * core.delta**2 / 6.0)) <= 1e-14
        assert np.max(np.abs(slope - (4.2 * xs - 1.3))) <= 1e-13

    def test_quadratic_reproduced_by_the_pipeline(self):
        f = grid_of(quadratic, -1.0, 1.5, 65)
        c1, c2 = quadratic(1.5) - quadratic(-1.0), 4.2 * 2.5
        res = approximate_c1(f, c1, c2, integrate(f), 1e-3, p=2)
        assert res.stages["delta_corner"] == CORNER_CAP * 2.5
        assert np.max(np.abs(res.g.values - f.values)) <= 1e-13
        assert np.max(np.abs(res.g.d1 - (4.2 * f.xs - 1.3))) <= 1e-12


def assert_kernel_bits(core, u):
    """The core at x = a + u (b - a), as one batch, equals each point alone bitwise."""
    x = core.a + np.asarray(u, dtype=float) * (core.xs[-1] - core.a)
    val, slope = core(x)
    alone = np.array([[c[0] for c in core(xi)] for xi in x])
    assert np.array_equal(val, alone[:, 0])
    assert np.array_equal(slope, alone[:, 1])


class TestKernelBits:
    """The box core evaluates every point on its own, whatever the batch around it."""

    @pytest.mark.parametrize(
        "u",
        [
            [0.0],
            [1.0],
            [0.0] * 40,
            [1.0] * 40,
            [0.0] * 40 + [1.0] * 40,
            [0.0] * 44 + [0.5] * 20,
            [0.5] * 20 + [1.0] * 44,
        ],
    )
    def test_endpoint_rows_across_blocks(self, u):
        f = random_q(np.random.default_rng(1))
        for cells in (0.3, 2.0, 8.0):
            assert_kernel_bits(BoxCore(f, cells * f.h), u)
