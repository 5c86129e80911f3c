"""Tests for the constrained C1 approximation pipeline."""

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from waveinput.approx import (
    ApproxRequest,
    _bern_combine,
    approximate_c1,
    bernstein,
    choose_bernstein_degree,
    hermite_patch,
    integral_shift,
    linear_tail,
    pms_sequence,
)
from waveinput.errors import ApproxBudgetExceeded, BadDelta, BadParams
from waveinput.functions import C1GridFunction, GridFunction, integrate
from waveinput.tbvp import full_norm
from waveinput.verify import verify_solution

from conftest import feasible_random_v, random_spec, traveling_spec


def grid_of(fn, a, b, n):
    xs = np.linspace(a, b, n)
    return GridFunction(a, b, n, fn(xs))


def dense_bernstein(c, u):
    """Reference sum over every basis weight b_{m,k}(u), k = 0..m."""
    m = len(c) - 1
    k = np.arange(m + 1)
    uc = np.asarray(u, dtype=float)[:, None]
    logw = (
        gammaln(m + 1)
        - gammaln(k + 1)
        - gammaln(m - k + 1)
        + xlogy(k, uc)
        + xlogy(m - k, 1.0 - uc)
    )
    return np.exp(logw) @ c


class TestLinearTail:
    def test_zero_stays_zero(self):
        f = grid_of(lambda x: 0 * x, 0.0, 1.0, 9)
        g = linear_tail(f, 0.0, 0.25)
        assert np.all(g.values == 0.0)

    def test_ramp_to_offset(self):
        f = grid_of(lambda x: 0 * x, 0.0, 1.0, 9)
        g = linear_tail(f, 1.0, 0.5)
        # 0 on [0, 0.5], then the line 2(x - 0.5)
        assert np.allclose(g.values[:5], 0.0)
        assert g.values[6] == pytest.approx(0.5)
        assert g.values[-1] == pytest.approx(1.0)

    def test_l1_cost_bound(self):
        f = grid_of(np.cos, 0.0, 1.0, 257)
        delta = 0.1
        g = linear_tail(f, 0.8, delta)
        m1 = max(np.max(np.abs(f.values)), abs(f.values[0] + 0.8))
        diff = GridFunction(0.0, 1.0, 257, np.abs(g.values - f.values))
        assert integrate(diff) <= 2 * m1 * delta + 1e-12

    def test_bad_delta(self):
        f = grid_of(np.cos, 0.0, 1.0, 9)
        with pytest.raises(BadDelta):
            linear_tail(f, 0.0, 1.0)
        with pytest.raises(BadDelta):
            linear_tail(f, 0.0, 0.0)


class TestIntegralShift:
    def test_constant_to_zero(self):
        g = grid_of(lambda x: np.ones_like(x), 0.0, 1.0, 9)
        out = integral_shift(g, 0.0)
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_zero_to_two(self):
        g = grid_of(lambda x: 0 * x, 0.0, 2.0, 9)
        out = integral_shift(g, 4.0)
        assert np.allclose(out.values, 2.0)

    def test_already_on_target(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 129)
        out = integral_shift(g, 0.5)
        assert np.allclose(out.values, g.values, atol=1e-14)
        assert integrate(out) == pytest.approx(0.5, abs=1e-12)


class TestBernstein:
    def test_partition_of_unity(self):
        g = grid_of(lambda x: np.full_like(x, 0.7), -1.0, 1.0, 65)
        for m in (1, 8, 513):
            out = bernstein(g, m)
            assert np.allclose(out.values, 0.7, atol=1e-13)
            assert np.allclose(out.d1, 0.0, atol=1e-12)

    def test_linear_reproduction(self):
        g = grid_of(lambda x: 2 * x - 0.3, 0.0, 1.0, 65)
        out = bernstein(g, 64)
        assert np.allclose(out.values, g.values, atol=1e-12)
        assert np.allclose(out.d1, 2.0, atol=1e-11)

    def test_degree_two_on_square(self):
        g = grid_of(lambda x: x**2, 0.0, 1.0, 5)
        out = bernstein(g, 2)
        # B2(x^2) = x^2 + x(1-x)/2, so the midpoint value is 0.375
        assert out.values[2] == pytest.approx(0.375, abs=1e-15)

    def test_endpoint_fidelity_exact(self):
        rng = np.random.default_rng(3)
        g = GridFunction(-2.0, 1.0, 33, rng.normal(size=33))
        for m in (8, 509, 2048, 32768):
            out = bernstein(g, m)
            assert out.values[0] == g.values[0]
            assert out.values[-1] == g.values[-1]

    @pytest.mark.parametrize("m", [1, 8, 509, 4096, 32768])
    def test_combine_matches_dense_reference(self, m):
        rng = np.random.default_rng(m)
        c = rng.normal(size=m + 1)
        u = rng.permutation(np.concatenate(([0.0, 1.0, 1e-12, 1.0 - 1e-12], rng.random(60))))
        got = _bern_combine(c, u)
        assert np.max(np.abs(got - dense_bernstein(c, u))) <= 1e-13 * np.max(np.abs(c))

    @pytest.mark.parametrize("m", [1, 8, 509, 4096, 32768])
    def test_derivative_matches_dense_reference(self, m):
        rng = np.random.default_rng(m)
        g = GridFunction(-2.0, 1.0, 65, rng.normal(size=65))
        c = np.interp(np.linspace(g.a, g.b, m + 1), g.xs, g.values)
        d = m * np.diff(c) / (g.b - g.a)
        want = dense_bernstein(d, (g.xs - g.a) / (g.b - g.a))
        got = bernstein(g, m).d1
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(d))

    def test_bad_degree(self):
        g = grid_of(np.cos, 0.0, 1.0, 9)
        with pytest.raises(BadParams):
            bernstein(g, 0)


class TestDegreeChoice:
    def test_constant_first_candidate(self):
        g = grid_of(lambda x: np.full_like(x, 3.0), 0.0, 1.0, 33)
        choice = choose_bernstein_degree(g, 1e-12)
        assert choice.m == 8
        assert choice.satisfied
        assert choice.max_node_error < 1e-13

    def test_linear_first_candidate(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 33)
        choice = choose_bernstein_degree(g, 1e-10)
        assert choice.m == 8
        assert choice.satisfied

    def test_kink_needs_finite_degree(self):
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        choice = choose_bernstein_degree(g, 0.01)
        assert choice.satisfied
        assert choice.max_node_error < 0.01
        out = bernstein(g, choice.m)
        assert np.max(np.abs(out.values - g.values)) < 0.01

    def test_cap_reported_when_unreachable(self):
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        choice = choose_bernstein_degree(g, 1e-9, m_max=64)
        assert not choice.satisfied
        assert choice.m == 64
        assert choice.max_node_error > 1e-9


class TestHermitePatch:
    def test_line_with_matching_slope_unchanged(self):
        xs = np.linspace(0.0, 1.0, 33)
        g4 = C1GridFunction(0.0, 1.0, 33, 3 * xs + 1, np.full(33, 3.0))
        out = hermite_patch(g4, 0.0, 0.25)
        assert np.allclose(out.values, g4.values, atol=1e-13)
        assert np.allclose(out.d1, 3.0, atol=1e-13)

    def test_frozen_midpoint_value(self):
        xs = np.linspace(0.0, 2.0, 9)
        g4 = C1GridFunction(0.0, 2.0, 9, np.zeros(9), np.zeros(9))
        out = hermite_patch(g4, 1.0, 1.0)
        # cubic with H(1)=0, H'(1)=0, H(2)=0, H'(2)=1 gives H(1.5) = -0.125
        i = np.argmin(np.abs(xs - 1.5))
        assert out.values[i] == pytest.approx(-0.125, abs=1e-15)
        assert out.d1[-1] == pytest.approx(1.0)

    def test_seam_continuity(self):
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(size=65)) * 0.1
        ders = np.gradient(vals, 1.0 / 64)
        g4 = C1GridFunction(0.0, 1.0, 65, vals, ders)
        out = hermite_patch(g4, 0.4, 0.25)
        s = 1.0 - 0.25
        i = np.argmin(np.abs(g4.xs - s))
        assert out.values[i] == pytest.approx(float(np.interp(s, g4.xs, vals)), abs=1e-12)
        assert out.d1[i] == pytest.approx(float(np.interp(s, g4.xs, ders)), abs=1e-12)

    def test_rejects_plain_grid(self):
        g = grid_of(np.cos, 0.0, 1.0, 9)
        with pytest.raises(BadParams):
            hermite_patch(g, 0.0, 0.2)

    def test_bad_delta(self):
        g4 = C1GridFunction(0.0, 1.0, 9, np.zeros(9), np.zeros(9))
        with pytest.raises(BadDelta):
            hermite_patch(g4, 0.0, 1.0)


class TestPipeline:
    def test_zero_request_is_exact(self):
        f = GridFunction(-1.0, 1.0, 65, np.zeros(65))
        res = approximate_c1(ApproxRequest(f, 0.0, 0.0, 0.0, 0.1, p=2))
        assert res.achieved_lp_error < 1e-14
        assert res.integral_residual < 1e-14
        assert res.endpoint_value_residual == 0.0
        assert res.endpoint_deriv_residual == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_kinked_target_with_offsets(self, p):
        f = grid_of(np.abs, -1.0, 1.0, 257)
        res = approximate_c1(ApproxRequest(f, 0.3, -0.7, 1.0, 1e-2, p=p))
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
        res = approximate_c1(ApproxRequest(f, 0.3, -0.7, 1.0, 1e-3, p=1))
        assert res.achieved_lp_error < 1e-3
        assert res.integral_residual <= 1e-10

    def test_curve_matches_node_samples(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        res = approximate_c1(ApproxRequest(f, 0.2, 0.1, 1.0, 5e-2, p=2))
        assert np.allclose(res.curve.value(f.xs), res.g.values, atol=1e-12)
        assert np.allclose(res.curve.d1(f.xs), res.g.d1, atol=1e-12)
        assert res.curve.integral() == pytest.approx(1.0, abs=1e-12)

    def test_seam_is_c1_on_the_curve(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        res = approximate_c1(ApproxRequest(f, 0.2, 0.1, 1.0, 5e-2, p=2))
        s = res.curve.seam
        left, right = s - 1e-10, s + 1e-10
        assert abs(res.curve.value(left)[0] - res.curve.value(right)[0]) < 1e-8
        assert abs(res.curve.d1(left)[0] - res.curve.d1(right)[0]) < 1e-6

    def test_unreachable_budget_raises_with_best_effort(self):
        f = grid_of(np.abs, -1.0, 1.0, 129)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(ApproxRequest(f, 0.3, -0.7, 1.0, 1e-15, p=2))
        best = exc.value.result
        assert best is not None
        # constraints hold even on the failed attempt
        assert best.integral_residual <= 1e-10
        assert best.endpoint_value_residual <= 1e-10
        assert best.endpoint_deriv_residual <= 1e-10

    def test_rejects_bad_request(self):
        f = grid_of(np.abs, -1.0, 1.0, 65)
        with pytest.raises(BadParams):
            approximate_c1(ApproxRequest(f, 0.0, 0.0, 1.0, -1.0, p=2))


class TestSmoothingClassification:
    def test_pseudo_ms_becomes_ms_candidate(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, K1=1, K2=1, T=1.0)
        v = feasible_random_v(spec, 257, rng, compatible=True)
        xs = v.xs
        # break both endpoint relations with Simpson-neutral perturbations
        rough = v.values + 0.05 * (xs**2 - 1.0 / 3.0) + 0.05 * xs**3
        v = v.with_values(rough)
        assert verify_solution(v, spec).classification == "pseudo_MS"

        res = approximate_c1(ApproxRequest(v, spec.c1, spec.c2, spec.A, 5e-2, p=2))
        smoothed = GridFunction(v.a, v.b, v.n, res.g.values)
        rep = verify_solution(smoothed, spec)
        assert rep.classification == "MS_candidate"


class TestPMSSequence:
    def test_zero_problem_all_zero(self):
        from waveinput.functions import catalog
        from waveinput.tbvp import ProblemSpec

        z = catalog("zero", [])
        spec = ProblemSpec(z, z, 1.0, 1, 1)
        v = GridFunction(-1.0, 1.0, 129, np.zeros(129))
        entries = pms_sequence(v, spec, [1e-1, 1e-2], p=1)
        for e in entries:
            assert np.allclose(e.result.g.values, 0.0, atol=1e-14)
            assert e.norm_gap < 1e-12
            assert e.satisfied

    @pytest.mark.parametrize("p", [1, 2])
    def test_smooth_input_bounds_hold(self, p):
        spec = traveling_spec()
        xs = np.linspace(-1.0, 1.0, 257)
        v = GridFunction(-1.0, 1.0, 257, -np.cos(xs))
        entries = pms_sequence(v, spec, [1e-1, 1e-2, 1e-3], p=p)
        errs = [e.result.achieved_lp_error for e in entries]
        assert errs == sorted(errs, reverse=True) or len(set(errs)) < 3
        for e in entries:
            assert e.result.achieved_lp_error < e.epsilon
            assert e.satisfied, (e.norm_gap, e.bound)

    def test_monotone_achieved_error(self):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, K1=1, K2=2, T=1.0)
        v = feasible_random_v(spec, 257, rng, compatible=False)
        entries = pms_sequence(v, spec, [2e-1, 1e-1, 5e-2], p=2)
        errs = [e.result.achieved_lp_error for e in entries]
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_infeasible_input_rejected(self):
        spec = traveling_spec()
        v = GridFunction(-1.0, 1.0, 129, np.full(129, 5.0))
        with pytest.raises(BadParams):
            pms_sequence(v, spec, [1e-1], p=2)

    def test_bad_schedule_rejected(self):
        spec = traveling_spec()
        xs = np.linspace(-1.0, 1.0, 129)
        v = GridFunction(-1.0, 1.0, 129, -np.cos(xs))
        with pytest.raises(BadParams):
            pms_sequence(v, spec, [1e-2, 1e-1], p=2)
