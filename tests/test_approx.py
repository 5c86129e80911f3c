"""Tests for the constrained C1 approximation pipeline."""

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from waveinput import approx
from waveinput.approx import (
    DEGREE_START,
    ApproxRequest,
    _bern_combine,
    _bern_deriv,
    _bern_value,
    _hermite,
    approximate_c1,
    pms_sequence,
)
from waveinput.errors import ApproxBudgetExceeded, BadParams
from waveinput.functions import GridFunction
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


def bern_on_grid(g, m):
    """Degree-m Bernstein core of g's linear interpolant and its slope, at g's nodes."""
    c = np.interp(np.linspace(g.a, g.b, m + 1), g.xs, g.values)
    return _bern_value(c, g.a, g.b, g.xs), _bern_deriv(c, g.a, g.b, g.xs)


class TestIntegralShift:
    """approximate_c1's constant shifts put the result on the target integral."""

    def test_constant_to_zero(self):
        g = grid_of(lambda x: np.ones_like(x), 0.0, 1.0, 9)
        out = approximate_c1(ApproxRequest(g, 0.0, 0.0, 0.0, 2.0, p=2)).g
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_zero_to_two(self):
        g = grid_of(lambda x: 0 * x, 0.0, 2.0, 9)
        out = approximate_c1(ApproxRequest(g, 0.0, 0.0, 4.0, 3.0, p=2)).g
        assert np.allclose(out.values, 2.0)

    def test_already_on_target(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 129)
        res = approximate_c1(ApproxRequest(g, 1.0, 0.0, 0.5, 1e-10, p=2))
        assert np.allclose(res.g.values, g.values, atol=1e-14)
        assert res.curve.integral() == pytest.approx(0.5, abs=1e-12)


class TestBernstein:
    def test_partition_of_unity(self):
        g = grid_of(lambda x: np.full_like(x, 0.7), -1.0, 1.0, 65)
        for m in (1, 8, 513):
            vals, ders = bern_on_grid(g, m)
            assert np.allclose(vals, 0.7, atol=1e-13)
            assert np.allclose(ders, 0.0, atol=1e-12)

    def test_linear_reproduction(self):
        g = grid_of(lambda x: 2 * x - 0.3, 0.0, 1.0, 65)
        vals, ders = bern_on_grid(g, 64)
        assert np.allclose(vals, g.values, atol=1e-12)
        assert np.allclose(ders, 2.0, atol=1e-11)

    def test_degree_two_on_square(self):
        g = grid_of(lambda x: x**2, 0.0, 1.0, 5)
        vals, _ = bern_on_grid(g, 2)
        # B2(x^2) = x^2 + x(1-x)/2, so the midpoint value is 0.375
        assert vals[2] == pytest.approx(0.375, abs=1e-15)

    def test_endpoint_fidelity_exact(self):
        rng = np.random.default_rng(3)
        g = GridFunction(-2.0, 1.0, 33, rng.normal(size=33))
        for m in (8, 509, 2048, 32768):
            vals, _ = bern_on_grid(g, m)
            assert vals[0] == g.values[0]
            assert vals[-1] == g.values[-1]

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
        _, got = bern_on_grid(g, m)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(d))


class TestDegreeChoice:
    """approximate_c1 doubles the Bernstein degree from DEGREE_START up to its cap."""

    def test_constant_first_candidate(self):
        g = grid_of(lambda x: np.full_like(x, 3.0), 0.0, 1.0, 33)
        res = approximate_c1(ApproxRequest(g, 0.0, 0.0, 3.0, 1e-12, p=2))
        assert res.stages["m"] == DEGREE_START
        assert not res.stages["degree_flagged"]
        assert np.max(np.abs(res.g.values - 3.0)) < 1e-13

    def test_linear_first_candidate(self):
        g = grid_of(lambda x: x, 0.0, 1.0, 33)
        res = approximate_c1(ApproxRequest(g, 1.0, 0.0, 0.5, 1e-10, p=2))
        assert res.stages["m"] == DEGREE_START
        assert not res.stages["degree_flagged"]

    def test_kink_needs_finite_degree(self):
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        res = approximate_c1(ApproxRequest(g, 0.0, 0.0, 0.25, 0.01, p=2))
        assert DEGREE_START < res.stages["m"] <= approx.DEGREE_CAP
        assert not res.stages["degree_flagged"]
        assert res.achieved_lp_error < 0.01

    def test_cap_reported_when_unreachable(self, monkeypatch):
        monkeypatch.setattr(approx, "DEGREE_CAP", 64)
        g = grid_of(lambda x: np.abs(x - 0.5), 0.0, 1.0, 257)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(ApproxRequest(g, 0.0, 0.0, 0.25, 1e-9, p=2))
        stages = exc.value.result.stages
        # one retry doubles the cap before giving up
        assert stages["m"] == 128
        assert stages["retries"] == 1
        assert stages["degree_flagged"]
        assert exc.value.result.achieved_lp_error > 1e-9

    def test_unflagged_failure_does_not_retry(self):
        # a line is exact at the start degree; the end offset then asks for
        # a jump no patch of width >= 1e-13 fits into 1e-9, and a larger
        # degree cap cannot help, so nothing is retried
        g = grid_of(lambda x: 2.0 * x, 0.0, 1.0, 257)
        with pytest.raises(ApproxBudgetExceeded) as exc:
            approximate_c1(ApproxRequest(g, 5.0, 0.0, 1.0, 1e-9, p=2))
        stages = exc.value.result.stages
        assert stages["m"] == approx.DEGREE_START
        assert not stages["degree_flagged"]
        assert stages["retries"] == 0


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
