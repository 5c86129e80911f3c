"""Tests for solution verification and classification."""

import numpy as np
import pytest

from waveinput.functions import GridFunction, catalog, sample
from waveinput.tbvp import shift_sequence
from waveinput.verify import SEAM_TOL, _end_slopes, verify_solution

from conftest import feasible_random_v, random_spec, traveling_spec, zero_spec


def test_end_slopes_fourth_order_at_both_ends():
    f = catalog("sin", [1.0, 0.0])
    errs = []
    for n in (65, 129):
        g = sample(f, 0.0, 2.0, n)
        errs.append(np.abs(np.array(_end_slopes(g)) - f.d1(np.array([0.0, 2.0]))))
    assert errs[0] / errs[1] == pytest.approx([16.0, 16.0], rel=0.4)
    assert max(errs[1]) < 2e-8


def test_end_slopes_exact_for_quartics():
    xs = np.linspace(-1.0, 1.0, 21)
    g = GridFunction(-1.0, 1.0, 21, (xs - 0.3) ** 4 + xs**3)
    slopes = 4 * (np.array([-1.0, 1.0]) - 0.3) ** 3 + 3.0
    assert np.max(np.abs(np.array(_end_slopes(g)) - slopes)) < 1e-12


class TestClassification:
    def test_zero_data_is_ms_candidate(self):
        spec = zero_spec(K1=2, K2=1)
        # at n = 7 the PDE check has no interior row and reports 0
        for n in (257, 7):
            v = GridFunction(-1.0, 1.0, n, np.zeros(n))
            rep = verify_solution(v, shift_sequence(spec, v.n))
            assert rep.classification == "MS_candidate"
            assert rep.pde_residual_max == 0.0
            assert rep.boundaryT_max == 0.0
            assert rep.endpoint_value_residual == 0.0
            assert rep.endpoint_deriv_residual == 0.0
            assert rep.kink_cells == []

    def test_traveling_wave_is_ms_candidate(self):
        spec = traveling_spec()
        v = sample(catalog("cos", [1.0, np.pi]), -1.0, 1.0, 257)  # -cos(x)
        rep = verify_solution(v, shift_sequence(spec, v.n))
        assert rep.classification == "MS_candidate"
        assert rep.boundaryT_max < 1e-7
        assert rep.pde_residual_max < rep.pde_budget
        assert rep.endpoint_value_residual < 1e-10
        assert rep.endpoint_deriv_residual < 1e-6

    def test_incompatible_input_is_pseudo_ms(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, K1=1, K2=2)
        v = feasible_random_v(spec, 257, rng, compatible=False)
        rep = verify_solution(v, shift_sequence(spec, v.n))
        assert rep.classification == "pseudo_MS"
        # the value relation's residual is |v(T) - v(-T) - c1|, read off the ends
        J = abs(v.values[-1] - v.values[0] - spec.c1)
        assert rep.endpoint_value_residual == J
        assert J > SEAM_TOL

    def test_infeasible_input(self):
        spec = zero_spec()
        v = GridFunction(-1.0, 1.0, 129, np.full(129, 0.1))
        rep = verify_solution(v, shift_sequence(spec, v.n))
        assert rep.classification == "infeasible"
        assert rep.feasibility_residual == pytest.approx(0.2, abs=1e-12)

    def test_kinked_input_reports_kink_location(self):
        spec = zero_spec()
        n = 257
        xs = np.linspace(-1.0, 1.0, n)
        v = GridFunction(-1.0, 1.0, n, np.abs(xs) - 0.5)
        rep = verify_solution(v, shift_sequence(spec, v.n))
        assert rep.classification == "pseudo_MS"
        assert len(rep.kink_cells) >= 1
        assert min(abs(x) for x in rep.kink_cells) < 1e-12
        # the slope relation's residual is |v'(T) - v'(-T) - c2| = 2
        assert rep.endpoint_deriv_residual == pytest.approx(2.0, abs=1e-6)


class TestResiduals:
    def test_deriv_jump_constant_across_seams(self):
        # the slope jump of the extension at each seam, from the branches' end
        # slopes, is the one endpoint residual verify reports
        rng = np.random.default_rng(7)
        spec = random_spec(rng, K1=2, K2=2)
        v = feasible_random_v(spec, 513, rng)
        ts = shift_sequence(spec, v.n)
        rep = verify_solution(v, ts)
        left, right = _end_slopes(v)
        d_ends = ts.d_ends
        jumps = np.abs((right - d_ends[:-1, 1]) - (left - d_ends[1:, 0]))
        assert jumps.size == spec.K - 1
        assert np.max(np.abs(jumps - rep.endpoint_deriv_residual)) < 1e-7
