import math

import numpy as np
import pytest

from conftest import (
    ZERO, handmade_shifts, random_spec, scaled, traveling_spec, zero_integral_bump, zero_spec,
)
from waveinput.functions import catalog, integrate, simpson_weights
from waveinput.l2 import l2_minimizer, l2_ms_check
from waveinput.oracle import answer
from waveinput.tbvp import ProblemSpec, full_norm, shift_sequence


def test_a1_constant():
    n = 101
    zero_ts = handmade_shifts(np.zeros((3, n)))
    assert l2_minimizer(zero_ts, 0.0).A1 == 0.0
    assert l2_minimizer(zero_ts, 3.0).A1 == 3.0
    xs = np.linspace(-1, 1, n)
    odd_ts = handmade_shifts(np.stack([xs, xs, xs]))
    # odd mean integrates to zero on the symmetric grid
    assert l2_minimizer(odd_ts, 2.0).A1 == pytest.approx(2.0, abs=1e-13)


def test_l2_minimizer_zero_data():
    zero_ts = handmade_shifts(np.zeros((3, 101)))
    sol = l2_minimizer(zero_ts, 0.0)
    assert np.all(sol.v.values == 0.0)
    assert sol.objective == 0.0


def test_l2_minimizer_constant_case():
    zero_ts = handmade_shifts(np.zeros((3, 101)))
    sol = l2_minimizer(zero_ts, 2.0)
    assert np.allclose(sol.v.values, 1.0)
    assert sol.objective == pytest.approx(2 * 3, abs=1e-10)
    assert integrate(sol.v) == pytest.approx(2.0, abs=1e-10)


def test_l2_minimizer_symmetric_shifts_cancel():
    n = 101
    xs = np.linspace(-1, 1, n)
    s = np.sin(2 * xs)
    ts = handmade_shifts(np.stack([np.zeros(n), s, -s]))
    sol = l2_minimizer(ts, 1.5)
    assert np.allclose(sol.v.values, 0.75)  # A1/(2T) with zero mean


def test_minimizer_node_identity_and_feasibility():
    rng = np.random.default_rng(12)
    for _ in range(5):
        spec = random_spec(rng)
        ts = shift_sequence(spec, 257)
        sol = l2_minimizer(ts, spec.A)
        assert np.allclose(
            sol.v.values, sol.mean_shift.values + sol.A1 / (2 * spec.T), atol=1e-14
        )
        assert integrate(sol.v) == pytest.approx(spec.A, abs=1e-10)
        assert sol.objective == pytest.approx(full_norm(sol.v, ts, 2), abs=1e-10)


def test_quadratic_expansion_optimality():
    rng = np.random.default_rng(14)
    spec = random_spec(rng, K1=2, K2=1)
    ts = shift_sequence(spec, 257)
    sol = l2_minimizer(ts, spec.A)
    w = simpson_weights(257, ts.grid.h)
    for _ in range(100):
        bump = zero_integral_bump(ts.grid.xs, rng)
        pert = ts.grid.with_values(sol.v.values + bump)
        obj = l2_minimizer_objective(ts, pert)
        growth = float(np.dot(w, bump * bump))
        assert obj >= sol.objective + (1 - 1e-6) * ts.K * growth - 1e-12


def l2_minimizer_objective(ts, v):
    w = simpson_weights(ts.n, ts.grid.h)
    r = ts.values - v.values[None, :]
    return float(np.dot(w, (r * r).sum(axis=0)))


def test_decomposition_identity():
    rng = np.random.default_rng(16)
    spec = random_spec(rng, K1=1, K2=2)
    ts = shift_sequence(spec, 129)
    w = simpson_weights(129, ts.grid.h)
    mean = ts.values.mean(axis=0)
    spread = float(np.dot(w, (ts.values**2).sum(axis=0) - ts.K * mean * mean))
    for _ in range(10):
        vals = zero_integral_bump(ts.grid.xs, rng) + rng.normal()
        v = ts.grid.with_values(vals)
        lhs = l2_minimizer_objective(ts, v)
        rhs = ts.K * float(np.dot(w, (vals - mean) ** 2)) + spread
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_ms_check_zero_data():
    spec = zero_spec()
    assert l2_ms_check(shift_sequence(spec, 65)) == "ms_exists"


def test_ms_check_constant_cannot_jump():
    # f0 = 0, fT = x gives c1 = 2 but a constant closed-form minimizer
    spec = ProblemSpec(ZERO, catalog("poly", [0.0, 1.0]), 1.0, 1, 1)
    assert spec.c1 == pytest.approx(2.0)
    ts = shift_sequence(spec, 129)
    assert np.ptp(l2_minimizer(ts, spec.A).v.values) < 1e-12
    assert l2_ms_check(ts) == "pms_only"


def test_ms_check_traveling_wave():
    # the closed form reproduces c1 = 0 but its derivative jump misses c2,
    # so the L2 minimum is only approached by smooth inputs, not attained
    spec = traveling_spec()
    ts = shift_sequence(spec, 513)
    sol = l2_minimizer(ts, spec.A)
    factor = 2.0 * (math.cos(2.0) - 1.0) / 3.0
    shape = factor * np.cos(ts.grid.xs) - math.sin(1.0) * (1.0 + factor)
    assert np.max(np.abs(sol.v.values - shape)) < 1e-9
    assert abs(sol.v.values[-1] - sol.v.values[0] - spec.c1) < 1e-12
    assert l2_ms_check(ts) == "pms_only"


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("n", [65, 8193])
def test_ms_check_is_exact_at_every_scale(s, n):
    # fT = sin(pi x / 3), T = 1: the shift mean meets both endpoint relations
    # because 1 + 2 cos(2 pi / 3) = 0, so the closed form is an exact MS
    spec = ProblemSpec(ZERO, scaled(catalog("sin", [math.pi / 3, 0.0]), s), 1.0, 1, 1)
    assert spec.c1 != 0.0
    assert l2_ms_check(shift_sequence(spec, n)) == "ms_exists"
    readme = traveling_spec()
    readme = ProblemSpec(scaled(readme.f0, s), scaled(readme.fT, s), 1.0, 1, 1)
    assert l2_ms_check(shift_sequence(readme, n)) == "pms_only"


def test_ms_check_reads_the_shifts_it_is_given():
    # hand-made rows on zero data (c1 = 0) whose mean 2x/3 jumps by 4/3 across [-1, 1]
    xs = np.linspace(-1.0, 1.0, 65)
    ans = answer(handmade_shifts([xs, 0.0 * xs, xs]), 0.0, "l2")
    assert ans.ts.spec.c1 == 0.0
    assert ans.v.values[-1] - ans.v.values[0] == pytest.approx(4.0 / 3.0)
    assert dict(ans.facts)["ms_check"] == "pms_only"
