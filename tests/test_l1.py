import numpy as np
import pytest

from conftest import (
    feasible_random_v,
    handmade_shifts,
    in_strip_sibling,
    random_spec,
    scaled,
    traveling_spec,
)
from waveinput.errors import BadParams, GridError, UnsupportedNorm
from waveinput.functions import GridFunction, integrate, simpson_weights, wsum
from waveinput.l1 import (
    construct_h,
    ms_endpoint_check,
    order_envelopes,
    select_strip,
    strip_lower_bound,
)
from waveinput.oracle import answer, l1_oracle
from waveinput.tbvp import ProblemSpec, full_norm, shift_sequence


def lines_example(n=101):
    xs = np.linspace(-1, 1, n)
    return handmade_shifts(np.stack([np.zeros(n), xs, -xs])), xs


def consts_example(vals, n=101):
    return handmade_shifts(np.stack([np.full(n, v) for v in vals]))


def test_envelopes_of_three_lines():
    ts, xs = lines_example()
    env = order_envelopes(ts)
    assert np.allclose(env.values[0], np.abs(xs))
    assert np.allclose(env.values[1], 0.0)
    assert np.allclose(env.values[2], -np.abs(xs))
    # integral of |x| over [-1,1] is 1 (Simpson hits it exactly: the kink
    # at 0 is a grid node and |x| is linear on each half)
    assert env.integrals[0] == pytest.approx(1.0, abs=1e-12)
    assert env.integrals[2] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(np.diff(env.integrals) <= 1e-15)


def test_envelope_order_is_a_permutation_giving_the_descending_sort():
    rng = np.random.default_rng(5)
    tables = [consts_example([0.0, 0.0, 0.0]), shift_sequence(traveling_spec(8, 8), 8193)]
    for ts in tables + [shift_sequence(random_spec(rng), 129) for _ in range(4)]:
        env = order_envelopes(ts)
        ref = np.sort(ts.values, axis=0)[::-1]
        assert np.array_equal(env.values, ref)
        # the same bits as the weighted sum of a C-contiguous copy of the sorted
        # table, and of each of its rows alone: layout and row count move no bit
        weights = simpson_weights(ts.n, ts.grid.h)
        assert (env.integrals == wsum(weights, np.ascontiguousarray(ref))).all()
        assert (env.integrals == wsum(weights, np.asfortranarray(ref))).all()
        assert env.integrals.tolist() == [float(wsum(weights, row)) for row in ref]
        rows = np.broadcast_to(np.arange(ts.K)[:, None], ts.values.shape)
        assert np.array_equal(np.sort(env.order, axis=0), rows)


def test_envelopes_preserve_multiset_and_order():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, K1=2, K2=2)
    ts = shift_sequence(spec, 129)
    env = order_envelopes(ts)
    assert np.all(np.diff(env.values, axis=0) <= 1e-15)
    assert np.allclose(np.sort(env.values, axis=0), np.sort(ts.values, axis=0))


def test_envelope_continuity_bound():
    rng = np.random.default_rng(4)
    spec = random_spec(rng, K1=2, K2=1)
    ts = shift_sequence(spec, 257)
    env = order_envelopes(ts)
    slopes = np.max(np.abs(np.diff(ts.values, axis=1))) / ts.grid.h
    jumps = np.max(np.abs(np.diff(env.values, axis=1))) / ts.grid.h
    assert jumps <= 2 * slopes + 1e-12


def test_select_strip_cases():
    env = order_envelopes(consts_example([0.0, 2.0, -2.0]))
    # integrals (4, 0, -4)
    assert select_strip(env, 1.0) == 1
    assert select_strip(env, 10.0) == 0
    assert select_strip(env, -10.0) == 3
    assert select_strip(env, 0.0) == 1
    # equality with an envelope integral goes to the smaller index
    assert select_strip(env, float(env.integrals[2])) == 2
    zero_env = order_envelopes(consts_example([0.0, 0.0, 0.0]))
    assert select_strip(zero_env, 0.0) == 1


def test_construct_h_interior_convex_combination():
    env = order_envelopes(consts_example([0.0, 2.0, -2.0]))
    sol = construct_h(env, 1, 1.0)
    assert sol.boundary_case == "interior"
    assert np.allclose(sol.h.values, 0.5)
    assert integrate(sol.h) == pytest.approx(1.0, abs=1e-10)
    assert sol.objective == pytest.approx(9.0, abs=1e-10)
    assert np.all(env.values[sol.j] <= sol.h.values + 1e-12)
    assert np.all(sol.h.values <= env.values[sol.j - 1] + 1e-12)


def test_construct_h_clamps_onto_the_upper_envelope():
    # A equal to the top envelope integral picks strip 1, where theta is exactly 1
    spec = random_spec(np.random.default_rng(3))
    ts = shift_sequence(spec, 129)
    env = order_envelopes(ts)
    A = float(env.integrals[0])
    sol = construct_h(env, select_strip(env, A), A)
    assert (sol.j, sol.boundary_case) == (1, "on_upper")
    assert np.array_equal(sol.h.values, env.values[0])
    w = simpson_weights(ts.n, ts.grid.h)
    gap_scale = float(wsum(w, np.abs(ts.values).sum(axis=0))) + env.K * abs(A)
    assert abs(sol.objective - strip_lower_bound(env, 1, A)) <= 64 * np.finfo(float).eps * gap_scale


def test_construct_h_zero_problem():
    env = order_envelopes(consts_example([0.0, 0.0, 0.0]))
    sol = construct_h(env, select_strip(env, 0.0), 0.0)
    assert np.all(sol.h.values == 0.0)
    assert sol.objective == 0.0
    assert sol.degenerate  # coinciding envelope integrals


def test_construct_h_shifted_edges():
    ts, xs = lines_example()
    env = order_envelopes(ts)
    sol = construct_h(env, 0, 2.0)  # A=2 > p1=1: |x| shifted by (2 - 1)/(2T)
    assert sol.boundary_case == "shifted_top"
    assert np.allclose(sol.h.values, np.abs(xs) + 0.5)
    assert integrate(sol.h) == pytest.approx(2.0, abs=1e-10)
    assert sol.objective == pytest.approx(strip_lower_bound(env, 0, 2.0), abs=1e-12)
    env_c = order_envelopes(consts_example([0.0, 2.0, -2.0]))
    sol_b = construct_h(env_c, 3, -5.0)  # A=-5 < p3=-4: -2 shifted by -1/2
    assert sol_b.boundary_case == "shifted_bottom"
    assert np.allclose(sol_b.h.values, -2.5)
    assert integrate(sol_b.h) == pytest.approx(-5.0, abs=1e-10)
    assert sol_b.objective == pytest.approx(strip_lower_bound(env_c, 3, -5.0), abs=1e-12)


def test_construct_h_zero_envelopes():
    # a zero outer integral needs no guard: the shift is A/(2T) with T = 1
    env = order_envelopes(consts_example([0.0, 0.0, 0.0]))
    assert np.all(construct_h(env, 0, 1.0).h.values == 0.5)
    assert np.all(construct_h(env, 3, -1.0).h.values == -0.5)
    sol = construct_h(env, 0, 0.0)
    assert np.all(sol.h.values == 0.0)
    assert not sol.degenerate  # only equal interior integrals are degenerate
    with pytest.raises(BadParams):
        construct_h(env, 7, 0.0)


@pytest.mark.parametrize("edge", ["top", "bottom"])
def test_construct_h_sign_changing_edge_envelope_certified(edge):
    # hand-built rows without the zero period-0 row of a shift sequence:
    # both outer envelopes change sign, and the shifted one still stays on
    # its side of the strip and meets the exact dual
    rows = np.random.default_rng(0).normal(size=(3, 65)) + 0.3
    env = order_envelopes(handmade_shifts(rows))
    A = env.integrals[0] + 1.0 if edge == "top" else env.integrals[-1] - 1.0
    j = select_strip(env, A)
    assert j == (0 if edge == "top" else env.K)
    sol = construct_h(env, j, A)
    if edge == "top":
        assert np.all(sol.h.values >= env.values[0])
    else:
        assert np.all(sol.h.values <= env.values[-1])
    assert l1_oracle(env.ts, A).converged


def test_edge_strips_attain_the_lower_bound_on_random_data():
    """Every edge strip of seeded random problems: h sits on the outer side of
    its envelope, the oracle certifies it, and its objective equals
    strip_lower_bound within 64 ulps of the oracle's gap scale."""
    rng = np.random.default_rng(7)
    edges = []
    for _ in range(300):
        spec = random_spec(rng)
        ts = shift_sequence(spec, 257)
        env = order_envelopes(ts)
        j = select_strip(env, spec.A)
        if 1 <= j <= env.K - 1:
            continue
        edges.append(j)
        sol = construct_h(env, j, spec.A)
        outer = env.values[0] if j == 0 else env.values[-1]
        assert np.all(sol.h.values >= outer if j == 0 else sol.h.values <= outer)
        assert l1_oracle(ts, spec.A).converged
        w = simpson_weights(ts.n, ts.grid.h)
        gap_scale = float(np.dot(w, np.abs(ts.values).sum(axis=0))) + env.K * abs(spec.A)
        bound = strip_lower_bound(env, j, spec.A)
        assert abs(sol.objective - bound) <= 64 * np.finfo(float).eps * gap_scale
    # sanity: the sweep reached both edges (50 top and 33 bottom strips)
    assert edges.count(0) == 50 and len(edges) == 83


def test_l1_objective_constants():
    # hand-built rows, not the (zero) shifts of the sequence's own spec
    env_ts = consts_example([1.0, 0.0, -2.0])
    v = GridFunction(-1.0, 1.0, 101, np.zeros(101))
    assert full_norm(v, env_ts, 1) == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(GridError):
        full_norm(GridFunction(-1.0, 1.0, 33, np.zeros(33)), env_ts, 1)
    with pytest.raises(UnsupportedNorm):
        full_norm(v, env_ts, 3)
    with pytest.raises(UnsupportedNorm):
        answer(env_ts, 0.0, "l3")


def test_ms_endpoint_check():
    env = order_envelopes(consts_example([0.0, 0.0, 0.0]))
    assert ms_endpoint_check(env, 1, 0.0) == "possible"
    env2 = order_envelopes(consts_example([1.0, -1.0]))
    # strip 1 interval is [a_2(T) - a_1(-T), a_1(T) - a_2(-T)] = [-2, 2]
    assert ms_endpoint_check(env2, 1, 5.0) == "obstructed"
    assert ms_endpoint_check(env2, 1, 2.0) == "possible"  # boundary attained
    with pytest.raises(BadParams):
        ms_endpoint_check(env2, 0, 0.0)
    with pytest.raises(BadParams):
        strip_lower_bound(env2, env2.K + 1, 0.0)


@pytest.mark.parametrize("s", [1e-13, 1.0, 1e6])
def test_ms_endpoint_check_does_not_depend_on_the_amplitude(s):
    # the bracket [-2s, 2s] of the constant shifts s and -s, hit on its edge
    # and missed by 0.5s; an absolute slack of 1e-12 calls 2.5s possible at s=1e-13
    env = order_envelopes(consts_example([s, -s]))
    assert ms_endpoint_check(env, 1, 2.0 * s) == "possible"
    assert ms_endpoint_check(env, 1, 2.5 * s) == "obstructed"
    # random_spec draws 233 and 247 (seed 7) put c1 on the edge of their
    # strip's range, where rounding is relative to the data; an absolute
    # slack of 1e-12 called them obstructed at s=1e6
    rng = np.random.default_rng(7)
    draws = [random_spec(rng) for _ in range(248)]
    for base in (draws[233], draws[247]):
        spec = ProblemSpec(scaled(base.f0, s), scaled(base.fT, s), base.T, base.K1, base.K2)
        env = order_envelopes(shift_sequence(spec, 257))
        j = select_strip(env, spec.A)
        assert 1 <= j <= env.K - 1
        assert ms_endpoint_check(env, j, spec.c1) == "possible"


def test_optimality_against_random_feasible_inputs():
    rng = np.random.default_rng(31)
    for _ in range(3):
        spec = random_spec(rng)
        ts = shift_sequence(spec, 257)
        env = order_envelopes(ts)
        j = select_strip(env, spec.A)
        sol = construct_h(env, j, spec.A)
        for _ in range(30):
            v = feasible_random_v(spec, 257, rng)
            assert full_norm(v, ts, 1) >= sol.objective - 1e-8


def test_flat_optimum_inside_strip():
    rng = np.random.default_rng(37)
    found = 0
    for _ in range(8):
        spec = random_spec(rng)
        ts = shift_sequence(spec, 257)
        env = order_envelopes(ts)
        j = select_strip(env, spec.A)
        if not 1 <= j <= env.K - 1:
            continue
        sol = construct_h(env, j, spec.A)
        sib = in_strip_sibling(env, j, sol.h, rng)
        if sib is None:
            continue
        assert integrate(sib) == pytest.approx(spec.A, abs=1e-10)
        assert not np.allclose(sib.values, sol.h.values)
        assert full_norm(sib, ts, 1) == pytest.approx(sol.objective, abs=1e-8)
        found += 1
    assert found >= 3  # sanity: the sweep actually exercised the property


def test_lower_bound_identity_and_floor():
    rng = np.random.default_rng(41)
    for _ in range(5):
        spec = random_spec(rng)
        ts = shift_sequence(spec, 257)
        env = order_envelopes(ts)
        j = select_strip(env, spec.A)
        bound = strip_lower_bound(env, j, spec.A)
        assert construct_h(env, j, spec.A).objective == pytest.approx(bound, abs=1e-8)
        for _ in range(20):
            v = feasible_random_v(spec, 257, rng)
            assert full_norm(v, ts, 1) >= bound - 1e-8


def test_slope_ladder():
    # difference quotient of U in the v-argument equals K - 2j strictly
    # inside strip j
    rng = np.random.default_rng(43)
    spec = random_spec(rng, K1=2, K2=2)
    ts = shift_sequence(spec, 129)
    env = order_envelopes(ts)
    j = 2
    gap = env.values[j - 1] - env.values[j]
    node = int(np.argmax(gap))
    assert gap[node] > 1e-3
    mid = 0.5 * (env.values[j - 1][node] + env.values[j][node])
    eps = 0.1 * gap[node]
    col = ts.values[:, node]
    up = np.abs(col - (mid + eps)).sum()
    dn = np.abs(col - (mid - eps)).sum()
    assert (up - dn) / (2 * eps) == pytest.approx(env.K - 2 * j, abs=1e-9)
