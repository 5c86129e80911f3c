import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import exact
import numpy as np
import pytest
from conftest import ZERO, feasible_random_v, random_spec, traveling_spec, zero_spec
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveinput.errors import DomainError, GridError, OutOfRegion
from waveinput.functions import GridFunction, catalog, integrate, lp_norm, simpson_weights
from waveinput.tbvp import (
    ProblemSpec,
    dalembert,
    extend_input,
    full_norm,
    recurrence_increment,
    _prefix_tables,
    segment_integrals,
    shift_sequence,
    shift_values,
)


def test_constants_zero_data():
    s = zero_spec()
    assert (s.A, s.c1, s.c2) == (0.0, 0.0, 0.0)
    assert s.K == 3


def test_constants_traveling_wave():
    s = traveling_spec()
    assert s.A == pytest.approx(-2 * math.sin(1.0), abs=1e-14)
    assert s.c1 == pytest.approx(0.0, abs=1e-14)
    assert s.c2 == pytest.approx(2 * math.sin(1.0), abs=1e-14)


def test_constants_parabola():
    f = catalog("poly", [0.0, 0.0, 1.0])
    s = ProblemSpec(f, f, 1.0, 1, 1)
    assert s.A == pytest.approx(-2.0, abs=1e-14)
    assert s.c1 == pytest.approx(0.0, abs=1e-14)
    assert s.c2 == pytest.approx(0.0, abs=1e-14)


def test_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(ZERO, ZERO, -1.0, 1, 1)
    with pytest.raises(DomainError, match=r"^K1 and K2 must be at least 1, got K1=0, K2=1$"):
        ProblemSpec(ZERO, ZERO, 1.0, 0, 1)
    narrow = dataclasses.replace(catalog("zero", []), domain=(-1.0, 1.0))
    with pytest.raises(DomainError):
        ProblemSpec(narrow, narrow, 1.0, 1, 1)


def test_a_spec_holds_no_shift_arrays_and_a_dropped_sequence_frees_them_at_once():
    spec = traveling_spec(2, 2)
    ts = shift_sequence(spec, 65)
    assert set(vars(spec)) == {"f0", "fT", "T", "K1", "K2", "A", "c1", "c2", "K"}
    assert ts.grid.n == 65  # the cached decision grid refers to no sequence either
    alive = [weakref.ref(a) for a in (spec, ts, ts.values, ts.d_ends)]
    gc.disable()
    try:
        del spec, ts
        assert [ref() for ref in alive] == [None] * 4  # no cycle waits for the collector
    finally:
        gc.enable()


def test_shift_sequence_zero_data():
    ts = shift_sequence(zero_spec(2, 2), 65)
    assert ts.K == 5
    assert ts.values.shape == (5, 65)
    assert np.all(ts.values == 0.0)
    assert np.all(ts.d_ends == 0.0)


def test_shift_sequence_traveling_wave():
    s = traveling_spec()
    ts = shift_sequence(s, 257)
    xs = ts.grid.xs
    # rows run over the window periods k = -1, 0, 1
    assert np.all(ts.values[1] == 0.0)
    # rightward period: exact input -cos extends to -cos(x + 2T), so the
    # shift is cos(x + 2T) - cos(x); at x = 0 that is cos(2) - 1
    right = np.cos(xs + 2.0) - np.cos(xs)
    assert np.max(np.abs(ts.values[2] - right)) < 1e-13
    mid = (257 - 1) // 2
    assert ts.values[2, mid] == pytest.approx(math.cos(2.0) - 1.0, abs=1e-13)
    left = np.cos(xs - 2.0) - np.cos(xs)
    assert np.max(np.abs(ts.values[0] - left)) < 1e-13
    # end slopes: d/dx (cos(x + 2kT) - cos(x)) at x = -T and x = T
    ends = np.array([-1.0, 1.0])
    for i, k in enumerate((-1, 0, 1)):
        want = np.sin(ends) - np.sin(ends + 2.0 * k)
        assert np.max(np.abs(ts.d_ends[i] - want)) < 1e-13


def test_shift_matches_one_step_transcription():
    # independent one-off transcription of the first rightward shift:
    # t(x) = -(2 fT'(x+T) - f0'(x+2T) - f0'(x))
    rng = np.random.default_rng(3)
    f0 = catalog("poly", list(rng.normal(size=4)))
    fT = catalog("gaussian", [1.5, 0.3, 2.0])
    s = ProblemSpec(f0, fT, 0.7, 1, 1)
    ts = shift_sequence(s, 129)
    xs = ts.grid.xs
    T = s.T
    oracle = -(2 * fT.d1(xs + T) - f0.d1(xs + 2 * T) - f0.d1(xs))
    assert np.max(np.abs(ts.values[s.K1 + 1] - oracle)) < 1e-10
    slope = -(2 * fT.d2(xs + T) - f0.d2(xs + 2 * T) - f0.d2(xs))
    assert np.max(np.abs(ts.d_ends[s.K1 + 1] - slope[[0, -1]])) < 1e-10


def test_shift_consecutive_endpoint_identity():
    s = traveling_spec(K1=2, K2=3)
    ts = shift_sequence(s, 65)
    for i in range(s.K1 + 1, s.K):
        lhs = ts.values[i, 0]
        rhs = ts.values[i - 1, -1] - s.c1
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_constants_are_the_increment_at_zero(seed):
    s = random_spec(np.random.default_rng(seed))
    got = [float(recurrence_increment(s, 0.0, m)) for m in range(3)]
    assert got == [s.A, s.c1, s.c2]
    # and the transcription of each relation, bit for bit
    T = s.T
    for m, d in enumerate(("value", "d1", "d2")):
        fT, f0 = getattr(s.fT, d), getattr(s.f0, d)
        assert got[m] == float(2 * fT(0.0) - f0(T) - f0(-T))


@pytest.mark.parametrize("seed", range(6))
def test_shift_values_on_the_grid_is_the_shift_sequence(seed):
    rng = np.random.default_rng(seed)
    s = random_spec(rng)
    n = 2 * int(rng.integers(16, 200)) + 1
    ts = shift_sequence(s, n)
    assert shift_values(s, np.linspace(-s.T, s.T, n)).tobytes() == ts.values.tobytes()
    assert shift_values(s, [-s.T, s.T], 1).tobytes() == ts.d_ends.tobytes()


@pytest.mark.parametrize("T", [0.7, 1.0, 1.3])
def test_shift_values_off_the_grid_traveling_wave(T):
    # the exact input -cos extends to -cos(x + 2kT), so ts_k = cos(x + 2kT) - cos x
    s = traveling_spec(K1=2, K2=2, T=T)
    x = np.random.default_rng(11).uniform(-T, T, 1000)
    k = np.arange(-2, 3)[:, None]
    assert np.max(np.abs(shift_values(s, x) - (np.cos(x + 2 * k * T) - np.cos(x)))) < 1e-13
    assert np.max(np.abs(shift_values(s, x, 1) - (np.sin(x) - np.sin(x + 2 * k * T)))) < 1e-13


def test_extend_zero():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    ext = extend_input(v, shift_sequence(s, 33))
    assert ext.a == -3.0 and ext.b == 3.0
    assert ext.n == 3 * 32 + 1
    assert np.all(ext.values == 0.0)
    assert ext.h == pytest.approx(v.h)


def test_extend_traveling_wave_is_global_cosine():
    s = traveling_spec()
    v = GridFunction(-1.0, 1.0, 129, -np.cos(np.linspace(-1, 1, 129)))
    ext = extend_input(v, shift_sequence(s, 129))
    assert np.max(np.abs(ext.values + np.cos(ext.xs))) < 1e-10


def test_extend_recurrence_closure_everywhere():
    # holds for any input, feasible or not, by construction
    rng = np.random.default_rng(11)
    s = traveling_spec(K1=2, K2=2)
    n = 65
    v = GridFunction(-1.0, 1.0, n, rng.normal(size=n))
    ext = extend_input(v, shift_sequence(s, n))
    m = (n - 1) // 2  # T in node units
    idx = np.arange(m, ext.n - m)
    ys = ext.xs[idx]
    resid = ext.values[idx + m] - ext.values[idx - m] - recurrence_increment(s, ys)
    assert np.max(np.abs(resid)) < 1e-12


def test_extend_grid_mismatch():
    s = zero_spec()
    with pytest.raises(GridError):
        extend_input(GridFunction(-0.5, 1.0, 33, np.zeros(33)), shift_sequence(s, 33))
    with pytest.raises(GridError):
        shift_sequence(s, 64)
    # three nodes make a shift sequence, but too few for the prefix tables
    with pytest.raises(GridError):
        dalembert(GridFunction(-1.0, 1.0, 3, np.zeros(3)), shift_sequence(s, 3))


@pytest.mark.parametrize("function", ["extend_input", "dalembert", "verify_solution",
                                      "pms_sequence", "full_norm"])
def test_an_input_off_the_shift_grid_raises_grid_error(function):
    # v spans [-T, T] with 129 nodes, the sequence has 65: each function of the discretized
    # problem takes the sequence's grid as v's, and the integral gate of pms_sequence passes
    from waveinput.approx import pms_sequence
    from waveinput.verify import verify_solution

    s = traveling_spec()
    v = feasible_random_v(s, 129, np.random.default_rng(3))
    call = {
        "extend_input": lambda ts: extend_input(v, ts),
        "dalembert": lambda ts: dalembert(v, ts),
        "verify_solution": lambda ts: verify_solution(v, ts),
        "pms_sequence": lambda ts: pms_sequence(v, ts, [1e-1], 2),
        "full_norm": lambda ts: full_norm(v, ts, 2),
    }[function]
    call(shift_sequence(s, 129))  # on its own grid it runs
    with pytest.raises(GridError, match=r"^input has 129 nodes, the shift grid 65$"):
        call(shift_sequence(s, 65))


def test_extend_input_reads_the_rows_it_is_given():
    # a hand-made sequence whose spec is zero data: the extension is v - ts_k period by
    # period, closed by the zero recurrence, not the zero extension of the spec's own shifts
    from conftest import handmade_shifts

    x = np.linspace(-1.0, 1.0, 65)
    ts = handmade_shifts([x**2, np.zeros(65), np.sin(x)])
    v = GridFunction(-1.0, 1.0, 65, np.cos(x))
    ext = extend_input(v, ts)
    branch = v.values - ts.values
    assert ext.n == 3 * 64 + 1 and (ext.a, ext.b) == (-3.0, 3.0)
    np.testing.assert_array_equal(ext.values, np.append(branch[:, :-1].ravel(), branch[-1, 0]))
    assert np.any(ext.values != extend_input(v, shift_sequence(ts.spec, 65)).values)


def test_seam_jump_is_endpoint_violation():
    rng = np.random.default_rng(5)
    s = traveling_spec()
    n = 129
    v = feasible_random_v(s, n, rng, compatible=False)
    ext = extend_input(v, shift_sequence(s, n))
    seam = 2 * (n - 1)  # node x = T (right-limit branch stored)
    jump = abs(v.values[-1] - ext.values[seam])
    expected = abs(v.values[-1] - v.values[0] - s.c1)
    assert jump == pytest.approx(expected, abs=1e-10)
    # every seam of the extension carries that same jump, branch end to next branch start
    wide = traveling_spec(K1=2, K2=2)
    branch = dalembert(v, shift_sequence(wide, n)).branch
    jumps = np.abs(branch[:-1, -1] - branch[1:, 0])
    assert jumps.size == wide.K - 1
    assert jumps == pytest.approx(abs(v.values[-1] - v.values[0] - wide.c1), abs=1e-10)
    # a compatible input leaves no jump and restriction equals v everywhere
    vc = feasible_random_v(s, n, rng, compatible=True)
    extc = extend_input(vc, shift_sequence(s, n))
    lo = n - 1
    assert np.max(np.abs(extc.values[lo : lo + n] - vc.values)) < 1e-12


def test_dalembert_zero():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    field = dalembert(v, shift_sequence(s, 33))
    tt, xx = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-1.5, 1.5, 7))
    assert np.max(np.abs(field.u(tt, xx))) == 0.0


def test_dalembert_traveling_wave():
    s = traveling_spec()
    n = 257
    v = GridFunction(-1.0, 1.0, n, -np.cos(np.linspace(-1, 1, n)))
    field = dalembert(v, shift_sequence(s, n))
    rng = np.random.default_rng(1)
    pts = 0
    while pts < 400:
        x = rng.uniform(-3, 3)
        t = rng.uniform(0, 1)
        if not field.in_region(t, x):
            continue
        assert field.u(t, x) == pytest.approx(math.sin(x - t), abs=1e-7)
        pts += 1
    assert field.u(0.0, 0.3) == pytest.approx(math.sin(0.3), abs=1e-14)


def test_dalembert_terminal_value_for_feasible_input():
    rng = np.random.default_rng(9)
    s = traveling_spec()
    ts = shift_sequence(s, 513)
    for _ in range(5):
        v = feasible_random_v(s, 513, rng)
        field = dalembert(v, ts)
        assert field.u(s.T, 0.0) == pytest.approx(s.fT.value(0.0), abs=1e-8)


def test_dalembert_out_of_region():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    field = dalembert(v, shift_sequence(s, 33))
    with pytest.raises(OutOfRegion):
        field.u(1.5, 0.0)  # above the trapezoid cap t <= T
    with pytest.raises(OutOfRegion):
        field.u(0.5, -2.8)  # left of the characteristic through the corner
    assert field.u(0.0, -2.8) == 0.0  # on the base the trapezoid is full width


def random_field(seed, half, K1, K2, T):
    """Field of a random catalog problem and a rough random input."""
    rng = np.random.default_rng(seed)
    s = random_spec(rng, K1=K1, K2=K2, T=T)
    n = 2 * half + 1
    v = GridFunction(-T, T, n, rng.normal(size=n) * rng.uniform(0.1, 10.0))
    return rng, dalembert(v, shift_sequence(s, n))


def per_period_u(field, t, x):
    """Reference u: per-period cell lookup on each period's own prefix table.

    The window cell index is split into a period and a cell within it, and
    C is that period's prefix table raised by the integrals of the periods
    before it.  ``SolutionField.u`` must agree with this bit for bit.
    """
    branch = field.branch
    g = field.v_full
    h = g.h
    n = branch.shape[1]
    ptab = _prefix_tables(branch, h)
    offsets = np.concatenate([[0.0], np.cumsum(ptab[:, -1])])[:-1]

    def cumulative(s):
        j = np.clip(np.floor((s - g.a) / h).astype(int), 0, g.n - 2)
        per = j // (n - 1)
        jl = j - per * (n - 1)
        th = (s - (g.a + j * h)) / h
        c0 = offsets[per] + ptab[per, jl]
        c1 = offsets[per] + ptab[per, jl + 1]
        d0 = branch[per, jl]
        d1 = branch[per, jl + 1]
        h00 = (2 * th - 3) * th * th + 1.0
        h10 = ((th - 2) * th + 1.0) * th
        h01 = (3 - 2 * th) * th * th
        h11 = (th - 1.0) * th * th
        return h00 * c0 + h01 * c1 + h * (h10 * d0 + h11 * d1)

    f0 = field.spec.f0
    return 0.5 * (f0.value(x + t) + f0.value(x - t)) + 0.5 * (cumulative(x + t) - cumulative(x - t))


# conftest.random_spec's own ranges: these windows stay within [-7, 7]
FIELDS = dict(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(2, 80),
    K1=st.integers(1, 2),
    K2=st.integers(1, 2),
    T=st.floats(0.6, 1.4),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.floats(0.0, 1.0), **FIELDS)
# the gap reached 2.109e-14 here, over a gate of 64 ulps of the table alone (2.020e-14)
@example(seed=33, half=66, K1=2, K2=2, T=0.99999, row=0.546875)
def test_level_rows_match_u_on_nodes(seed, half, K1, K2, T, row):
    _, field = random_field(seed, half, K1, K2, T)
    j = int(round(row * half))
    g = field.v_full
    got = field.level(j)
    want = field.u(j * g.h, g.xs[j : g.n - j])
    eps = np.finfo(float).eps
    # 64 ulps of the table's sums, plus the offset of u's points: it rounds x +- t off
    # the nodes by about an ulp of the window's extent W, which moves f0 and C by the
    # slopes f0' and v_ext (the branch rows)
    lo, hi = field.spec.window
    slope = float(np.max(np.abs(field.spec.f0.d1(g.xs))) + np.max(np.abs(field.branch)))
    table = float(np.max(np.abs(field._F)) + np.max(np.abs(field._C)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 64 * eps * table + eps * (hi - lo) * slope
    with pytest.raises(OutOfRegion):
        field.level(half + 1)  # above the trapezoid cap t <= T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**FIELDS)
def test_u_matches_per_period_lookup_bitwise(seed, half, K1, K2, T):
    rng, field = random_field(seed, half, K1, K2, T)
    lo, hi = field.spec.window
    x = rng.uniform(lo, hi, 500)
    t = rng.uniform(0.0, 1.0, 500) * np.minimum(np.minimum(x - lo, hi - x), T)
    np.testing.assert_array_equal(field.u(t, x), per_period_u(field, t, x))


def test_full_norm_constant_input():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 65, np.ones(65))
    assert full_norm(v, shift_sequence(s, 65), 1) == pytest.approx(6.0, abs=1e-12)
    assert full_norm(v, shift_sequence(s, 65), 2) == pytest.approx(6.0, abs=1e-12)


def test_full_norm_traveling_wave():
    s = traveling_spec()
    n = 513
    v = GridFunction(-1.0, 1.0, n, -np.cos(np.linspace(-1, 1, n)))
    # window integral of cos^2 over [-3, 3] is 3 + sin(6)/2
    assert full_norm(v, shift_sequence(s, n), 2) == pytest.approx(3 + math.sin(6.0) / 2, abs=1e-10)


def test_reduction_identity_compatible_inputs():
    rng = np.random.default_rng(17)
    s = traveling_spec(K1=2, K2=1)
    ts = shift_sequence(s, 257)
    for _ in range(10):
        v = feasible_random_v(s, 257, rng, compatible=True)
        ext = extend_input(v, ts)
        for p in (1, 2):
            window = lp_norm(ext, p) ** p
            folded = full_norm(v, ts, p)
            assert abs(window - folded) <= 1e-6 * max(abs(window), 1e-12)


def test_segment_integrals_match_equilibrium():
    rng = np.random.default_rng(23)
    s = traveling_spec(K1=2, K2=2)
    n = 1025
    seg = segment_integrals(s)
    assert seg.shape == (s.K,)
    assert seg[s.K1] == pytest.approx(s.A, abs=1e-14)
    v = feasible_random_v(s, n, rng)
    for row, want in zip(shift_sequence(s, n).values, seg):
        assert integrate(v.with_values(v.values - row)) == pytest.approx(want, abs=1e-8)


# poly coefficients: 0, or 1e-6 to 100 in size, so that no product underflows
COEFF = st.one_of(st.just(0.0), st.floats(-100.0, -1e-6), st.floats(1e-6, 100.0))
POLY = st.lists(COEFF, min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(f0=POLY, fT=POLY, T=st.floats(0.1, 20.0), K1=st.integers(1, 3), K2=st.integers(1, 3))
def test_poly_constants_and_segment_integrals_match_exact_values(f0, fT, T, K1, K2):
    # within 64 ulps of the sum of the exact terms' absolute values, which bounds
    # the rounding of each term, of its argument and of their sum
    s = ProblemSpec(catalog("poly", f0), catalog("poly", fT), T, K1, K2)
    got = [s.A, s.c1, s.c2, *segment_integrals(s).tolist()]
    want = [*exact.constants(f0, fT, T), *exact.segment_terms(f0, fT, T, K1, K2)]
    ulp = Fraction(np.finfo(float).eps)
    for value, terms in zip(got, want, strict=True):
        assert abs(Fraction(value) - sum(terms)) <= 64 * ulp * sum(map(abs, terms))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(f0=POLY, fT=POLY, T=st.floats(0.1, 20.0), K1=st.integers(1, 3), K2=st.integers(1, 3))
def test_poly_shifts_envelopes_and_strip_duals_match_exact_values(f0, fT, T, K1, K2):
    # The exact shifts, sorted descending at each node and summed with the float Simpson
    # weights taken exactly, give the envelope integrals and the L1 duals with no float
    # sort.  Each shift is within 64 ulps of its terms' absolute sum; the integrals are
    # within 64 ulps of S = sum_i w_i sum_k |terms|, which bounds the shifts' rounding
    # and the sums', and the duals within 64 ulps of S + K |A|.
    from waveinput.l1 import order_envelopes, strip_duals

    s = ProblemSpec(catalog("poly", f0), catalog("poly", fT), T, K1, K2)
    ts = shift_sequence(s, 65)
    terms = exact.shift_terms(f0, fT, T, K1, K2, ts.grid.xs.tolist())
    ulp = Fraction(np.finfo(float).eps)
    for got, row in zip(ts.values.tolist(), terms, strict=True):
        for value, t in zip(got, row, strict=True):
            assert abs(Fraction(value) - sum(t)) <= 64 * ulp * sum(map(abs, t))
    w = list(map(Fraction, simpson_weights(ts.n, ts.grid.h).tolist()))
    scale = sum(wi * sum(sum(map(abs, row[i])) for row in terms) for i, wi in enumerate(w))
    nodes = [sorted((sum(row[i]) for row in terms), reverse=True) for i in range(ts.n)]
    integrals = [sum(wi * node[j] for wi, node in zip(w, nodes)) for j in range(s.K)]
    A, S = Fraction(s.A), [sum(integrals[:j]) for j in range(s.K + 1)]
    duals = [(s.K - 2 * j) * A + 2 * S[j] - S[-1] for j in range(s.K + 1)]
    got = order_envelopes(ts).integrals
    for value, want in zip(got.tolist(), integrals, strict=True):
        assert abs(Fraction(value) - want) <= 64 * ulp * scale
    for value, want in zip(strip_duals(got, s.A).tolist(), duals, strict=True):
        assert abs(Fraction(value) - want) <= 64 * ulp * (scale + s.K * abs(A))


def test_decision_grid_tolerance_is_relative_to_T():
    # at T = 2^-40 an absolute 1e-9 took [-2T, 2T] for the decision interval
    T = 2.0**-40
    s = traveling_spec(T=T)
    with pytest.raises(GridError, match="must span the decision interval"):
        full_norm(GridFunction(-2 * T, 2 * T, 65, np.zeros(65)), shift_sequence(s, 65), 1)


def test_region_slack_is_relative_to_the_window():
    # at T = 2^-40 an absolute slack of 1e-12 let t = 2T into the trapezoid
    T = 2.0**-40
    ts = shift_sequence(traveling_spec(T=T), 65)
    field = dalembert(GridFunction(-T, T, 65, np.zeros(65)), ts)
    assert field.in_region(T, 0.0) and not field.in_region(2 * T, 0.0)


# ---------------------------------------------------------------- dilations

def _draw(rng):
    """A catalog family and parameters, tame as conftest.random_spec draws them."""
    fam = str(rng.choice(["sin", "cos", "gaussian", "poly", "tanh-bump"]))
    if fam in ("sin", "cos"):
        return fam, [rng.uniform(0.4, 1.6), rng.uniform(-1, 1)]
    if fam in ("gaussian", "tanh-bump"):
        return fam, [rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.8, 2.0)]
    return fam, list(rng.normal(scale=0.3, size=3))


def _dilated(fam, params, s, lam):
    """The catalog entry of s f(x / lam), through the family's own parameters."""
    from conftest import scaled

    if fam in ("sin", "cos"):
        return scaled(catalog(fam, [params[0] / lam, params[1]]), s)
    if fam == "poly":
        return catalog(fam, [c * s / lam**j for j, c in enumerate(params)])
    amp, center, width = params
    return catalog(fam, [amp * s, center * lam, width * lam])


# the norms whose pms_sequence entries scale: the L1 bound 2KT eps scales by s lam, not
# by s, and at (40, 10) the absolute 1e-8 integral gate rejects the dilated input
PMS_NORMS = {(-30, -4): (2,), (20, 0): (1, 2), (-8, 2): (2,)}


@pytest.mark.parametrize("m, k", [(-30, -4), (40, 10), (20, 0), (-8, 2), (0, -8)])
def test_power_of_two_dilation_scales_every_output_bit_for_bit(m, k):
    # u -> s u(t / lam, x / lam) maps solutions to solutions, and with s = 2^m and
    # lam = 2^k every product and sum scales exactly: so do A, c1, c2, both
    # minimizers, their objectives, the smoothed node values (k even: the L2
    # budget scales by s lam^(-1/2)), the L1 best attempt at a budget below the
    # rounding floor and the pms norm gaps and bounds; the oracles' verdicts and
    # relative gaps and the pms flags are the same
    from waveinput.approx import approximate_c1, pms_sequence
    from waveinput.errors import ApproxBudgetExceeded
    from waveinput.l1 import construct_h, order_envelopes, select_strip
    from waveinput.l2 import l2_minimizer
    from waveinput.oracle import l1_oracle, l2_oracle

    s, lam, n = 2.0**m, 2.0**k, 257
    rng = np.random.default_rng(7)
    pms_norms = PMS_NORMS.get((m, k), ())

    def solved(spec, unit):
        """Constants, node values, objectives, oracle reports and pms entries; unit[p]
        is the Lp budget's."""
        ts = shift_sequence(spec, n)
        env = order_envelopes(ts)
        l1 = construct_h(env, select_strip(env, spec.A), spec.A)
        l2 = l2_minimizer(ts, spec.A)
        minimizers = {1: l1.h, 2: l2.v}
        smooth = []
        # 1e-17 is below the rounding floor; at p = 2 the corner width it asks for is below
        # 2h, where the closed form's cube root does not scale exactly
        for eps, norms in ((1e-1, (1, 2)), (1e-3, (1, 2)), (1e-17, (1,))):
            for p in norms:
                v, budget = minimizers[p], eps * unit[p]
                try:
                    smooth.append(approximate_c1(v, spec.c1, spec.c2, spec.A, budget, p).g)
                except ApproxBudgetExceeded as exc:
                    smooth.append(exc.result.g)
        reports = [(r.converged, r.rel_gap) for r in (l1_oracle(ts, spec.A), l2_oracle(ts, spec.A))]
        pms = [
            (p, e.norm_gap, e.bound, e.satisfied)
            for p in pms_norms
            for e in pms_sequence(minimizers[p], ts, [1e-1 * unit[p], 1e-3 * unit[p]], p)
        ]
        values = (l1.h.values, l2.v.values, *(g.values for g in smooth))
        return (spec.A, spec.c1, spec.c2), values, (l1.objective, l2.objective), reports, pms

    objective_unit = {1: s, 2: s * s / lam}
    for _ in range(6):
        (f0, p0), (fT, pT) = _draw(rng), _draw(rng)
        T, K1, K2 = rng.uniform(0.6, 1.4), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        base = ProblemSpec(catalog(f0, p0), catalog(fT, pT), T, K1, K2)
        big = ProblemSpec(_dilated(f0, p0, s, lam), _dilated(fT, pT, s, lam), lam * T, K1, K2)
        (ca, va, oa, ra, pa), (cb, vb, ob, rb, pb) = (
            solved(base, {1: 1.0, 2: 1.0}), solved(big, {1: s, 2: s / lam**0.5})
        )
        assert cb == (ca[0] * s, ca[1] * s / lam, ca[2] * s / lam**2)
        for x, y in zip(va, vb, strict=True):
            np.testing.assert_array_equal(y, x * (s / lam))
        assert (ob, rb) == ((oa[0] * objective_unit[1], oa[1] * objective_unit[2]), ra)
        u = objective_unit
        assert pb == [(p, gap * u[p], bound * u[p], ok) for p, gap, bound, ok in pa]
