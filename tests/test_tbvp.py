import math

import numpy as np
import pytest
from conftest import random_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from waveinput.errors import DomainError, GridError, OutOfRegion
from waveinput.functions import GridFunction, catalog, integrate, lp_norm
from waveinput.tbvp import (
    ProblemSpec,
    dalembert,
    extend_input,
    full_norm,
    recurrence_increment,
    _prefix_tables,
    segment_integrals,
    shift_sequence,
)

ZERO = catalog("zero", [])
SIN = catalog("sin", [1.0, 0.0])


def zero_spec(K1=1, K2=1, T=1.0):
    return ProblemSpec(ZERO, ZERO, T, K1, K2)


def traveling_spec(K1=1, K2=1, T=1.0):
    # u(t, x) = sin(x - t) solves the problem with f0 = sin, fT = sin(x - T)
    # and has the globally smooth input v(x) = -cos(x).
    return ProblemSpec(SIN, catalog("sin", [1.0, -T]), T, K1, K2)


def feasible_random_v(spec, n, rng, compatible=False):
    """Smooth random input with Simpson integral exactly A.

    With compatible=True a linear ramp is added first so that
    v(T) - v(-T) = c1 (the extension then has no seam jumps).
    """
    g = GridFunction(-spec.T, spec.T, n, np.zeros(n))
    xs = g.xs
    vals = np.zeros(n)
    for _ in range(3):
        w = rng.uniform(0.3, 2.0)
        vals += rng.normal() * np.sin(w * xs) + rng.normal() * np.cos(w * xs)
    if compatible:
        alpha = (spec.c1 - (vals[-1] - vals[0])) / (2 * spec.T)
        vals += alpha * xs
    g.values = vals
    g.values = vals + (spec.A - integrate(g)) / (2 * spec.T)
    return g


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
    with pytest.raises(DomainError):
        ProblemSpec(ZERO, ZERO, 1.0, 0, 1)
    narrow = catalog("zero", [], domain=(-1.0, 1.0))
    with pytest.raises(DomainError):
        ProblemSpec(narrow, narrow, 1.0, 1, 1)


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


def test_extend_zero():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    ext = extend_input(v, s)
    assert ext.a == -3.0 and ext.b == 3.0
    assert ext.n == 3 * 32 + 1
    assert np.all(ext.values == 0.0)
    assert ext.h == pytest.approx(v.h)


def test_extend_traveling_wave_is_global_cosine():
    s = traveling_spec()
    v = GridFunction(-1.0, 1.0, 129, -np.cos(np.linspace(-1, 1, 129)))
    ext = extend_input(v, s)
    assert np.max(np.abs(ext.values + np.cos(ext.xs))) < 1e-10


def test_extend_recurrence_closure_everywhere():
    # holds for any input, feasible or not, by construction
    rng = np.random.default_rng(11)
    s = traveling_spec(K1=2, K2=2)
    n = 65
    v = GridFunction(-1.0, 1.0, n, rng.normal(size=n))
    ext = extend_input(v, s)
    m = (n - 1) // 2  # T in node units
    idx = np.arange(m, ext.n - m)
    ys = ext.xs[idx]
    resid = ext.values[idx + m] - ext.values[idx - m] - recurrence_increment(s, ys)
    assert np.max(np.abs(resid)) < 1e-12


def test_extend_grid_mismatch():
    s = zero_spec()
    with pytest.raises(GridError):
        extend_input(GridFunction(-0.5, 1.0, 33, np.zeros(33)), s)


def test_seam_jump_is_endpoint_violation():
    rng = np.random.default_rng(5)
    s = traveling_spec()
    n = 129
    v = feasible_random_v(s, n, rng, compatible=False)
    ext = extend_input(v, s)
    seam = 2 * (n - 1)  # node x = T (right-limit branch stored)
    jump = abs(v.values[-1] - ext.values[seam])
    expected = abs(v.values[-1] - v.values[0] - s.c1)
    assert jump == pytest.approx(expected, abs=1e-10)
    # a compatible input leaves no jump and restriction equals v everywhere
    vc = feasible_random_v(s, n, rng, compatible=True)
    extc = extend_input(vc, s)
    lo = n - 1
    assert np.max(np.abs(extc.values[lo : lo + n] - vc.values)) < 1e-12


def test_dalembert_zero():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    field = dalembert(v, s)
    tt, xx = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-1.5, 1.5, 7))
    assert np.max(np.abs(field.u(tt, xx))) == 0.0


def test_dalembert_traveling_wave():
    s = traveling_spec()
    n = 257
    v = GridFunction(-1.0, 1.0, n, -np.cos(np.linspace(-1, 1, n)))
    field = dalembert(v, s)
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
    for _ in range(5):
        v = feasible_random_v(s, 513, rng)
        field = dalembert(v, s)
        assert field.u(s.T, 0.0) == pytest.approx(s.fT.value(0.0), abs=1e-8)


def test_dalembert_out_of_region():
    s = zero_spec()
    v = GridFunction(-1.0, 1.0, 33, np.zeros(33))
    field = dalembert(v, s)
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
    return rng, dalembert(v, s)


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


# conftest.random_spec's own ranges.  u rounds x +- t off the nodes by up to
# an ulp of the window's extent, so its gap to the node rows grows with the
# window times the slope of f0: these windows stay within [-7, 7].
FIELDS = dict(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(2, 80),
    K1=st.integers(1, 2),
    K2=st.integers(1, 2),
    T=st.floats(0.6, 1.4),
)


@settings(max_examples=60, deadline=None)
@given(row=st.floats(0.0, 1.0), **FIELDS)
def test_level_rows_match_u_on_nodes(seed, half, K1, K2, T, row):
    _, field = random_field(seed, half, K1, K2, T)
    j = int(round(row * half))
    g = field.v_full
    got = field.level(j)
    want = field.u(j * g.h, g.xs[j : g.n - j])
    scale = float(np.max(np.abs(field._F)) + np.max(np.abs(field._C)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * scale
    with pytest.raises(OutOfRegion):
        field.level(half + 1)  # above the trapezoid cap t <= T


@settings(max_examples=60, deadline=None)
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
    assert full_norm(v, s.shifts(65), 1) == pytest.approx(6.0, abs=1e-12)
    assert full_norm(v, s.shifts(65), 2) == pytest.approx(6.0, abs=1e-12)


def test_full_norm_traveling_wave():
    s = traveling_spec()
    n = 513
    v = GridFunction(-1.0, 1.0, n, -np.cos(np.linspace(-1, 1, n)))
    # window integral of cos^2 over [-3, 3] is 3 + sin(6)/2
    assert full_norm(v, s.shifts(n), 2) == pytest.approx(3 + math.sin(6.0) / 2, abs=1e-10)


def test_reduction_identity_compatible_inputs():
    rng = np.random.default_rng(17)
    s = traveling_spec(K1=2, K2=1)
    for _ in range(10):
        v = feasible_random_v(s, 257, rng, compatible=True)
        ext = extend_input(v, s)
        for p in (1, 2):
            window = lp_norm(ext, p) ** p
            folded = full_norm(v, s.shifts(257), p)
            assert abs(window - folded) <= 1e-6 * max(abs(window), 1e-12)


def test_segment_integrals_match_equilibrium():
    rng = np.random.default_rng(23)
    s = traveling_spec(K1=2, K2=2)
    n = 1025
    seg = segment_integrals(s)
    assert seg.shape == (s.K,)
    assert seg[s.K1] == pytest.approx(s.A, abs=1e-14)
    v = feasible_random_v(s, n, rng)
    for row, want in zip(s.shifts(n).values, seg):
        assert integrate(v.with_values(v.values - row)) == pytest.approx(want, abs=1e-8)
