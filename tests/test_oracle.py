import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import handmade_shifts, random_spec
from waveinput.functions import catalog, simpson_weights
from waveinput.l1 import order_envelopes, select_strip, strip_duals
from waveinput.l2 import l2_minimizer
from waveinput.oracle import answer, l1_oracle, l2_oracle
from waveinput.tbvp import ProblemSpec, full_norm, shift_sequence


EPS = np.finfo(float).eps


def test_l2_oracle_zero_problem():
    ts = handmade_shifts(np.zeros((3, 65)))
    rep = l2_oracle(ts, 0.0)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.oracle_value == 0.0
    assert np.all(answer(ts, 0.0, "l2").v.values == 0.0)


def test_l2_oracle_constant_solution():
    ts = handmade_shifts(np.zeros((3, 65)))
    rep = l2_oracle(ts, 2.0)
    assert rep.converged
    assert rep.iterations == 1
    # K * 1^2 over [-1, 1]; the Simpson weights sum to 2 up to rounding
    assert rep.oracle_value == pytest.approx(6.0, rel=4 * EPS, abs=0)
    assert np.all(answer(ts, 2.0, "l2").v.values == 1.0)


def test_l2_oracle_matches_closed_form():
    rng = np.random.default_rng(8)
    spec = random_spec(rng, K1=1, K2=1)
    ts = shift_sequence(spec, 129)
    rep = l2_oracle(ts, spec.A)
    assert rep.converged
    assert rep.rel_gap < 1e-6
    sol = l2_minimizer(ts, spec.A)
    ans = answer(ts, spec.A, "l2")
    assert np.max(np.abs(ans.v.values - sol.v.values)) < 1e-5
    assert ans.env is None


def test_l2_oracle_input_meets_constraint():
    rng = np.random.default_rng(21)
    spec = random_spec(rng, K1=1, K2=2)
    ts = shift_sequence(spec, 129)
    w = simpson_weights(129, ts.grid.h)
    assert l2_oracle(ts, spec.A).converged
    assert abs(np.dot(w, answer(ts, spec.A, "l2").v.values) - spec.A) <= 1e-12


def _scale(ts, A):
    """S = sum_i w_i sum_k |ts_k,i| + K |A|, the size rounding is measured in."""
    w = simpson_weights(ts.n, ts.grid.h)
    return float(np.dot(w, np.abs(ts.values).sum(axis=0))) + ts.K * abs(A)


def _dual_at(ts, A, lam):
    """Lagrangian dual at one multiplier, the inner minimum taken over shift values: the
    O(K^2 n) reference that takes no sort."""
    w = simpson_weights(ts.n, ts.grid.h)
    tv = ts.values
    per_row = [np.abs(tv - row).sum(axis=0) - lam * row for row in tv]
    return lam * A + float(np.dot(w, np.min(per_row, axis=0)))


def test_l1_oracle_zero_problem():
    ts = handmade_shifts(np.zeros((3, 65)))
    rep = l1_oracle(ts, 0.0)
    assert rep.converged
    assert rep.oracle_value == 0.0
    assert rep.iterations == 4


def test_l1_oracle_median_case():
    ts = handmade_shifts(np.stack([np.zeros(65), np.ones(65), -np.ones(65)]))
    rep = l1_oracle(ts, 0.0)
    assert rep.converged
    # the pointwise median (zero) already meets the constraint; value is
    # the integral of |1| + |-1| over [-1, 1]
    assert rep.oracle_value == pytest.approx(4.0, rel=2 * EPS, abs=0)


def test_l1_oracle_certifies_strip_construction():
    rng = np.random.default_rng(33)
    spec = random_spec(rng, K1=1, K2=1)
    ts = shift_sequence(spec, 129)
    rep = l1_oracle(ts, spec.A)
    assert rep.converged
    assert rep.rel_gap < 1e-4
    assert abs(rep.oracle_value - rep.analytic_value) <= 64 * EPS * _scale(ts, spec.A)
    w = simpson_weights(129, ts.grid.h)
    assert abs(np.dot(w, answer(ts, spec.A, "l1").v.values) - spec.A) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    K=st.integers(3, 9),
    half=st.integers(32, 256),
    log_amp=st.floats(-6.0, 6.0),
    a=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_l1_dual_is_exact_on_random_shift_arrays(K, half, log_amp, a, seed):
    rng = np.random.default_rng(seed)
    amp = 10.0**log_amp
    rows = amp * rng.normal(size=(K, 2 * half + 1))
    # row 1 is period 0, which vanishes in every shift sequence; the edge
    # strips of construct_h rely on it (a_1 >= 0 >= a_K pointwise)
    rows[1] = 0.0
    ts = handmade_shifts(rows)
    A = a * amp
    tol = 64 * EPS * _scale(ts, A)
    rep = l1_oracle(ts, A)
    v0 = answer(ts, A, "l1").v.values
    assert rep.converged
    assert abs(rep.oracle_value - rep.analytic_value) <= tol
    # weak duality: the dual is a floor under every feasible input, also
    # under those next to the optimum
    w = simpson_weights(ts.n, ts.grid.h)
    for step in (1.0, 1e-4, 1e-8):
        vals = v0 + step * amp * rng.normal(size=ts.n)
        v = ts.grid.with_values(vals + (A - np.dot(w, vals)) / w.sum())
        norm = full_norm(v, ts, 1)
        assert rep.oracle_value <= norm + tol + 64 * EPS * norm
    # the strip index names the maximizing multiplier
    env = order_envelopes(ts)
    j = select_strip(env, A)
    assert abs(_dual_at(ts, A, K - 2 * j) - rep.oracle_value) <= tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    K1=st.integers(1, 8),
    K2=st.integers(1, 8),
    half=st.integers(32, 300),
    t=st.floats(-0.25, 1.25),
    seed=st.integers(0, 2**32 - 1),
)
def test_l1_dual_closed_form_matches_the_no_sort_reference(K1, K2, half, t, seed):
    """strip_duals' entry j is the dual at K - 2j taken over every shift with no sort, and
    its largest entry, at select_strip's j, is l1_oracle's value: the strip's slope is the
    maximizing multiplier.  A is the draw's own, then one placed across the envelope integrals."""
    spec = random_spec(np.random.default_rng(seed), K1, K2)
    ts = shift_sequence(spec, 2 * half + 1)
    env = order_envelopes(ts)
    top, bottom = env.integrals[0], env.integrals[-1]
    for A in (spec.A, float(bottom + t * (top - bottom))):
        tol = 64 * EPS * _scale(ts, A)
        ref = np.array([_dual_at(ts, A, ts.K - 2 * j) for j in range(ts.K + 1)])
        g = strip_duals(env.integrals, A)
        assert np.all(np.abs(g - ref) <= tol)
        assert abs(l1_oracle(ts, A).oracle_value - ref.max()) <= tol
        assert abs(g[select_strip(env, A)] - ref.max()) <= tol


def test_l1_oracle_certifies_a_window_of_1001_periods():
    """K1 = K2 = 500 at n = 2049: the compensated prefix sum keeps the dual within the
    unchanged 64-ulp allowance at K = 1001."""
    f0, fT = catalog("gaussian", [1.0, 0.1, 0.6]), catalog("sin", [1.2, 0.8])
    ts = shift_sequence(ProblemSpec(f0, fT, 1.0, 500, 500), 2049)
    A = ts.spec.A
    rep = l1_oracle(ts, A)
    assert (ts.K, rep.iterations, rep.converged) == (1001, 1002, True)
    assert abs(rep.oracle_value - rep.analytic_value) <= 64 * EPS * _scale(ts, A)


def _scale2(ts, v):
    """S2 = sum_i w_i sum_k (|ts_k,i| + |v_i|)^2, the size rounding is measured in."""
    w = simpson_weights(ts.n, ts.grid.h)
    return float(np.dot(w, ((np.abs(ts.values) + np.abs(v)) ** 2).sum(axis=0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    K=st.integers(3, 17),
    half=st.integers(32, 600),
    log_amp=st.floats(-6.0, 6.0),
    offset=st.floats(-50.0, 50.0),
    a=st.floats(-40.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_l2_dual_is_exact_on_random_shift_arrays(K, half, log_amp, offset, a, seed):
    rng = np.random.default_rng(seed)
    amp = 10.0**log_amp
    ts = handmade_shifts(amp * (rng.normal(size=(K, 2 * half + 1)) + offset))
    A = a * amp
    rep = l2_oracle(ts, A)
    v0 = answer(ts, A, "l2").v.values
    assert rep.converged
    assert rep.iterations == 1
    tol = 64 * EPS * _scale2(ts, v0)
    assert abs(rep.oracle_value - rep.analytic_value) <= tol
    w = simpson_weights(ts.n, ts.grid.h)
    m = ts.values.mean(axis=0)
    c = (A - np.dot(w, m)) / 2.0
    feas_scale = np.dot(w, np.abs(m) + abs(c)) + abs(A)
    assert abs(np.dot(w, v0) - A) <= 64 * EPS * feas_scale
    # weak duality: the dual is a floor under every feasible input, also
    # under those next to the optimum
    for step in (1.0, 1e-4, 1e-8):
        vals = v0 + step * amp * rng.normal(size=ts.n)
        v = ts.grid.with_values(vals + (A - np.dot(w, vals)) / w.sum())
        norm = full_norm(v, ts, 2)
        assert rep.oracle_value <= norm + tol + 64 * EPS * norm
