import math

import numpy as np
import pytest

from waveinput.errors import (
    BadParams,
    DomainError,
    GridError,
    UnknownCatalogEntry,
    UnsupportedNorm,
)
from waveinput.functions import (
    GAUSS_W,
    GAUSS_X,
    C1GridFunction,
    GridFunction,
    SmoothFunction,
    catalog,
    from_samples,
    gauss,
    integrate,
    lp_norm,
    sample,
    simpson_weights,
    wsum,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


CATALOG_CASES = [
    ("poly", [1.0, -2.0, 0.5, 3.0]),
    ("sin", [2.0, 0.3]),
    ("cos", [1.5, -0.7]),
    ("gaussian", [2.0, 0.4, 0.8]),
    ("tanh-bump", [1.3, -0.2, 0.6]),
]


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_catalog_derivatives_match_difference_quotients(name, params):
    f = catalog(name, params)
    xs = np.linspace(-1.5, 1.5, 11)
    for x in xs:
        assert f.d1(x) == pytest.approx(central_diff(f.value, x), abs=1e-7)
        assert f.d2(x) == pytest.approx(central_diff(f.d1, x), abs=1e-7)


@pytest.mark.parametrize("amp, sigma", [(2.0, 0.8), (-1e12, 0.05), (1.0, 1e-3)])
def test_gaussian_clip_moves_no_bit(amp, sigma):
    # the evaluators clip x - mu at 40 sigma, where the exponential is 0.0 already
    f = catalog("gaussian", [amp, 0.1, sigma])
    x = 0.1 + np.linspace(-60.0, 60.0, 1201) * sigma
    z, s2 = x - 0.1, sigma * sigma
    e = np.exp(-z * z / (2 * s2))
    formula = (amp * e, -amp * z / s2 * e, amp * (z * z / (s2 * s2) - 1.0 / s2) * e)
    for got, want in zip((f.value(x), f.d1(x), f.d2(x)), formula):
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_catalog_zero_and_const():
    z = catalog("zero", [])
    c = catalog("const", [3.25])
    xs = np.linspace(-2, 2, 9)
    assert np.all(z(xs) == 0)
    assert np.all(c(xs) == 3.25)
    assert np.all(c.d1(xs) == 0)
    assert np.all(c.d2(xs) == 0)


@pytest.mark.parametrize("w,phi", [(2.0, 0.3), (-0.7, 2.0), (math.pi / 3, 0.0)])
def test_catalog_trig_and_zero_bitwise_against_numpy(w, phi):
    refs = {
        ("sin", w, phi): (
            lambda x: np.sin(w * x + phi),
            lambda x: w * np.cos(w * x + phi),
            lambda x: -w * w * np.sin(w * x + phi),
        ),
        ("cos", w, phi): (
            lambda x: np.cos(w * x + phi),
            lambda x: -w * np.sin(w * x + phi),
            lambda x: -w * w * np.cos(w * x + phi),
        ),
        ("zero",): (np.zeros_like,) * 3,
    }
    xs = np.linspace(-40.0, 40.0, 10001)
    for (name, *params), ref_fns in refs.items():
        f = catalog(name, params)
        for got, ref in zip((f.value, f.d1, f.d2), ref_fns):
            for x in (xs, np.float64(0.0), np.float64(-1.25), np.float64(3.0)):
                a, b = np.asarray(got(x)), np.asarray(ref(x))
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_catalog_poly_bitwise_against_numpy_polynomial():
    # the Horner steps of numpy.polynomial on ascending powers, taken on descending ones
    from numpy.polynomial import polynomial as npoly

    rng = np.random.default_rng(5)
    xs = rng.normal(scale=3.0, size=64)
    for _ in range(2000):
        c = rng.normal(size=rng.integers(1, 7)) * 10.0 ** rng.integers(-3, 4)
        f = catalog("poly", c)
        ref = c
        for got in (f.value, f.d1, f.d2):
            want = npoly.polyval(xs, ref)
            assert got(xs).tobytes() == want.tobytes()
            assert np.float64(got(xs[0])).tobytes() == want[:1].tobytes()
            ref = npoly.polyder(ref) if ref.size > 1 else np.zeros(1)


def test_catalog_poly_values():
    # 1 - 2x + 0.5x^2 at x=2: 1 - 4 + 2 = -1
    f = catalog("poly", [1.0, -2.0, 0.5])
    assert f(2.0) == pytest.approx(-1.0)
    assert f.d1(2.0) == pytest.approx(-2.0 + 1.0 * 2.0)
    assert f.d2(2.0) == pytest.approx(1.0)


def test_catalog_rejects_unknown_and_bad_arity():
    with pytest.raises(UnknownCatalogEntry):
        catalog("sinc", [1.0])
    with pytest.raises(BadParams):
        catalog("sin", [1.0])
    with pytest.raises(BadParams):
        catalog("gaussian", [1.0, 0.0, 0.0])
    with pytest.raises(BadParams):
        catalog("tanh-bump", [1.0, 0.0, 0.0])
    with pytest.raises(BadParams):
        catalog("poly", [])


def test_spline_source_interpolates_and_keeps_domain():
    xs = np.linspace(0.0, 2.0, 21)
    ys = np.sin(xs)
    f = from_samples(xs, ys)
    assert f.domain == (0.0, 2.0)
    probe = np.linspace(0.05, 1.95, 17)
    # natural end conditions clash with sin'' != 0 at x=2, so accuracy is
    # boundary-limited here rather than O(h^4)
    assert np.max(np.abs(f(probe) - np.sin(probe))) < 1e-3
    assert np.max(np.abs(f.d1(probe) - np.cos(probe))) < 1e-2


def test_spline_rejects_short_or_unsorted_input():
    with pytest.raises(BadParams):
        from_samples([0, 1, 2], [0, 1, 2])
    with pytest.raises(BadParams):
        from_samples([0, 1, 1, 2], [0, 1, 2, 3])


def test_spline_rejects_non_finite_or_mismatched_samples():
    with pytest.raises(BadParams):
        from_samples([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    with pytest.raises(BadParams):
        from_samples([0.0, 1.0, 2.0, 3.0], [0.0, math.inf, 2.0, 3.0])
    with pytest.raises(BadParams):
        from_samples([0.0, 1.0, math.nan, 3.0], [0.0, 1.0, 2.0, 3.0])


def _scipy_natural_spline(xs, ys):
    # scipy is a test-only dependency: its spline is the reference here
    from scipy.interpolate import CubicSpline

    ref = CubicSpline(xs, ys, bc_type="natural")
    return ref, ref.derivative(1), ref.derivative(2)


def _assert_matches_scipy(xs, ys, probe):
    f = from_samples(xs, ys)
    refs = _scipy_natural_spline(xs, ys)
    for mine, ref, rel in zip((f.value, f.d1, f.d2), refs, (1e-14, 1e-14, 1e-11)):
        want = ref(probe)
        assert np.max(np.abs(mine(probe) - want)) <= rel * np.max(np.abs(want))
    assert f.d2(xs[0]) == 0.0


def test_spline_matches_scipy_natural_spline():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = int(rng.integers(4, 401))
        xs = np.cumsum(rng.uniform(0.02, 1.0, n)) * 10.0 ** rng.uniform(-2, 2)
        xs -= xs[n // 3]
        ys = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n)
        _assert_matches_scipy(xs, ys, np.concatenate([xs, rng.uniform(xs[0], xs[-1], 300)]))


def test_spline_four_points_and_end_extrapolation():
    xs = np.array([-1.5, -0.2, 0.4, 2.0])
    ys = np.array([0.3, -1.0, 2.5, 0.7])
    _assert_matches_scipy(xs, ys, np.array([xs[0] - 1e-12, -1.0, 0.0, 1.0, xs[-1] + 1e-12]))
    f = from_samples(xs, ys)
    assert np.array_equal(f(xs[:-1]), ys[:-1])


def test_grid_validation():
    with pytest.raises(GridError):
        GridFunction(0.0, 1.0, 4, np.zeros(4))
    with pytest.raises(GridError):
        GridFunction(0.0, 1.0, 5, np.zeros(6))
    with pytest.raises(GridError):
        GridFunction(1.0, 0.0, 5, np.zeros(5))
    with pytest.raises(GridError):
        GridFunction(0.0, 1.0, 5, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))
    with pytest.raises(GridError):
        C1GridFunction(0.0, 1.0, 5, np.zeros(5), np.zeros(4))
    g = GridFunction(0.0, 1.0, 5, np.ones(5))
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.xs, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_respects_domain():
    f = from_samples(np.linspace(0, 1, 9), np.zeros(9))
    with pytest.raises(DomainError):
        sample(f, -0.5, 0.5, 17)


def test_domain_slack_is_relative_to_the_interval():
    # at a width of 2^-40 an absolute slack of 1e-12 took [-2T, 2T] for a subset of [-T, T]
    T = 2.0**-40
    f = from_samples(np.linspace(-T, T, 9), np.zeros(9))
    assert f.covers(-T, T) and not f.covers(-2 * T, 2 * T)


def test_sample_rejects_non_finite_values():
    def log_past_half(x):  # nan, nan, -inf, log 0.25, log 0.5 on the 5 nodes of [0, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.asarray(x) - 0.5)

    with pytest.raises(GridError, match="finite"):
        sample(SmoothFunction(log_past_half, log_past_half, log_past_half), 0.0, 1.0, 5)


def test_simpson_exact_for_cubics():
    g = GridFunction(-1.0, 2.0, 7, np.zeros(7))
    xs = g.xs
    # integral of x^3 - x + 2 over [-1, 2] is [x^4/4 - x^2/2 + 2x] = 8.25
    g.values = xs**3 - xs + 2.0
    assert integrate(g) == pytest.approx(8.25, abs=1e-13)


def test_simpson_weights_shape_and_sum():
    w = simpson_weights(9, 0.125)
    assert w.shape == (9,)
    assert w.sum() == pytest.approx(1.0)  # integrates the constant 1 over [0, 1]
    with pytest.raises(GridError):
        simpson_weights(8, 0.125)


def test_integrate_sin_accuracy_and_order():
    f = catalog("sin", [1.0, 0.0])
    err = abs(integrate(sample(f, 0.0, math.pi, 129)) - 2.0)
    assert err < 1e-8
    err2 = abs(integrate(sample(f, 0.0, math.pi, 257)) - 2.0)
    # composite Simpson is 4th order: halving h cuts the error ~16x
    assert err / err2 == pytest.approx(16.0, rel=0.25)


def test_gauss_rule_is_leggauss_8_and_exact_to_degree_15():
    # the constants are numpy's leggauss(8) as found by its eigenvalue solve here; another
    # LAPACK build may round that solve differently, so the check allows one ulp
    from numpy.polynomial import legendre

    x, w = legendre.leggauss(8)
    assert np.all(np.abs(GAUSS_X - x) <= np.spacing(np.abs(x)))
    assert np.all(np.abs(GAUSS_W - w) <= np.spacing(w))
    assert np.array_equal(GAUSS_X, -GAUSS_X[::-1]) and np.array_equal(GAUSS_W, GAUSS_W[::-1])
    pts, wts = gauss(np.array([-1.0, 0.5, 2.0]))
    assert pts.shape == wts.shape == (16,)
    assert wsum(wts, pts**15) == pytest.approx((2.0**16 - 1.0) / 16.0, rel=1e-14)
    assert wsum(wts, pts**16) != pytest.approx((2.0**17 + 1.0) / 17.0, rel=1e-14)


def test_lp_norms():
    f = catalog("gaussian", [1.0, 0.0, 1.0])
    g = sample(f, -8.0, 8.0, 257)
    # ||f||_2^2 = integral exp(-x^2) = sqrt(pi)
    assert lp_norm(g, 2) == pytest.approx(math.pi**0.25, abs=1e-9)
    assert lp_norm(g, 1) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-9)
    with pytest.raises(UnsupportedNorm):
        lp_norm(g, 3)


def test_lp_norm_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = GridFunction(0.0, 1.0, 33, rng.normal(size=33))
        v = GridFunction(0.0, 1.0, 33, rng.normal(size=33))
        s = GridFunction(0.0, 1.0, 33, u.values + v.values)
        for p in (1, 2):
            assert lp_norm(s, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12

