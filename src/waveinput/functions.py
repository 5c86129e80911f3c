"""Smooth scalar functions, uniform grids, and the Simpson and Gauss quadrature rules.

Three function carriers are used throughout the package:

* :class:`SmoothFunction`: an analytic description (value and first two
  derivatives as vectorized callables) used for problem data, where exact
  derivatives matter.
* :class:`GridFunction`: samples on a uniform grid with an odd number of
  nodes, so that composite Simpson weights always apply.  Every sum, Simpson,
  Gauss (:func:`gauss`) or a stencil, is one :func:`wsum` in a fixed order.
  A stencil lives with its one user, as ``verify``'s end slopes of v at ±T.
* :class:`PiecewiseCubic`: a C1 function held by its values and slopes at
  its knots, with exact value, slope and integral; `approx` builds its end
  patch and its result as one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParams,
    DomainError,
    GridError,
    UnknownCatalogEntry,
    UnsupportedNorm,
)

Evaluator = Callable[[np.ndarray], np.ndarray]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar function with analytically consistent first and second derivatives.

    ``value``, ``d1`` and ``d2`` accept floats or numpy arrays and broadcast.
    ``domain`` is the closed interval on which evaluation is trusted; catalog
    entries default to the whole line, spline sources to their sample range.
    """

    value: Evaluator
    d1: Evaluator
    d2: Evaluator
    domain: tuple[float, float] = (_NEG_INF, _POS_INF)

    def __call__(self, x):
        return self.value(x)

    def covers(self, a: float, b: float) -> bool:
        """Whether [a, b] lies in the domain, up to a slack of 1e-12 (b - a)."""
        lo, hi = self.domain
        slack = 1e-12 * (b - a)
        return lo - slack <= a and b <= hi + slack


def _finite_scale(amp: float, width_power: float) -> bool:
    """Whether max(|amp|, 1)/width_power is finite: else a second derivative makes NaN (inf * 0)."""
    return width_power > 0 and np.isfinite(max(abs(amp), 1.0) / width_power)


def _require_arity(name: str, params, arity: int) -> None:
    if len(params) != arity:
        raise BadParams(f"catalog entry '{name}' takes {arity} parameter(s), got {len(params)}")


def catalog(name: str, params) -> SmoothFunction:
    """Build a SmoothFunction from a named analytic family.

    Families and their parameters:

    ==========  =======================  ==========================================
    name        params                   f(x)
    ==========  =======================  ==========================================
    zero        []                       0
    const       [c]                      c
    poly        [c0, c1, ...]            sum c_k x^k  (ascending powers)
    sin         [w, phi]                 sin(w x + phi)
    cos         [w, phi]                 cos(w x + phi)
    gaussian    [amp, mu, sigma]         amp exp(-(x-mu)^2 / (2 sigma^2))
    tanh-bump   [amp, c, w]              amp sech^2((x - c) / w)
    ==========  =======================  ==========================================
    """
    params = [float(p) for p in params]

    if name == "zero":
        _require_arity(name, params, 0)
        name, params = "const", [0.0]

    if name == "const":
        _require_arity(name, params, 1)
        c = params[0]
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return SmoothFunction(lambda x: np.full_like(np.asarray(x, dtype=float), c), zero, zero)

    if name == "poly":
        if len(params) < 1:
            raise BadParams("catalog entry 'poly' needs at least one coefficient")
        # Horner on descending powers: the steps numpy.polynomial takes on ascending ones
        c0 = np.asarray(params[::-1], dtype=float)
        c1 = np.polyder(c0) if len(c0) > 1 else np.zeros(1)
        c2 = np.polyder(c1) if len(c1) > 1 else np.zeros(1)
        return SmoothFunction(
            lambda x: np.polyval(c0, np.asarray(x, dtype=float)),
            lambda x: np.polyval(c1, np.asarray(x, dtype=float)),
            lambda x: np.polyval(c2, np.asarray(x, dtype=float)),
        )

    if name in ("sin", "cos"):
        _require_arity(name, params, 2)
        w, phi = params
        # f' = w * sign * g
        f, g, sign = (np.sin, np.cos, 1.0) if name == "sin" else (np.cos, np.sin, -1.0)
        ws = sign * w
        return SmoothFunction(
            lambda x: f(w * np.asarray(x, dtype=float) + phi),
            lambda x: ws * g(w * np.asarray(x, dtype=float) + phi),
            lambda x: -w * w * f(w * np.asarray(x, dtype=float) + phi),
        )

    if name == "gaussian":
        _require_arity(name, params, 3)
        amp, mu, sigma = params
        s2 = sigma * sigma
        if not (sigma > 0 and _finite_scale(amp, s2 * s2)):
            raise BadParams(
                f"catalog entry 'gaussian' needs sigma > 0 and max(|amp|, 1)/sigma^4 finite, "
                f"got sigma={sigma!r}"
            )

        # beyond 40 sigma the exponential is 0.0 already: clipping z there moves no bit,
        # and keeps z^2/sigma^4 finite where it would overflow into inf * 0
        def val(x):
            z = np.clip(np.asarray(x, dtype=float) - mu, -40 * sigma, 40 * sigma)
            return amp * np.exp(-z * z / (2 * s2))

        def der(x):
            z = np.clip(np.asarray(x, dtype=float) - mu, -40 * sigma, 40 * sigma)
            return -amp * z / s2 * np.exp(-z * z / (2 * s2))

        def dd(x):
            z = np.clip(np.asarray(x, dtype=float) - mu, -40 * sigma, 40 * sigma)
            return amp * (z * z / (s2 * s2) - 1.0 / s2) * np.exp(-z * z / (2 * s2))

        return SmoothFunction(val, der, dd)

    if name == "tanh-bump":
        _require_arity(name, params, 3)
        amp, c, w = params
        if not _finite_scale(2.0 * amp, w * w):
            raise BadParams(
                f"catalog entry 'tanh-bump' needs max(|2 amp|, 1)/w^2 finite, got w={w!r}"
            )

        # f = amp * sech^2(z), z = (x - c)/w; where cosh(z) overflows, sech = 1/inf = 0 exactly
        def val(x):
            z = (np.asarray(x, dtype=float) - c) / w
            with np.errstate(over="ignore"):
                sech = 1.0 / np.cosh(z)
            return amp * sech * sech

        # der and dd run only under the errstate of tbvp.recurrence_increment
        def der(x):
            z = (np.asarray(x, dtype=float) - c) / w
            return -2.0 * amp / w * (1.0 / np.cosh(z) ** 2) * np.tanh(z)

        def dd(x):
            z = (np.asarray(x, dtype=float) - c) / w
            sech2 = 1.0 / np.cosh(z) ** 2
            th = np.tanh(z)
            return 2.0 * amp / (w * w) * sech2 * (2.0 * th * th - sech2)

        return SmoothFunction(val, der, dd)

    raise UnknownCatalogEntry(f"no catalog entry named '{name}'")


def from_samples(xs, ys) -> SmoothFunction:
    """Natural cubic spline through ``(xs, ys)``.

    The second derivatives M at the nodes solve the usual tridiagonal system
    with M = 0 at both ends (Thomas algorithm; the system is diagonally
    dominant, so no pivoting is needed).  Each interval holds its cubic in
    powers of ``x - xs[i]``, so d2 at ``xs[0]`` is exactly 0; at ``xs[-1]``
    it is zero up to rounding.  Points outside the sample range use the end
    cubic.  The domain is the sample range.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 4:
        raise BadParams("spline source needs at least 4 sample points")
    if ys.shape != xs.shape:
        raise BadParams(f"spline samples: {xs.size} abscissae but {ys.size} values")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise BadParams("spline samples must be finite")
    if np.any(np.diff(xs) <= 0):
        raise BadParams("spline sample abscissae must be strictly increasing")
    h = np.diff(xs)
    slope = np.diff(ys) / h
    # h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (slope[i] - slope[i-1])
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = (6.0 * np.diff(slope)).tolist()
    off = h[1:-1].tolist()
    for i in range(1, len(diag)):
        w = off[i - 1] / diag[i - 1]
        diag[i] -= w * off[i - 1]
        rhs[i] -= w * rhs[i - 1]
    M = [0.0] * xs.size
    M[-2] = rhs[-1] / diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        M[i + 1] = (rhs[i] - off[i] * M[i + 2]) / diag[i]
    M = np.array(M)
    c1 = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
    c2 = 0.5 * M[:-1]
    c3 = np.diff(M) / (6.0 * h)

    def local(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        return x - xs[i], i

    def value(x):
        t, i = local(x)
        return ys[i] + t * (c1[i] + t * (c2[i] + t * c3[i]))

    def d1(x):
        t, i = local(x)
        return c1[i] + t * (2.0 * c2[i] + t * (3.0 * c3[i]))

    def d2(x):
        t, i = local(x)
        return 2.0 * c2[i] + t * (6.0 * c3[i])

    return SmoothFunction(value, d1, d2, (float(xs[0]), float(xs[-1])))


@dataclass
class GridFunction:
    """Samples of a function on the uniform grid of ``n`` nodes over [a, b].

    ``n`` must be odd and at least 3 so composite Simpson weights exist.
    """

    a: float
    b: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.a = float(self.a)
        self.b = float(self.b)
        self.n = int(self.n)
        if not self.b > self.a:
            raise GridError("grid needs b > a")
        if self.n < 3 or self.n % 2 == 0:
            raise GridError(f"grid size must be odd and >= 3, got n={self.n}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n,):
            raise GridError(f"values shape {self.values.shape} does not match n={self.n}")
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid values must be finite")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.a, self.b, self.n, values)


@dataclass
class C1GridFunction(GridFunction):
    """Grid samples augmented with first-derivative samples at the nodes."""

    d1: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.d1 = np.asarray(self.d1, dtype=float)
        if self.d1.shape != (self.n,):
            raise GridError(f"d1 shape {self.d1.shape} does not match n={self.n}")


@dataclass
class PiecewiseCubic:
    """The C1 cubic Hermite interpolant of values and slopes at increasing knots.

    Its value at a knot is the stored value exactly; points outside the knots
    use the end cubics.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __call__(self, x):
        """Value and slope at the points x, as arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.knots
        i = np.clip(np.searchsorted(k, x, side="right") - 1, 0, k.size - 2)
        v0, d0, v1, d1 = self.values[i], self.slopes[i], self.values[i + 1], self.slopes[i + 1]
        dt = k[i + 1] - k[i]
        t = (x - k[i]) / dt
        t2 = t * t
        t3 = t2 * t
        val = (
            (2 * t3 - 3 * t2 + 1) * v0
            + dt * (t3 - 2 * t2 + t) * d0
            + (-2 * t3 + 3 * t2) * v1
            + dt * (t3 - t2) * d1
        )
        der = (
            (6 * t2 - 6 * t) * (v0 - v1) / dt
            + (3 * t2 - 4 * t + 1) * d0
            + (3 * t2 - 2 * t) * d1
        )
        return val, der

    def integral(self) -> float:
        """Exact integral over the knots: sum of dt (v0 + v1) / 2 + dt^2 (d0 - d1) / 12."""
        dt, v, d = np.diff(self.knots), self.values, self.slopes
        return float(np.sum(dt * (v[:-1] + v[1:]) / 2.0 + dt * dt * (d[:-1] - d[1:]) / 12.0))


def sample(f: SmoothFunction, a: float, b: float, n: int) -> GridFunction:
    """Sample a SmoothFunction onto a uniform grid (DomainError if not covered)."""
    if not f.covers(a, b):
        raise DomainError(f"[{a}, {b}] lies outside the function domain {f.domain}")
    return GridFunction(a, b, n, f.value(np.linspace(a, b, n)))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights h/3 * (1, 4, 2, 4, ..., 2, 4, 1) for odd n."""
    if n < 3 or n % 2 == 0:
        raise GridError(f"Simpson weights need odd n >= 3, got {n}")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def wsum(w: np.ndarray, x: np.ndarray):
    """The sum of w * x along the last axis, in numpy's pairwise order on C-ordered rows.

    No thread count or memory layout moves a bit, as it does for BLAS's ddot.
    """
    return np.sum(np.multiply(w, x, order="C"), axis=-1)


def rounding(scale):
    """64 ulps of scale, a power of two (2^-46) times it: the rounding allowance of a sum."""
    return 64.0 * np.finfo(float).eps * scale


FEAS_TOL = 1e-8  # the absolute gate on |int v - A| that `verify` and `pms` apply to an input


def lp_total(w: np.ndarray, x: np.ndarray, p: int) -> float:
    """The Lp norm of the samples x at the quadrature weights w."""
    return float(wsum(w, np.abs(x) ** p)) ** (1.0 / p)


# 8-point Gauss-Legendre on [-1, 1], bit for bit numpy's leggauss(8) (an eigenvalue solve);
# the rule is symmetric, so four nodes and four weights fix it
_X4 = [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]
_W4 = [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]
GAUSS_X, GAUSS_W = np.array([[-x for x in _X4[::-1]] + _X4, _W4[::-1] + _W4])


def gauss(edges: np.ndarray):
    """Gauss points and weights on the cells between consecutive edges, GAUSS_X.size per cell."""
    mid = (edges[1:] + edges[:-1]) / 2.0
    hw = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + hw[:, None] * GAUSS_X).ravel(), (hw[:, None] * GAUSS_W).ravel()


def integrate(g: GridFunction) -> float:
    """Composite Simpson integral of the grid samples over [a, b]."""
    return float(wsum(simpson_weights(g.n, g.h), g.values))


def lp_norm(g: GridFunction, p: int) -> float:
    """L^p norm (p = 1 or 2) of the grid samples, by Simpson on |g|^p."""
    if p not in (1, 2):
        raise UnsupportedNorm(f"only p in {{1, 2}} is supported, got p={p}")
    return lp_total(simpson_weights(g.n, g.h), g.values, p)

