"""Shared builders for randomized problem instances, and the launcher of every fresh interpreter.

Random draws are always made from a seeded Generator passed in by the
test, so every test is reproducible on its own.

A test declares its fresh interpreters with ``@spawns``.  Before the first test runs, the
launcher starts every selected test's children, as many at once as this process has CPUs,
so they run beside the in-process tests; the ``children`` fixture waits for a test's own.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from waveinput.functions import GridFunction, SmoothFunction, catalog, integrate
from waveinput.tbvp import ProblemSpec, ShiftSequence

ZERO = catalog("zero", [])

# copied once, before a test can set a variable: the package from src, argparse's text
# wrapped at 80 columns, the CLI's own BLAS thread default and block-buffered pipes
_ENV = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
_ENV.update(PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), COLUMNS="80")
TIMEOUT = 60  # seconds, after which a child is killed and its test fails


@dataclass(frozen=True, eq=False)
class Child:
    """``python *args`` in its test's directory, or in its subdirectory ``cwd``, with ``env``
    added to the shared environment; one object that several tests list runs once."""

    args: list
    env: dict = field(default_factory=dict)
    cwd: str = ""


class Ran(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    cwd: Path


def spawns(children):
    """Declares a test's children: ``children(its directory, **its parameters)`` writes the
    files they read there and returns ``{name: Child}``."""
    def declare(test):
        test.children = children
        return test
    return declare


def _run(child, cwd):
    argv, env = [sys.executable, *child.args], {**_ENV, **child.env}
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # killed and reaped by run
        stderr = (exc.stderr or b"").decode()
        raise TimeoutError(f"{child.args} ran over {TIMEOUT} s; its stderr:\n{stderr}") from None
    return Ran(proc.returncode, proc.stdout, proc.stderr, cwd)


@pytest.fixture(scope="session", autouse=True)
def _launched(request, tmp_path_factory):
    """{test id: {name: future of its Ran}, or the error its declaration raised}.  At the end
    of the session, children not yet started never start, and the others are reaped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    started, tests = {}, {}
    with ThreadPoolExecutor(cpus) as pool:
        for item in request.session.items:
            declared = getattr(getattr(item, "function", None), "children", None)
            if declared is None:
                continue
            params = item.callspec.params if hasattr(item, "callspec") else {}
            try:
                t = tmp_path_factory.mktemp("spawned")
                children = declared(t, **params)
                for child in children.values():
                    if child not in started:
                        (t / child.cwd).mkdir(exist_ok=True)
                        started[child] = pool.submit(_run, child, t / child.cwd)
                tests[item.nodeid] = {name: started[child] for name, child in children.items()}
            except Exception as exc:  # fails its own test only
                tests[item.nodeid] = exc
        yield tests
        pool.shutdown(cancel_futures=True)


@pytest.fixture
def children(request, _launched):
    """{name: Ran} of this test's children, each once it has exited."""
    futures = _launched[request.node.nodeid]
    if isinstance(futures, Exception):
        raise futures
    return {name: future.result() for name, future in futures.items()}


def handmade_shifts(rows):
    """ShiftSequence on [-1, 1] with prescribed rows and zero end slopes."""
    rows = np.array(rows, dtype=float)
    spec = ProblemSpec(ZERO, ZERO, 1.0, 1, max(1, rows.shape[0] - 2))
    return ShiftSequence(spec, rows, np.zeros((rows.shape[0], 2)))


def zero_spec(K1=1, K2=1, T=1.0):
    return ProblemSpec(ZERO, ZERO, T, K1, K2)


def traveling_spec(K1=1, K2=1, T=1.0):
    # u(t, x) = sin(x - t) solves the problem with f0 = sin, fT = sin(x - T)
    # and has the globally smooth input v(x) = -cos(x).
    return ProblemSpec(catalog("sin", [1.0, 0.0]), catalog("sin", [1.0, -T]), T, K1, K2)


def scaled(f, s):
    """The function s * f, with its derivatives."""
    return SmoothFunction(lambda x: s * f.value(x), lambda x: s * f.d1(x), lambda x: s * f.d2(x))


def summed(f, g):
    """The function f + g, with its derivatives."""
    return SmoothFunction(
        lambda x: f.value(x) + g.value(x), lambda x: f.d1(x) + g.d1(x), lambda x: f.d2(x) + g.d2(x)
    )


def random_spec(rng, K1=None, K2=None, T=None):
    """Problem data drawn from the analytic catalog with tame derivatives."""
    if K1 is None:
        K1 = int(rng.integers(1, 3))
    if K2 is None:
        K2 = int(rng.integers(1, 3))
    if T is None:
        T = float(rng.uniform(0.6, 1.4))

    def draw():
        fam = rng.choice(["sin", "cos", "gaussian", "poly", "tanh-bump"])
        if fam in ("sin", "cos"):
            return catalog(fam, [rng.uniform(0.4, 1.6), rng.uniform(-1, 1)])
        if fam == "gaussian":
            return catalog(fam, [rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.8, 2.0)])
        if fam == "tanh-bump":
            return catalog(fam, [rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.8, 2.0)])
        return catalog("poly", list(rng.normal(scale=0.3, size=3)))

    return ProblemSpec(draw(), draw(), T, K1, K2)


def smooth_noise(xs, rng, terms=3, max_freq=2.0):
    out = np.zeros_like(xs)
    for _ in range(terms):
        w = rng.uniform(0.3, max_freq)
        out += rng.normal() * np.sin(w * xs) + rng.normal() * np.cos(w * xs)
    return out


def feasible_random_v(spec, n, rng, compatible=False):
    """Smooth random input whose Simpson integral is exactly A.

    With compatible=True a linear ramp is added first so that
    v(T) - v(-T) = c1 (the extension then has no seam jumps).
    """
    g = GridFunction(-spec.T, spec.T, n, np.zeros(n))
    xs = g.xs
    vals = smooth_noise(xs, rng)
    if compatible:
        vals += (spec.c1 - (vals[-1] - vals[0])) / (2 * spec.T) * xs
    g.values = vals
    g.values = vals + (spec.A - integrate(g)) / (2 * spec.T)
    return g


def zero_integral_bump(xs, rng, scale=1.0):
    """Smooth perturbation with exactly zero Simpson integral."""
    from waveinput.functions import GridFunction as GF

    vals = smooth_noise(xs, rng) * scale
    g = GF(xs[0], xs[-1], xs.size, vals)
    return vals - integrate(g) / (xs[-1] - xs[0])


def in_strip_sibling(env, j, h, rng):
    """A second feasible function pinched in strip j, distinct from h.

    Splits a smooth oscillation into positive and negative parts, scales
    each to fit the pointwise room between h and the strip walls, then
    equalizes the two half-integrals so the Simpson integral is unchanged.
    Returns None when the strip leaves no room on one side.
    """
    from waveinput.functions import simpson_weights

    g = env.ts.grid
    xs = g.xs
    room_up = env.values[j - 1] - h.values
    room_dn = h.values - env.values[j]
    raw = smooth_noise(xs, rng, terms=2)
    m = max(1e-30, float(np.max(np.abs(raw))))
    up = np.maximum(raw / m, 0.0) * room_up
    dn = np.minimum(raw / m, 0.0) * room_dn
    w = simpson_weights(g.n, g.h)
    P = float(np.dot(w, up))
    N = -float(np.dot(w, dn))
    if P <= 1e-14 or N <= 1e-14:
        return None
    t = 0.9 * min(P, N)
    d = (t / P) * up + (t / N) * dn
    return g.with_values(h.values + d)
