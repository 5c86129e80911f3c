"""The paper's problem as properties that hold for every datum.

Mirror symmetry: u(t, -x) solves the wave equation whenever u does, so the
data (f0(-x), fT(-x), K2, K1) have the mirrored answer.  A catalog entry
mirrors bit for bit under gaussian mu -> -mu, tanh-bump c -> -c, sin/cos
w -> -w and poly with its odd coefficients negated, so a mismatch is never
the data's fault.  The decision grid is symmetric to rounding, not bitwise,
so the answers agree within 64 ulps of their scale (``functions.rounding``).

Superposition: the wave equation and the integral constraint are linear, and
the L2 minimizer is the closed form of its data, so the data of two problems on
the same T, K1, K2 and n, added, have the sum of their L2 minimizers, within 64
ulps of max(|v_a| + |v_b|).
"""

import numpy as np
from conftest import summed
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waveinput.functions import catalog, rounding, simpson_weights, wsum
from waveinput.oracle import answer
from waveinput.tbvp import ProblemSpec, shift_sequence

_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _mirrored_entry(draw):
    """A catalog (name, params) and the params of its mirror image f(-x)."""
    name = draw(st.sampled_from(["sin", "cos", "gaussian", "tanh-bump", "poly"]))
    if name in ("sin", "cos"):
        w, phi = draw(st.floats(0.3, 2.0)), draw(_UNIT)
        return name, [w, phi], [-w, phi]
    if name == "poly":
        coeffs = draw(st.lists(_UNIT, min_size=1, max_size=4))
        return name, coeffs, [(-1) ** k * c for k, c in enumerate(coeffs)]
    amp, centre, width = draw(st.floats(-2.0, 2.0)), draw(_UNIT), draw(st.floats(0.5, 2.0))
    return name, [amp, centre, width], [amp, -centre, width]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    f0=_mirrored_entry(),
    fT=_mirrored_entry(),
    T=st.floats(0.5, 2.0),
    K1=st.integers(1, 3),
    K2=st.integers(1, 3),
    n=st.sampled_from([65, 129]),
)
def test_mirrored_data_have_the_mirrored_answer(f0, fT, T, K1, K2, n):
    (name0, p0, m0), (nameT, pT, mT) = f0, fT
    spec = ProblemSpec(catalog(name0, p0), catalog(nameT, pT), T, K1, K2)
    mirror = ProblemSpec(catalog(name0, m0), catalog(nameT, mT), T, K2, K1)
    xs = np.linspace(-3 * T, 3 * T, 7)
    for f, g in ((spec.f0, mirror.f0), (spec.fT, mirror.fT)):
        assert np.array_equal(g.value(xs), f.value(-xs))
        assert np.array_equal(g.d1(xs), -f.d1(-xs))
    ts, ts_m = shift_sequence(spec, n), shift_sequence(mirror, n)
    w = simpson_weights(n, ts.grid.h)
    for norm, p in (("l1", 1), ("l2", 2)):
        a, b = answer(ts, spec.A, norm), answer(ts_m, mirror.A, norm)
        if norm == "l1":
            # a tie of A with an envelope integral may break either way
            near = rounding(wsum(w, np.abs(a.env.values)) + abs(spec.A))
            assume(np.all(np.abs(a.env.integrals - spec.A) > near))
            facts, mirrored = dict(a.facts), dict(b.facts)
            assert facts["strip"] == mirrored["strip"]
            assert facts["boundary_case"] == mirrored["boundary_case"]
        scale = wsum(w, ((np.abs(ts.values) + np.abs(a.v.values)) ** p).sum(axis=0))
        assert abs(a.objective - b.objective) <= rounding(scale)
        v = a.v.values
        assert np.max(np.abs(b.v.values[::-1] - v)) <= rounding(np.abs(v).max())


_FUNCTION = _mirrored_entry().map(lambda entry: catalog(*entry[:2]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    f0=st.tuples(_FUNCTION, _FUNCTION),
    fT=st.tuples(_FUNCTION, _FUNCTION),
    T=st.floats(0.5, 2.0),
    K1=st.integers(1, 3),
    K2=st.integers(1, 3),
    n=st.sampled_from([65, 129]),
)
def test_the_l2_minimizer_of_a_sum_is_the_sum_of_the_minimizers(f0, fT, T, K1, K2, n):
    a = ProblemSpec(f0[0], fT[0], T, K1, K2)
    b = ProblemSpec(f0[1], fT[1], T, K1, K2)
    both = ProblemSpec(summed(*f0), summed(*fT), T, K1, K2)
    va, vb, v = (answer(shift_sequence(s, n), s.A, "l2").v.values for s in (a, b, both))
    assert np.max(np.abs(v - (va + vb))) <= rounding(np.max(np.abs(va) + np.abs(vb)))
