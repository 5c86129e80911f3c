"""Exact rational reference values for catalog `poly` data, in stdlib fractions only.

A coefficient list c0, c1, ... (ascending powers, as `catalog("poly", ...)` takes it)
becomes a list of `Fraction`s holding each float's own value, and T becomes
`Fraction(T)`.  Everything below is then exact: the only difference from the
package's floats is their rounding.  Each value comes as its list of terms c_j x^j,
so a test can measure that rounding against the sum of the terms' absolute values.
The recurrence is written out here from the paper, without calling `waveinput.tbvp`.
"""

from fractions import Fraction


def poly(coeffs):
    """The exact coefficients of a float coefficient list, ascending powers."""
    return [Fraction(c) for c in coeffs]


def derivative(p):
    return [j * c for j, c in enumerate(p)][1:]


def terms(p, x):
    """The terms c_j x^j of p at x; their sum is p(x)."""
    return [c * x**j for j, c in enumerate(p)]


def increment_terms(f0, fT, T, y, m):
    """Terms of 2 fT^(m)(y) - f0^(m)(y + T) - f0^(m)(y - T), exactly.

    f0 and fT are float coefficient lists, T and y numbers or Fractions.
    """
    f0, fT = poly(f0), poly(fT)
    for _ in range(m):
        f0, fT = derivative(f0), derivative(fT)
    T, y = Fraction(T), Fraction(y)
    return [
        *(2 * t for t in terms(fT, y)),
        *(-t for t in terms(f0, y + T)),
        *(-t for t in terms(f0, y - T)),
    ]


def constants(f0, fT, T):
    """Terms of A, c1 and c2: the increment's orders 0, 1 and 2 at y = 0."""
    return [increment_terms(f0, fT, T, 0, m) for m in range(3)]


def segment_terms(f0, fT, T, K1, K2):
    """Terms of each period's window integral S_k = 2 fT(2kT) - f0((2k+1)T) - f0((2k-1)T),
    k = -K1..K2."""
    return [increment_terms(f0, fT, T, 2 * k * Fraction(T), 0) for k in range(-K1, K2 + 1)]
