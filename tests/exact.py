"""Exact oracles for the NV family and its imaginary-detuning variant.

Nothing here imports nhgeom.  Every float is a rational, and the
characteristic polynomial x^3 + b x^2 + c x + d of the NV family has
integer coefficients in (q1, q2):

    b = -6,  c = 7 - 4 q1^2 + 2 q2^2,  d = 6 (1 - q2^2).

`imaginary_detuning_family` (conftest) replaces the detuning 2 q1 Sz by
2i q1 Sz, which maps q1^2 to -q1^2.  Both polynomials are real, so the sign
of the cubic's discriminant, computed with `fractions` at the very float
point a cell uses, gives its exact PT phase: positive, three distinct real
levels (unbroken); negative, a complex pair (broken); zero, a degeneracy.

`characteristic_polynomial` (Faddeev-LeVerrier over `Fraction`) checks the
cubic above against the matrices a test writes itself.
"""

import math
from fractions import Fraction

EPS = Fraction(2) ** -52

# A cell may read near_ep only where the exact |disc| is below this many
# eps ||H||_F^6: twice the widest band that round-off of a determinant of
# power sums up to tr H^4 (each of size up to ||H||_F^4) could justify, at
# the phase rule's factor of 10 bounds of at most about 50 eps ||H||_F^6.
NEAR_EP_CEILING = 1024


def coefficients(q1, q2, imaginary_detuning=False):
    """(b, c, d) of the monic characteristic cubic at (q1, q2), in the
    coordinates' number type: `Fraction` for the exact phase, `mpf` for
    50-digit references."""
    q1sq = -q1 * q1 if imaginary_detuning else q1 * q1
    return -6, 7 - 4 * q1sq + 2 * q2 * q2, 6 * (1 - q2 * q2)


def cubic_discriminant(b, c, d):
    """prod_(i<j) (E_i - E_j)^2 of the roots of x^3 + b x^2 + c x + d."""
    return 18 * b * c * d - 4 * b ** 3 * d + (b * c) ** 2 - 4 * c ** 3 - 27 * d ** 2


def discriminant(q1, q2, imaginary_detuning=False):
    """The exact discriminant at the float (or rational) point (q1, q2)."""
    return cubic_discriminant(*coefficients(Fraction(q1), Fraction(q2), imaginary_detuning))


def affine(h0, a1, a2, q1, q2):
    """h0 + q1 a1 + q2 a2, entry by entry, of three matrices as nested lists."""
    return [[x + q1 * y + q2 * z for x, y, z in zip(*rows)] for rows in zip(h0, a1, a2)]


def characteristic_polynomial(a):
    """(c_(n-1), ..., c_0) of det(x - A) = x^n + c_(n-1) x^(n-1) + ... + c_0
    for a square matrix of rationals (nested lists), by Faddeev-LeVerrier:
    M_1 = I, c_(n-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(n-k) I."""
    n = len(a)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = []
    for k in range(1, n + 1):
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        coeffs.append(Fraction(-sum(am[i][i] for i in range(n)), k))
        m = [[am[i][j] + coeffs[-1] * (i == j) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


def label(q1, q2, imaginary_detuning=False):
    """The exact phase label: unbroken, broken, or near_ep at an exact zero."""
    disc = discriminant(q1, q2, imaginary_detuning)
    return "unbroken" if disc > 0 else "broken" if disc < 0 else "near_ep"


def near_ep_allowed(q1, q2, imaginary_detuning=False):
    """True where |disc| is below NEAR_EP_CEILING eps ||H||_F^6.

    ||H||_F^2 = 22 + 8 q1^2 + 4 q2^2 for both families: |2i q1|^2 = 4 q1^2.
    """
    q1, q2 = Fraction(q1), Fraction(q2)
    frob2 = 22 + 8 * q1 * q1 + 4 * q2 * q2
    return abs(discriminant(q1, q2, imaginary_detuning)) < NEAR_EP_CEILING * EPS * frob2 ** 3


def sign_edge(q1, lo, hi):
    """Adjacent floats (a, b) between lo and hi, a on lo's side, where the
    exact sign of disc(q1, .) changes, by bisection on that sign."""
    start = discriminant(q1, lo) > 0
    assert (discriminant(q1, hi) > 0) != start
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        if (discriminant(q1, mid) > 0) == start:
            lo = mid
        else:
            hi = mid
    return lo, hi
