"""Exact phase oracle for the NV family and its imaginary-detuning variant.

Nothing here imports nhgeom.  Every float is a rational, and the
characteristic polynomial x^3 + b x^2 + c x + d of the NV family has
integer coefficients in (q1, q2):

    b = -6,  c = 7 - 4 q1^2 + 2 q2^2,  d = 6 (1 - q2^2).

`imaginary_detuning_family` (conftest) replaces the detuning 2 q1 Sz by
2i q1 Sz, which maps q1^2 to -q1^2.  Both polynomials are real, so the sign
of the cubic's discriminant, computed with `fractions` at the very float
point a cell uses, gives its exact PT phase: positive, three distinct real
levels (unbroken); negative, a complex pair (broken); zero, a degeneracy.
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
    """(b, c, d) of the monic characteristic cubic at the float point (q1, q2)."""
    q1, q2 = Fraction(q1), Fraction(q2)
    q1sq = -q1 * q1 if imaginary_detuning else q1 * q1
    return Fraction(-6), 7 - 4 * q1sq + 2 * q2 * q2, 6 * (1 - q2 * q2)


def discriminant(q1, q2, imaginary_detuning=False):
    """The exact discriminant prod_(i<j) (E_i - E_j)^2 at (q1, q2)."""
    b, c, d = coefficients(q1, q2, imaginary_detuning)
    return 18 * b * c * d - 4 * b ** 3 * d + (b * c) ** 2 - 4 * c ** 3 - 27 * d ** 2


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
