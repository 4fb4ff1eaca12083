import math

import mpmath
import numpy as np
import pytest

from nhgeom import HamiltonianFamily, nv_family

import exact


@pytest.fixture(scope="session")
def family():
    return nv_family()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260826)


def nv_axis_energies(q2):
    """Closed-form eigenvalues of H(0, q2): {3, (3 +/- sqrt(17-8 q2^2))/2}."""
    root = np.sqrt(complex(17.0 - 8.0 * q2 * q2))
    return np.array([3.0, (3.0 + root) / 2.0, (3.0 - root) / 2.0])


def nv_axis_chi_band0(q2):
    """Closed-form Re chi_F of band 0 along q2 at (0, q2), for 1 < q2 < q2*.

    q2* = sqrt(17/8).  With s = sqrt(17 - 8 q2^2),

        chi(q2) = 2 (289 - 100 q2^2 - 51 s)
                  / ((8 q2^2 - 17)^2 (4 q2^2 + 3 s - 13)).

    Derivation: biorthogonal sum over states (Brody, J. Phys. A 47, 035305,
    2014) on q1 = 0, chi = sum over m != n of
    <L_n|dH|R_m><L_m|dH|R_n> / (E_n - E_m)^2, with dH = dH/dq2 and band 0
    the middle level E_n = (3 + s)/2 of nv_axis_energies.  Its partners are
    E = 3 (the Dirac partner) and (3 - s)/2 (the conventional partner).
    On 1 < q2 < q2* all three levels are real and distinct and the result
    is real.  Outside that range band 0 is the level E = 3 (q2 < 1) or a
    member of a complex pair (q2 > q2*), the formula does not apply, and
    it raises ValueError.

    Two poles: 4 q2^2 + 3 s - 13 vanishes to second order at the Dirac EP
    q2 = 1 (chi -> -1/(4 d^2) for q2 = 1 + d), and (8 q2^2 - 17)^2 at the
    conventional EP q2*, where chi -> -1/(16 eps^2) for q2 = q2* - eps.
    """
    if not 1.0 < q2 < math.sqrt(17.0 / 8.0):
        raise ValueError(f"closed form holds for 1 < q2 < sqrt(17/8); got {q2}")
    q2sq = q2 * q2
    s = math.sqrt(17.0 - 8.0 * q2sq)
    return 2.0 * (289.0 - 100.0 * q2sq - 51.0 * s) / (
        (8.0 * q2sq - 17.0) ** 2 * (4.0 * q2sq + 3.0 * s - 13.0)
    )


def numpy_eigensolve(h, vectors=False):
    """numpy's eigvals (or eig, with `vectors`) of one matrix, by the driver
    rule of `nhgeom.linalg`, as complex arrays: a matrix with no imaginary
    part goes to the real driver, any other to the complex one."""
    h = np.asarray(h)
    m = h if h.imag.any() else h.real
    if vectors:
        return tuple(x.astype(complex) for x in np.linalg.eig(m))
    return np.linalg.eigvals(m).astype(complex)


def imaginary_detuning_family():
    """The NV family with its detuning 2 q1 Sz made imaginary, 2i q1 Sz.

    Its matrices are complex off q1 = 0 and exactly real on it, so a sweep
    across q1 = 0 mixes the two LAPACK drivers in one stack.
    """
    return HamiltonianFamily(
        "imaginary-detuning",
        [[3, 1, 0], [1, 0, 1], [0, 1, 3]],
        np.diag([2j, 0, -2j]),
        [[0, -1, 0], [1, 0, -1], [0, 1, 0]],
    )


def pt_dimer(shift=0.0):
    """H = [[i q2, q1], [q1, -i q2]] + shift I: eigenvalues
    shift +/- sqrt(q1^2 - q2^2), an exceptional line q2 = |q1|."""
    return HamiltonianFamily(
        "pt-dimer", np.diag([shift, shift]), [[0, 1], [1, 0]], np.diag([1j, -1j])
    )


def sorted_complex(w):
    """Lexicographic (Re, Im) sort for multiset comparison of spectra.

    Keys are rounded to 10 decimals so round-off does not flip the order
    of nearly equal real parts (e.g. conjugate pairs).
    """
    w = np.asarray(w, dtype=complex)
    return w[np.lexsort((np.round(w.imag, 10), np.round(w.real, 10)))]


# 50-digit references from the NV cubic of `exact.coefficients`, without
# nhgeom.
def reference_discriminant(q1, q2):
    return exact.cubic_discriminant(*exact.coefficients(q1, q2))


def reference_line_q2(q1):
    """q2 of the exceptional line at q1, |q1| <= 0.9, to 50 digits.

    The discriminant is positive (PT unbroken) at q2 = 1.05 and negative
    (broken) at q2 = 2 for these q1; bisection finds its sign change.
    """
    with mpmath.workdps(50):
        q1 = mpmath.mpf(q1)
        lo, hi = mpmath.mpf("1.05"), mpmath.mpf(2)
        assert reference_discriminant(q1, lo) > 0 > reference_discriminant(q1, hi)
        while hi - lo > mpmath.mpf(10) ** -45:
            mid = (lo + hi) / 2
            if reference_discriminant(q1, mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def reference_double_root(q1, q2):
    """The double eigenvalue at a point (q1, q2) of the exceptional line.

    For a monic cubic (x - r)^2 (x - s) = x^3 + b x^2 + c x + d,
    9 d - b c = 2 r (r - s)^2 and b^2 - 3 c = (r - s)^2.
    """
    with mpmath.workdps(50):
        b, c, d = exact.coefficients(mpmath.mpf(q1), mpmath.mpf(q2))
        return (9 * d - b * c) / (2 * (b * b - 3 * c))


def segment_through(center, angle, before, after):
    u = (math.cos(angle), math.sin(angle))
    return (
        (center[0] - before * u[0], center[1] - before * u[1]),
        (center[0] + after * u[0], center[1] + after * u[1]),
    )
