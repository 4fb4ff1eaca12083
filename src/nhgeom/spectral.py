"""Spectral phase classification and exceptional-point location.

The phase of a parameter point is read off the spectrum alone: a real
spectrum with resolvable gaps is "unbroken", complex eigenvalues mean
"broken", and a collapsed gap means the point sits at (or numerically on
top of) an exceptional point.  EPs are located on parameter segments
from the roots of the characteristic polynomial's discriminant, a
degree-6 polynomial along any segment of a 3x3 family: a sign change
crosses the exceptional line, a touching zero is the Dirac EP.
Exceptional lines are traced by predictor-corrector continuation: the
first step follows the tangent that the discriminant's analytic gradient
gives, and each point costs one locator call.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EPNotFoundError, LostTrackError
from .linalg import DEGENERACY_TOL, eigenpairs, eigenvalues, matrix_scale, norm
from .model import ParameterPoint, as_point

REALITY_TOL = 1e-8  # relative: max |Im E| for an unbroken spectrum
NEAR_EP_GAP_TOL = DEGENERACY_TOL  # relative: min gap at or below this means "at an EP"
# The discriminant of a 3x3 family is a degree-6 polynomial along a
# segment; it is interpolated at twice that many nodes plus one, so the
# coefficients above DISC_DEGREE measure the fit's round-off.
DISC_DEGREE = 6


def _chebyshev_rows(x, deg):
    """T_0(x) .. T_deg(x) as the rows of one array, by the recurrence of
    numpy's chebvander, so that the rows are its columns bit for bit."""
    rows = [np.ones_like(x), x]
    for _ in range(deg - 1):
        rows.append(rows[-1] * (2 * x) - rows[-2])
    return np.array(rows)


# The Chebyshev points of the first kind, by numpy's chebpts1 formula.
_NODES = np.sin(0.5 * np.pi / (2 * DISC_DEGREE + 1)
                * np.arange(-2 * DISC_DEGREE, 2 * DISC_DEGREE + 1, 2))
# The interpolant's coefficients are _VANDER_T @ values * (2 / len(_NODES)),
# by the discrete orthogonality of the Chebyshev polynomials at the nodes.
_VANDER_T = _chebyshev_rows(_NODES, 2 * DISC_DEGREE)
# A stationary point of the discriminant is a touching zero when |disc|
# there is within this many noise bounds.  Measured on the NV family over
# 3,000 segments through the Dirac EP, true touches reach 2.24 bounds;
# segments passing 1e-6 from it stay above 86.  `trace_exceptional_line`
# holds the gradient at its seed to the same factor of its round-off bound.
TOUCH_NOISE_FACTOR = 10


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    NEAR_EP = "near_ep"


@dataclass(frozen=True)
class PhaseLabel:
    label: Phase
    max_imag: float
    min_gap: float


class EPKind(enum.Enum):
    DIRAC = "Dirac"
    CONVENTIONAL = "Conventional"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class EPLocation:
    point: ParameterPoint
    coalesced_energy: complex
    gap: float  # residual eigenvalue gap: the smallest |E_i - E_j| of H(point)
    defect_measure: float


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Index arrays (i, j) of the pairs i < j, in row-major order."""
    return np.triu_indices(n, 1)


def closest_pair(w):
    """(gap, i, j): the smallest |w[i] - w[j]| over i < j, the first such pair.

    Pairs are in row-major order.  `w` is one spectrum (n,) or a stack
    (..., n), which gives arrays over the stack.  numpy's hypot is bit for bit the complex abs of a numpy
    scalar (numpy's array complex abs can differ in the last bit).
    """
    i, j = _pairs(w.shape[-1])
    d = w.take(i, axis=-1) - w.take(j, axis=-1)
    gaps = np.hypot(d.real, d.imag)
    k = gaps.argmin(axis=-1)
    return gaps.min(axis=-1), i[k], j[k]


# Indexed by 2 * near_ep + broken: a collapsed gap outranks complex energies.
_PHASES = np.array([Phase.UNBROKEN, Phase.BROKEN, Phase.NEAR_EP, Phase.NEAR_EP])


def phase_of(w, scale):
    """PT phase label of the eigenvalues `w` (..., n) of matrices of norm `scale`.

    One spectrum gives a PhaseLabel of a Phase and two floats; a stack of
    spectra gives one of arrays over the stack (Phase members in an object
    array).  The gap is `closest_pair`'s.
    """
    gap = closest_pair(w)[0]
    max_imag = np.maximum.reduce(np.abs(w.imag), axis=-1)
    if w.ndim == 1:
        gap, max_imag, scale = float(gap), float(max_imag), float(scale)
    code = 2 * (gap <= NEAR_EP_GAP_TOL * scale) + (max_imag > REALITY_TOL * scale)
    return PhaseLabel(label=_PHASES[code], max_imag=max_imag, min_gap=gap)


def classify_phase(family, p):
    """PT phase label of H(p): `phase_of` for one point of `family`.

    The library's one-point entry point; sweeps call `phase_of` on their
    stacked spectra instead.
    """
    h = family.matrix(p)
    return phase_of(eigenvalues(h), matrix_scale(h))


def discriminant(family, p):
    """Discriminant of the cubic characteristic polynomial of H(p).

    Coefficients are extracted from traces via Newton's identities; the
    result vanishes exactly at spectral degeneracies.  Raises ValueError
    for a family that is not 3x3.
    """
    return complex(_discriminant(family, *as_point(p)))


def _cubic(family, q1, q2):
    """H, H^2, p1 = tr H, p2 = tr H^2 and, by Newton's identities, (b, c, d)
    of the monic cubic x^3 + b x^2 + c x + d of H at each point (q1[k], q2[k])."""
    if family.dimension != 3:
        raise ValueError(f"discriminant requires a 3x3 family, not {family.name!r}")
    h = family.matrices(q1, q2)
    hh = h @ h
    p1, p2, p3 = (np.trace(m, axis1=-2, axis2=-1) for m in (h, hh, hh @ h))
    e2 = (p1 * p1 - p2) / 2
    e3 = (p1 ** 3 - 3 * p1 * p2 + 2 * p3) / 6
    return h, hh, p1, p2, (-p1, e2, -e3)


def _discriminant(family, q1, q2):
    """`discriminant` at each point (q1[k], q2[k]) of equal-shape arrays."""
    b, c, d = _cubic(family, q1, q2)[-1]
    return 18 * b * c * d - 4 * b ** 3 * d + (b * c) ** 2 - 4 * c ** 3 - 27 * d ** 2


def _discriminant_gradient(family, p):
    """(d disc/dq1, d disc/dq2), the real parts, at the point p, and a bound
    on the round-off of each.

    It differentiates `_discriminant`'s own steps: d p_k = k tr(H^(k-1) dH)
    with dH from `family.gradient`, then Newton's identities and the
    discriminant's polynomial in (b, c, d).  The bound is eps times the same
    sums taken over the absolute values of their terms.
    """
    p = as_point(p)
    h, hh, p1, p2, (b, c, d) = _cubic(family, *p)
    dh = np.stack(family.gradient(p))  # (2, 3, 3): dH/dq1, dH/dq2
    dp1, dp2, dp3 = (k * np.trace(m, axis1=-2, axis2=-1)
                     for k, m in ((1, dh), (2, h @ dh), (3, hh @ dh)))
    dc = p1 * dp1 - dp2 / 2
    dd = -(3 * (p1 * p1 - p2) * dp1 - 3 * p1 * dp2 + 2 * dp3) / 6
    grad = ((18 * c * d - 12 * b * b * d + 2 * b * c * c) * -dp1  # db = -dp1
            + (18 * b * d + 2 * b * b * c - 12 * c * c) * dc
            + (18 * b * c - 4 * b ** 3 - 54 * d) * dd)
    # The same sums over the absolute values of their terms, for the bound.
    b, c, d, p1, p2, dp1, dp2, dp3 = map(np.abs, (b, c, d, p1, p2, dp1, dp2, dp3))
    dc = p1 * dp1 + dp2 / 2
    dd = ((p1 * p1 + p2) * dp1 + p1 * dp2) / 2 + dp3 / 3
    terms = ((18 * c * d + 12 * b * b * d + 2 * b * c * c) * dp1
             + (18 * b * d + 2 * b * b * c + 12 * c * c) * dc
             + (18 * b * c + 4 * b ** 3 + 54 * d) * dd)
    return grad.real, np.finfo(float).eps * terms


def find_ep_on_segment(family, a, b):
    """Locate an exceptional point on the parameter segment a -> b.

    H is affine in (q1, q2), so along the segment the discriminant of a
    3x3 family is a polynomial of degree 6 in t.  It is interpolated at
    13 Chebyshev nodes; the coefficients above degree 6 are round-off, and
    their size plus the largest |Im disc| bounds the fit's noise.  An EP
    is a real root of the degree-6 part p in [0, 1] (a sign change: the
    segment crosses the exceptional line), or a root of p' or an end of
    the segment where |p| is within TOUCH_NOISE_FACTOR noise bounds (a
    touching zero, as at the Dirac EP, which lies inside the PT-unbroken
    phase).  A sign change within the fit's root resolution of a touching
    zero, sqrt(2 TOUCH_NOISE_FACTOR noise / |p''|), is the touching zero
    split by noise and gives way to it.  The remaining candidates are
    ranked by one stacked `eigenpairs`, and the first with the smallest
    eigenvalue gap is returned, as an EPLocation whose evidence comes from
    the same `eigenpairs`: its gap, the mean of the closest pair as its energy,
    and as its defect the smallest singular value of the Gram matrix of
    its unit right eigenvectors, zero where two of them coincide;
    `jordan.classify_ep` gives its kind.  Raises EPNotFoundError when
    there is no candidate, and ValueError for a family that is not 3x3.
    """
    a, b = as_point(a), as_point(b)

    def point_at(x):  # x in [-1, 1] (or an array of such) maps to a -> b
        t = (1 + x) / 2
        return ParameterPoint(a.q1 + t * (b.q1 - a.q1), a.q2 + t * (b.q2 - a.q2))

    values = _discriminant(family, *point_at(_NODES))
    coef = _VANDER_T @ values * (2 / len(_NODES))
    coef[0] /= 2
    noise = float(np.abs(coef[DISC_DEGREE + 1:]).sum() + np.abs(values.imag).max())
    p = coef[:DISC_DEGREE + 1].real.tolist()
    dp = _chebder(p)
    # Stationary points, and the segment's ends, where disc touches zero.
    stationary = np.concatenate([_real_roots(dp), [-1.0, 1.0]])
    touching = stationary[np.abs(_chebval(stationary, p)) <= TOUCH_NOISE_FACTOR * noise]
    # Within the fit's root resolution of a touching zero, where |p| stays
    # below the touch threshold, noise can split the double root into two
    # sign changes; the touching point is the better estimate of it.
    crossings = _real_roots(p)
    if crossings.size and touching.size:
        with np.errstate(divide="ignore"):
            curvature = np.abs(_chebval(touching, _chebder(dp)))
            resolution = np.sqrt(2 * TOUCH_NOISE_FACTOR * noise / curvature)
        split = np.abs(crossings[:, None] - touching) <= resolution
        crossings = crossings[~split.any(axis=1)]
    candidates = np.concatenate([crossings, touching])
    if candidates.size == 0:
        raise EPNotFoundError(
            f"the discriminant on segment {a} -> {b} neither changes sign nor "
            f"touches zero within {TOUCH_NOISE_FACTOR} x its fit noise {noise:.3e}"
        )
    points = point_at(candidates)
    w, v = eigenpairs(family.matrices(*points))
    gaps, i, j = closest_pair(w)
    k = gaps.argmin()  # the first smallest gap
    v = v[k] / norm(v[k], 0)
    return EPLocation(
        point=ParameterPoint(points.q1[k], points.q2[k]),
        # The pair's mean; + 0.0 makes a -0.0 sum +0.0, as np.mean's does.
        coalesced_energy=complex((w[k, i[k]] + w[k, j[k]] + 0.0) / 2),
        gap=float(gaps[k]),
        defect_measure=float(np.linalg.svd(v.conj().T @ v, compute_uv=False)[-1]),
    )


# The fit's series have 7 terms (p) and 6 and 5 (p', p'').  These helpers
# repeat numpy.polynomial.chebyshev's steps for them operation for
# operation, so their results are chebder's, chebval's and chebroots's bit
# for bit, without that module's generic argument handling.


def _chebder(c):
    """Derivative of the Chebyshev series `c`, a list of at least 3 floats,
    by chebder's recurrence."""
    c = list(c)
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _chebval(x, c):
    """The Chebyshev series `c`, a list of at least 3 floats, at the points
    `x`, by chebval's Clenshaw recurrence."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


@functools.lru_cache(maxsize=None)
def _companion_base(n):
    """What chebcompanion's n x n matrix owes nothing to the series: its
    tridiagonal, and the column scale scl / scl[-1].  Both read-only."""
    off = np.array([np.sqrt(.5)] + [1 / 2] * (n - 2))
    mat = np.diag(off, 1) + np.diag(off, -1)
    scl = np.array([1.] + [np.sqrt(.5)] * (n - 1))
    scl = scl / scl[-1]
    mat.setflags(write=False)
    scl.setflags(write=False)
    return mat, scl


def _real_roots(c):
    """Real roots in [-1, 1] of the Chebyshev series `c`, a list of floats.

    chebroots's roots: trailing zero coefficients are trimmed, so that the
    all-zero series has no roots and a line one, and otherwise the roots
    are the sorted eigenvalues of the rotated companion matrix.
    """
    n = len(c) - 1
    while n > 0 and c[n] == 0:
        n -= 1
    if n == 0:
        return np.empty(0)
    if n == 1:
        roots = np.array([-c[0] / c[1]])
    else:
        mat, scl = _companion_base(n)
        mat = mat.copy()
        c = np.array(c[:n + 1])
        mat[:, -1] -= (c[:-1] / c[-1]) * scl * .5
        roots = np.linalg.eigvals(mat[::-1, ::-1])
        roots.sort()
        roots = roots[roots.imag == 0].real
    return roots[np.abs(roots) <= 1]


def _in_box(p, box):
    q1min, q1max, q2min, q2max = box
    return q1min <= p.q1 <= q1max and q2min <= p.q2 <= q2max


def trace_exceptional_line(family, seed, step, max_points, box=(-2, 2, 0, 2)):
    """Predictor-corrector continuation of an exceptional line from `seed`.

    The first predictor steps |step| along the discriminant's zero-set
    tangent at the seed, sign(step) (-d2 disc, d1 disc) / |grad disc|, so a
    positive step keeps the PT-unbroken side (disc > 0) on its right; later
    ones step along the secant of the last two points.  One
    find_ep_on_segment call across each prediction, of half-width
    0.6 |step|, corrects it.  Stops at `max_points` points or when a
    predicted or corrected point leaves `box` = (q1min, q1max, q2min,
    q2max).  Raises ValueError for a zero or non-finite step, and
    LostTrackError when the gradient at the seed is within
    TOUCH_NOISE_FACTOR round-off bounds of zero, as at a singular point such
    as the isolated Dirac EP, or when a corrector finds no EP.
    """
    if not (math.isfinite(step) and step != 0):
        raise ValueError(f"step must be finite and nonzero, got {step}")
    points = [seed][:max_points]
    h, w = abs(step), 0.6 * abs(step)  # the step and the corrector's half-width
    while 0 < len(points) < max_points:
        p1 = points[-1].point
        if len(points) == 1:
            (g1, g2), noise = _discriminant_gradient(family, p1)
            size, bound = math.hypot(g1, g2), TOUCH_NOISE_FACTOR * math.hypot(*noise)
            if size <= bound:
                raise LostTrackError(
                    f"no continuation direction found around the seed {p1}: the "
                    f"discriminant's gradient {size:.3e} is within round-off ({bound:.3e})")
            tang = math.copysign(1.0, step) * np.array([-g2, g1])
        else:
            p0 = points[-2].point
            tang = np.array([p1.q1 - p0.q1, p1.q2 - p0.q2])
        tang /= np.linalg.norm(tang)
        pred = ParameterPoint(p1.q1 + h * tang[0], p1.q2 + h * tang[1])
        if not _in_box(pred, box):
            break
        try:
            got = find_ep_on_segment(family, (pred.q1 + w * tang[1], pred.q2 - w * tang[0]),
                                     (pred.q1 - w * tang[1], pred.q2 + w * tang[0]))
        except EPNotFoundError as err:
            where = "the seed" if len(points) == 1 else "the last point"
            raise LostTrackError(
                f"no continuation direction found around {where} {p1}: {err}") from err
        if not _in_box(got.point, box):
            break
        points.append(got)
    return points
