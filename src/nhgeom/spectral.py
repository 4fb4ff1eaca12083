"""Spectral phase classification and exceptional-point location.

The phase of a parameter point is read off the spectrum alone: a real
spectrum with resolvable gaps is "unbroken", complex eigenvalues mean
"broken", and a collapsed gap means the point sits at (or numerically on
top of) an exceptional point.  EPs are located on parameter segments
from the roots of the characteristic polynomial's discriminant, a
degree-6 polynomial along any segment of a 3x3 family: a sign change
crosses the exceptional line, a touching zero is the Dirac EP.
Exceptional lines are traced by predictor-corrector continuation.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import EPNotFoundError, LostTrackError
from .linalg import matrix_scale
from .model import ParameterPoint, as_point

REALITY_TOL = 1e-8  # relative: max |Im E| for an unbroken spectrum
NEAR_EP_GAP_TOL = 1e-8  # relative: min gap below this means "at an EP"
# The discriminant of a 3x3 family is a degree-6 polynomial along a
# segment; it is interpolated at twice that many nodes plus one, so the
# coefficients above DISC_DEGREE measure the fit's round-off.
DISC_DEGREE = 6
_NODES = cheb.chebpts1(2 * DISC_DEGREE + 1)
# A stationary point of the discriminant is a touching zero when |disc|
# there is within this many noise bounds.  Measured on the NV family over
# 3,000 segments through the Dirac EP, true touches reach 2.24 bounds;
# segments passing 1e-6 from it stay above 86.
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
    kind: EPKind
    defect_measure: float


def closest_pair(w):
    """(gap, i, j): the smallest |w[i] - w[j]| over i < j, first such pair.

    A scalar loop on purpose: at n = 3 it is about twice as fast as a
    vectorised gap matrix for one spectrum.
    """
    n = len(w)
    return min((abs(w[i] - w[j]), i, j) for i in range(n) for j in range(i + 1, n))


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Index arrays (i, j) of the pairs i < j, in `closest_pair`'s order."""
    return np.triu_indices(n, 1)


# Indexed by 2 * near_ep + broken: a collapsed gap outranks complex energies.
_PHASES = np.array([Phase.UNBROKEN, Phase.BROKEN, Phase.NEAR_EP, Phase.NEAR_EP])


def phase_of(w, scale):
    """PT phase label of the eigenvalues `w` (..., n) of matrices of norm `scale`.

    One spectrum gives a PhaseLabel of a Phase and two floats; a stack of
    spectra gives one of arrays over the stack (Phase members in an object
    array).  numpy's hypot is bit for bit the complex abs of `closest_pair`
    (numpy's own complex abs can differ in the last bit).
    """
    i, j = _pairs(w.shape[-1])
    d = w.take(i, axis=-1) - w.take(j, axis=-1)
    gap = np.minimum.reduce(np.hypot(d.real, d.imag), axis=-1)
    max_imag = np.maximum.reduce(np.abs(w.imag), axis=-1)
    if w.ndim == 1:
        gap, max_imag, scale = float(gap), float(max_imag), float(scale)
    code = 2 * (gap <= NEAR_EP_GAP_TOL * scale) + (max_imag > REALITY_TOL * scale)
    return PhaseLabel(label=_PHASES[code], max_imag=max_imag, min_gap=gap)


def min_gap(family, p):
    """Smallest pairwise eigenvalue distance of H(p)."""
    return closest_pair(np.linalg.eigvals(family.matrix(p)))[0]


def classify_phase(family, p):
    h = family.matrix(p)
    return phase_of(np.linalg.eigvals(h), matrix_scale(h))


def discriminant(family, p):
    """Discriminant of the cubic characteristic polynomial of H(p).

    Coefficients are extracted from traces via Newton's identities; the
    result vanishes exactly at spectral degeneracies.
    """
    h = family.matrix(p)
    if h.shape[0] != 3:
        raise ValueError("discriminant requires a 3x3 family")
    p1 = np.trace(h)
    p2 = np.trace(h @ h)
    p3 = np.trace(h @ h @ h)
    e1 = p1
    e2 = (p1 * p1 - p2) / 2
    e3 = (p1 ** 3 - 3 * p1 * p2 + 2 * p3) / 6
    # monic cubic x^3 + b x^2 + c x + d
    b, c, d = -e1, e2, -e3
    return complex(
        18 * b * c * d - 4 * b ** 3 * d + (b * c) ** 2 - 4 * c ** 3 - 27 * d ** 2
    )


def ep_at(family, p, energy):
    """Unclassified EPLocation at `p` with its eigenvector Gram defect.

    The defect is the smallest singular value of the Gram matrix of the
    unit right eigenvectors of H(p): zero where two of them coincide.
    """
    _, v = np.linalg.eig(family.matrix(p))
    v = v / np.linalg.norm(v, axis=0)[None, :]
    g = v.conj().T @ v
    defect = float(np.linalg.svd(g, compute_uv=False)[-1])
    return EPLocation(
        point=p, coalesced_energy=energy, kind=EPKind.UNCLASSIFIED, defect_measure=defect
    )


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
    split by noise and gives way to it.  Of the remaining candidates the
    one with the smallest eigenvalue gap is returned, as an unclassified
    EPLocation; `jordan.classify_ep` gives its kind.  Raises EPNotFoundError when there is no candidate, and
    ValueError for a family that is not 3x3.
    """
    a, b = as_point(a), as_point(b)

    def point_at(x):  # x in [-1, 1] maps to a -> b
        t = (1 + x) / 2
        return ParameterPoint(a.q1 + t * (b.q1 - a.q1), a.q2 + t * (b.q2 - a.q2))

    values = np.array([discriminant(family, point_at(x)) for x in _NODES])
    # Interpolant coefficients, by the discrete orthogonality of the
    # Chebyshev polynomials at these nodes.
    coef = cheb.chebvander(_NODES, len(_NODES) - 1).T @ values * (2 / len(_NODES))
    coef[0] /= 2
    noise = float(np.abs(coef[DISC_DEGREE + 1:]).sum() + np.abs(values.imag).max())
    p = coef[:DISC_DEGREE + 1].real
    # Stationary points, and the segment's ends, where disc touches zero.
    stationary = np.concatenate([_real_roots(cheb.chebder(p)), [-1.0, 1.0]])
    touching = stationary[np.abs(cheb.chebval(stationary, p)) <= TOUCH_NOISE_FACTOR * noise]
    # Within the fit's root resolution of a touching zero, where |p| stays
    # below the touch threshold, noise can split the double root into two
    # sign changes; the touching point is the better estimate of it.
    crossings = _real_roots(p)
    if crossings.size and touching.size:
        with np.errstate(divide="ignore"):
            curvature = np.abs(cheb.chebval(touching, cheb.chebder(p, 2)))
            resolution = np.sqrt(2 * TOUCH_NOISE_FACTOR * noise / curvature)
        split = np.abs(crossings[:, None] - touching) <= resolution
        crossings = crossings[~split.any(axis=1)]
    candidates = np.concatenate([crossings, touching])
    if candidates.size == 0:
        raise EPNotFoundError(
            f"the discriminant on segment {a} -> {b} neither changes sign nor "
            f"touches zero within {TOUCH_NOISE_FACTOR} x its fit noise {noise:.3e}"
        )
    best = None
    for x in candidates:
        point = point_at(x)
        w = np.linalg.eigvals(family.matrix(point))
        gap, i, j = closest_pair(w)
        if best is None or gap < best[0]:
            best = (gap, point, complex(w[[i, j]].mean()))
    _, point, energy = best
    return ep_at(family, point, energy)


def _real_roots(c):
    """Real roots in [-1, 1] of the Chebyshev series `c`."""
    roots = cheb.chebroots(c)
    roots = roots[roots.imag == 0].real
    return roots[np.abs(roots) <= 1]


def _in_box(p, box):
    q1min, q1max, q2min, q2max = box
    return q1min <= p.q1 <= q1max and q2min <= p.q2 <= q2max


def _correct(family, pred, perp, width):
    a = ParameterPoint(pred[0] - width * perp[0], pred[1] - width * perp[1])
    b = ParameterPoint(pred[0] + width * perp[0], pred[1] + width * perp[1])
    return find_ep_on_segment(family, a, b)


def trace_exceptional_line(family, seed, step, max_points, box=(-2, 2, 0, 2)):
    """Predictor-corrector continuation of an exceptional line from `seed`.

    Steps tangentially (tangent from the two latest curve points, seeded by
    probing a ring of candidate directions) and corrects transversally with
    find_ep_on_segment.  Stops at `max_points` points or when the predictor
    leaves `box` = (q1min, q1max, q2min, q2max); raises LostTrackError after
    three consecutive corrector failures.
    """
    if max_points < 1:
        return []
    points = [seed]
    if max_points == 1:
        return points

    h = abs(step)
    ref = math.pi if step < 0 else 0.0
    angles = sorted(
        (k * 2 * math.pi / 16 for k in range(16)),
        key=lambda a: (min(abs(a - ref), 2 * math.pi - abs(a - ref)), a),
    )
    nxt = None
    for ang in angles:
        u = (math.cos(ang), math.sin(ang))
        pred = (seed.point.q1 + h * u[0], seed.point.q2 + h * u[1])
        try:
            nxt = _correct(family, pred, (-u[1], u[0]), 0.6 * h)
            break
        except EPNotFoundError:
            continue
    if nxt is None:
        raise LostTrackError("no continuation direction found around the seed")
    if not _in_box(nxt.point, box):
        return points
    points.append(nxt)

    while len(points) < max_points:
        p1, p0 = points[-1].point, points[-2].point
        tang = np.array([p1.q1 - p0.q1, p1.q2 - p0.q2])
        tang /= np.linalg.norm(tang)
        got = None
        out_of_box = False
        for shrink in (1.0, 0.5, 0.25):  # three corrector attempts per step
            step_len = h * shrink
            pred = (p1.q1 + step_len * tang[0], p1.q2 + step_len * tang[1])
            if not _in_box(ParameterPoint(*pred), box):
                out_of_box = True
                break
            for width in (0.6 * step_len, 1.2 * step_len, 2.4 * step_len):
                try:
                    got = _correct(family, pred, (-tang[1], tang[0]), width)
                    break
                except EPNotFoundError:
                    continue
            if got is not None:
                break
        if out_of_box:
            break
        if got is None:
            raise LostTrackError(f"corrector failed 3 times near {pred} while tracing")
        if not _in_box(got.point, box):
            break
        points.append(got)
    return points
