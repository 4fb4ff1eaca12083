"""Spectral phase classification and exceptional-point location.

The phase of a parameter point is read off the spectrum alone: a real
spectrum with resolvable gaps is "unbroken", complex eigenvalues mean
"broken", and a collapsed gap means the point sits at (or numerically on
top of) an exceptional point.  EPs are located on parameter segments by
a coarse global scan of the minimal eigenvalue gap followed by
golden-section refinement, and exceptional lines are traced by
predictor-corrector continuation.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EPNotFoundError, LostTrackError, NhgeomError
from .linalg import matrix_scale
from .model import ParameterPoint, as_point

REALITY_TOL = 1e-8  # relative: max |Im E| for an unbroken spectrum
NEAR_EP_GAP_TOL = 1e-8  # relative: min gap below this means "at an EP"
# Calibrated acceptance gap for a refined EP candidate: with the locator's
# 1e-13 golden-section interval the residual gap at a square-root EP is
# ~ 5 * sqrt(1e-13) ~ 2e-6, while away from any EP the segment minimum
# stays many orders of magnitude larger.
EP_FOUND_GAP_TOL = 2e-5


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
    vectorised gap matrix, and the matrix form can differ in the last bit,
    which would move the golden-section search in find_ep_on_segment.
    """
    n = len(w)
    return min((abs(w[i] - w[j]), i, j) for i in range(n) for j in range(i + 1, n))


def phase_of(w, scale):
    """PT phase label of the eigenvalues `w` of a matrix of norm `scale`."""
    max_imag = float(np.max(np.abs(w.imag)))
    gap = closest_pair(w)[0]
    if gap <= NEAR_EP_GAP_TOL * scale:
        label = Phase.NEAR_EP
    elif max_imag > REALITY_TOL * scale:
        label = Phase.BROKEN
    else:
        label = Phase.UNBROKEN
    return PhaseLabel(label=label, max_imag=max_imag, min_gap=gap)


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


def _golden_min(f, lo, hi, xtol):
    """Golden-section minimization of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _discriminant_polish(family, point_at, t0, lo, hi):
    """Refine an EP parameter past the eigenvalue noise floor.

    The characteristic-polynomial discriminant is an exactly computable
    polynomial along the segment, so its zero is not limited by the
    sqrt(eps) accuracy of near-defective eigenvalues.  A sign change
    (boundary EP) is bisected; a touching zero (interior EP, double root
    of the discriminant) is polished by secant iteration on the numerical
    derivative.
    """

    def disc(t):
        return discriminant(family, point_at(t))

    window = max(hi - lo, 1e-6)
    a, b = t0 - window, t0 + window
    da, db = disc(a), disc(b)
    if abs(da.imag) > 1e-9 * abs(da) or abs(db.imag) > 1e-9 * abs(db):
        return t0  # complex discriminant: no sign structure to exploit
    da, db = da.real, db.real
    if da * db < 0:
        for _ in range(200):
            mid = 0.5 * (a + b)
            dm = disc(mid).real
            if dm == 0.0 or b - a < 1e-15:
                return mid
            if da * dm < 0:
                b, db = mid, dm
            else:
                a, da = mid, dm
        return 0.5 * (a + b)

    # Touching zero: secant on d'(t) via central differences.
    s = 1e-6
    t = t0

    def dprime(t):
        return (disc(t + s).real - disc(t - s).real) / (2 * s)

    t_prev = t + 1e-7
    f_prev = dprime(t_prev)
    f = dprime(t)
    for _ in range(60):
        denom = f - f_prev
        if denom == 0.0:
            break
        t_next = t - f * (t - t_prev) / denom
        if not math.isfinite(t_next) or abs(t_next - t) > window:
            break
        t_prev, f_prev = t, f
        t, f = t_next, dprime(t_next)
        if abs(t - t_prev) < 1e-14:
            break
    return t


def find_ep_on_segment(family, a, b, coarse=201, classify=True):
    """Locate an exceptional point on the parameter segment a -> b.

    The minimal eigenvalue gap is sampled on a coarse grid (the gap is not
    unimodal in general), the best local bracket is refined by
    golden-section search, and the candidate is accepted only if the
    residual gap collapses below the calibrated EP threshold.  Raises
    EPNotFoundError otherwise.
    """
    a, b = as_point(a), as_point(b)
    seg = np.array([b.q1 - a.q1, b.q2 - a.q2])
    seglen = float(np.linalg.norm(seg))

    def point_at(t):
        return ParameterPoint(a.q1 + t * seg[0], a.q2 + t * seg[1])

    def gap_at(t):
        return min_gap(family, point_at(t))

    ts = np.linspace(0.0, 1.0, coarse)
    gaps = np.array([gap_at(t) for t in ts])
    i = int(np.argmin(gaps))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, coarse - 1)]
    xtol = 1e-13 / max(seglen, 1e-30)
    t_star, gap_min = _golden_min(gap_at, lo, hi, xtol)
    if family.dimension == 3:
        t_star = _discriminant_polish(family, point_at, t_star, lo, hi)
        t_star = min(max(t_star, 0.0), 1.0)
        gap_min = gap_at(t_star)

    p_star = point_at(t_star)
    h = family.matrix(p_star)
    scale = matrix_scale(h)
    if gap_min > EP_FOUND_GAP_TOL * scale:
        raise EPNotFoundError(
            f"minimal gap {gap_min:.3e} on segment {a} -> {b} stays above "
            f"the EP threshold {EP_FOUND_GAP_TOL * scale:.3e}"
        )

    w = np.linalg.eigvals(h)
    _, i, j = closest_pair(w)
    ep = ep_at(family, p_star, complex((w[i] + w[j]) / 2))
    if classify:
        from .jordan import classify_ep

        try:
            kind = classify_ep(family, ep)
        except NhgeomError:
            kind = EPKind.UNCLASSIFIED
        ep = replace(ep, kind=kind)
    return ep


def _in_box(p, box):
    q1min, q1max, q2min, q2max = box
    return q1min <= p.q1 <= q1max and q2min <= p.q2 <= q2max


def _correct(family, pred, perp, width):
    a = ParameterPoint(pred[0] - width * perp[0], pred[1] - width * perp[1])
    b = ParameterPoint(pred[0] + width * perp[0], pred[1] + width * perp[1])
    return find_ep_on_segment(family, a, b, coarse=41, classify=False)


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
