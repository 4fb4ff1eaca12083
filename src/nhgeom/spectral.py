"""PT phase, EP location and exceptional-line tracing, for any n, from
Hermite's form of the characteristic polynomial: the Hankel matrix
P_ij = p_(i+j) of the power sums p_k = tr H^k (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, 2006, ch. 4).  det P is the
discriminant prod_(i<j) (E_i - E_j)^2, and for a real characteristic
polynomial P is positive definite exactly when the spectrum is real and
simple.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EPNotFoundError, LostTrackError
from .linalg import eigenpairs, norm
from .model import ParameterPoint, as_point

# Within this many round-off bounds a quantity is zero: the phase rule's
# discriminant, the locator's touching zeros (true touches reach 2.34 fit
# noise bounds on NV, misses by 1e-6 stay above 14) and the seed gradient.
TOUCH_NOISE_FACTOR = 10
_UNIT = np.finfo(float).eps / 2  # the unit round-off


@functools.lru_cache(maxsize=None)
def _fit(deg):
    """The locator's 2 deg + 1 Chebyshev nodes (numpy's chebpts1) and the
    table T_j(x_i) (chebvander's recurrence) whose product with the values,
    times 2 / (2 deg + 1), gives the fit's coefficients.  Both read-only."""
    nodes = np.sin(0.5 * np.pi / (2 * deg + 1) * np.arange(-2 * deg, 2 * deg + 1, 2))
    rows = [np.ones_like(nodes), nodes]
    for _ in range(2 * deg - 1):
        rows.append(rows[-1] * (2 * nodes) - rows[-2])
    table = np.array(rows[:2 * deg + 1])
    nodes.setflags(write=False)
    table.setflags(write=False)
    return nodes, table


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    NEAR_EP = "near_ep"


@dataclass(frozen=True)
class PhaseLabel:
    """A phase label and its evidence: det P and its round-off bound."""

    label: Phase
    discriminant: float
    bound: float


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


@functools.lru_cache(maxsize=None)
def _hankel(n):
    """The n x n index array i + j, which builds P from the power sums."""
    return np.add.outer(np.arange(n), np.arange(n))


_eye = functools.lru_cache(maxsize=None)(np.eye)  # shared identities: read only


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


def _power_sums(h):
    """p_k = tr(H^(k - k//2) H^(k//2)), k < 2n - 1, of each matrix of the stack
    `h` (..., n, n), as (2n - 1, ...).  matmul and einsum treat each matrix
    alike, so it gets the same bits alone as in a stack; real stacks run real."""
    n = h.shape[-1]
    h = np.ascontiguousarray(h if h.imag.any() else h.real)
    powers = [_eye(n), h]  # H^0 .. H^(n-1)
    for _ in range(n - 2):
        powers.append(powers[-1] @ h)
    sums = np.empty((2 * n - 1,) + h.shape[:-2], h.dtype)
    sums[0] = n
    for k in range(1, 2 * n - 1):
        np.einsum("...ij,...ji->...", powers[k - k // 2], powers[k // 2], out=sums[k, ...])
    return sums


def _hermite(p):
    """Pivots d (a list of n arrays) of the unpivoted LDL^T of the Hermite form
    P of the power sums p (2n - 1, ...), det P = prod d, and the (n, n, ...)
    array whose entries below the diagonal are L's.  A zero pivot eliminates
    nothing."""
    n = (len(p) + 1) // 2
    a = p[_hankel(n)]
    for k in range(n - 1):
        a[k + 1:, k] /= np.where(a[k, k] == 0, np.inf, a[k, k])
        a[k + 1:, k + 1:] -= a[k + 1:, k, None] * a[k, k + 1:]
    return [a[k, k] for k in range(n)], a


def _adjugate(d, a):
    """adj P = G^T diag(delta) G, G = L^-1 and delta_k the product of the
    pivots but d_k: det P P^-1 with no division, so finite where P is
    singular (at an EP).  `d` and `a` are `_hermite`'s."""
    n = len(d)
    g = _eye(n).reshape(a.shape[:2] + (1,) * (a.ndim - 2)) + np.zeros_like(a)
    for k in range(n - 1):
        g[k + 1:] -= a[k + 1:, k, None] * g[k]
    delta = [functools.reduce(np.multiply, d[:k] + d[k + 1:], 1) for k in range(n)]
    return sum(delta[k] * g[k, :, None] * g[k] for k in range(n))


# Indexed by real * (2 * near_ep + unbroken).
_LABELS = np.array([Phase.BROKEN, Phase.UNBROKEN, Phase.NEAR_EP, Phase.NEAR_EP])


def phase_of(h):
    """PT phase label of the matrix `h` (n, n), or of each of a stack
    (..., n, n), from its Hermite form P.  Each p_k is within
    b_k = (k + 1) n u m_k, u the unit round-off and m_k = tr |H|^k (k rounds
    of n-term sums for H^k and its trace, about n in the elimination).
    broken if a p_k is not real beyond TOUCH_NOISE_FACTOR b_k (a non-real
    coefficient means a non-real eigenvalue); else, from Re P, near_ep if
    |det P| is within TOUCH_NOISE_FACTOR sum_ij |adj P|_ij b_(i+j), unbroken
    if every pivot of P is positive (Sylvester), else broken.  A stack gives
    a PhaseLabel of arrays (Phase members in an object array)."""
    n = h.shape[-1]
    p, m = _power_sums(np.stack([h, np.abs(h)])).swapaxes(0, 1)
    bound = (np.arange(1, 2 * n) * n * _UNIT).reshape((-1,) + (1,) * (p.ndim - 1)) * m.real
    d, a = _hermite(p.real)
    disc = functools.reduce(np.multiply, d)
    disc_bound = sum(sum(np.abs(_adjugate(d, a)) * bound[_hankel(n)]))  # summed in order
    real = not np.iscomplexobj(p) or (np.abs(p.imag) <= TOUCH_NOISE_FACTOR * bound).all(axis=0)
    near = np.abs(disc) <= TOUCH_NOISE_FACTOR * disc_bound
    code = real * (2 * near + functools.reduce(np.logical_and, [x > 0 for x in d]))
    return PhaseLabel(_LABELS[code], disc, disc_bound)


def classify_phase(family, p):
    """PT phase label of H(p): `phase_of` for one point of `family`."""
    return phase_of(family.matrix(p))


def discriminant(family, p):
    """Discriminant prod_(i<j) (E_i - E_j)^2 = det P of H(p), for any n."""
    return complex(_discriminant(family, *as_point(p)))


def _discriminant(family, q1, q2):
    """`discriminant` at each point (q1[k], q2[k]) of equal-shape arrays."""
    return functools.reduce(np.multiply, _hermite(_power_sums(family.matrices(q1, q2)))[0]) + 0j


def _discriminant_gradient(family, p):
    """(d disc/dq1, d disc/dq2), real parts, at p by Jacobi's formula,
    sum_ij (adj P)_ij dp_(i+j) with dp_k = k tr(H^(k-1) dH), and a round-off
    bound on each: dp_k is within (2n - 1) n u of its sum over magnitudes
    dm_k, and a cofactor of row i, within R_i (the product of the other rows'
    magnitude sums of P), is off by (n - 1) as many: (2n - 1) n^2 u sum R_i dm."""
    p = as_point(p)
    h = family.matrix(p)
    n = len(h)
    adj = _adjugate(*_hermite(_power_sums(h)))
    rows = _power_sums(np.abs(h))[_hankel(n)].sum(axis=1)
    r = np.array([np.prod(np.delete(rows, i)) for i in range(n)])[:, None]

    def dsums(x, dx):  # k tr(X^(k-1) dX) for k = 0 .. 2n - 2, as P's entries
        return np.array([0] + [k * np.trace(np.linalg.matrix_power(x, k - 1) @ dx)
                               for k in range(1, 2 * n - 1)])[_hankel(n)]

    grads = [(np.sum(adj * dsums(h, dh)).real,
              (2 * n - 1) * n * n * _UNIT * np.sum(r * dsums(np.abs(h), np.abs(dh))))
             for dh in family.gradient]
    return tuple(np.array(x) for x in zip(*grads))


def find_ep_on_segment(family, a, b):
    """Locate an exceptional point on the parameter segment a -> b.

    Along the segment the discriminant of an n x n family, affine in
    (q1, q2), is a polynomial p of degree n(n - 1), fitted at 2n(n - 1) + 1
    Chebyshev nodes; the coefficients above n(n - 1) and the largest
    |Im disc| bound the fit's noise.  A candidate is a real root of p (a
    crossing), or a root of p' or an end where |p| is within
    TOUCH_NOISE_FACTOR noise bounds (a touching zero, as at the Dirac EP);
    a crossing within sqrt(2 TOUCH_NOISE_FACTOR noise / |p''|) of a touching
    zero is that zero split by noise.  One stacked `eigenpairs` ranks the
    candidates by gap and gives the EPLocation's evidence (the gap, energy
    and Gram-matrix defect).  Raises EPNotFoundError with no candidate.
    """
    a, b = as_point(a), as_point(b)

    def point_at(x):  # x in [-1, 1] (or an array of such) maps to a -> b
        t = (1 + x) / 2
        return ParameterPoint(a.q1 + t * (b.q1 - a.q1), a.q2 + t * (b.q2 - a.q2))

    deg = family.dimension * (family.dimension - 1)
    nodes, table = _fit(deg)
    values = _discriminant(family, *point_at(nodes))
    coef = table @ values * (2 / len(nodes))
    coef[0] /= 2
    noise = float(np.abs(coef[deg + 1:]).sum() + np.abs(values.imag).max())
    p = coef[:deg + 1].real.tolist()
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


# These helpers repeat numpy.polynomial.chebyshev's steps for the fit's
# series operation for operation, so their results are chebder's, chebval's
# and chebroots's bit for bit, without that module's generic argument
# handling.


def _chebder(c):
    """Derivative of the Chebyshev series `c`, a nonempty list of floats, by
    chebder's recurrence."""
    c = list(c)
    n = len(c) - 1
    if n == 0:
        return [c[0] * 0]
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _chebval(x, c):
    """The Chebyshev series `c`, a nonempty list of floats, at the points
    `x`, by chebval's Clenshaw recurrence."""
    if len(c) == 1:
        return c[0] + 0 * x
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
    """Real roots in [-1, 1] of the Chebyshev series `c`, a list of floats:
    chebroots's, with trailing zeros trimmed (the all-zero series has none,
    a line one) and else the sorted eigenvalues of the rotated companion."""
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

    The first predictor steps |step| along sign(step) (-d2 disc, d1 disc),
    the zero set's tangent, so a positive step keeps the PT-unbroken side
    (disc > 0) on its right; later ones step along the last secant.  One
    find_ep_on_segment call across each prediction, of half-width
    0.6 |step|, corrects it.  Stops at `max_points` or when a point leaves
    `box` = (q1min, q1max, q2min, q2max).  Raises ArgumentError for a zero or
    non-finite step, and LostTrackError when the seed's gradient is within
    TOUCH_NOISE_FACTOR round-off bounds of zero (a singular point such as
    the Dirac EP) or a corrector finds no EP.
    """
    if not (math.isfinite(step) and step != 0):
        raise ArgumentError(f"step must be finite and nonzero, got {step}")
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
