"""Biorthogonal fidelity and fidelity susceptibility in parameter space.

The fidelity between neighboring parameter points is the complex product
of the two cross overlaps of biorthogonally normalized eigenvectors; the
susceptibility is its quadratic coefficient, evaluated exactly by the
biorthogonal sum over states from one eigensystem and the analytic
parameter gradient.  Each has one stacked kernel that returns columns: a
status code per point and the values where it is ok.  The grid, line,
polar and straddle sweeps keep every status in a Sweep, so the singular
set shows up as data, and `fidelity` and `susceptibility`, the one-point
cases, raise STATUS_ERRORS for it.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, BandAmbiguityError, NormalizationBreakdownError
from .linalg import eigendecompose, matrix_scale, norm
from .model import ParameterPoint, as_point, circle_points

# Prefactor of the susceptibility's conditioning bound, 16 machine epsilons;
# see `susceptibility`.
SOS_ERROR_FACTOR = 16 * np.finfo(float).eps

STATUS_OK = "ok"
STATUS_EP_BREAKDOWN = "ep_breakdown"
STATUS_BAND_AMBIGUOUS = "band_ambiguous"
# A kernel's status column holds indices into STATUSES.
STATUSES = (STATUS_OK, STATUS_EP_BREAKDOWN, STATUS_BAND_AMBIGUOUS)
OK, EP_BREAKDOWN, BAND_AMBIGUOUS = range(len(STATUSES))

# The error a one-point call raises for each non-ok status of its kernel.
STATUS_ERRORS = {
    STATUS_EP_BREAKDOWN: NormalizationBreakdownError,
    STATUS_BAND_AMBIGUOUS: BandAmbiguityError,
}


@dataclass(frozen=True)
class Displacement:
    """A unit direction and positive magnitude in (q1, q2) space."""

    direction: tuple
    magnitude: float

    def __post_init__(self):
        n1, n2 = self.direction
        if not abs(n1 * n1 + n2 * n2 - 1.0) <= 1e-12:  # NaN fails too
            raise ArgumentError(f"direction {self.direction} is not a unit vector")
        if not (self.magnitude >= 0 and math.isfinite(self.magnitude)):
            raise ArgumentError(f"bad displacement magnitude {self.magnitude}")

    def applied_to(self, p):
        p = as_point(p)
        return ParameterPoint(
            p.q1 + self.magnitude * self.direction[0],
            p.q2 + self.magnitude * self.direction[1],
        )


def unit(v):
    n1, n2 = float(v[0]), float(v[1])
    norm = math.hypot(n1, n2)
    if norm == 0:
        raise ArgumentError("zero direction vector")
    if not norm < math.inf:
        raise ArgumentError(f"non-finite direction vector {(n1, n2)}")
    return (n1 / norm, n2 / norm)


@dataclass(frozen=True)
class FidelityResult:
    value: complex
    band: int
    endpoints: tuple


@dataclass(frozen=True)
class SusceptibilityResult:
    value: complex
    error_estimate: float
    band: int
    point: ParameterPoint
    direction: tuple


def band_index(band, dim):
    """Slot dim // 2 - band of the (Re desc) ordering; labels run dim // 2 down."""
    labels = range(dim // 2 - dim + 1, dim // 2 + 1)
    if band not in labels:
        names = ", ".join(f"{b:+d}" if b else "0" for b in labels)
        raise ArgumentError(f"band must be one of {names}; got {band}")
    return dim // 2 - band


def _one_point(columns, band, *where):
    """(value, error) of a kernel's only point; raises for a non-ok status,
    naming the band and the points `where`."""
    status, values, errors = columns
    if status[0] != OK:
        status = STATUSES[status[0]]
        where = " -> ".join(map(str, where))
        raise STATUS_ERRORS[status](f"band {band} at {where}: {status}")
    return complex(values[0]), float(errors[0])


def _masked(status, values, dtype):
    """`values` of the ok points spread over a column of every point, NaN elsewhere."""
    column = np.full(status.shape, np.nan, dtype=dtype)
    column[status == OK] = values
    return column


def fidelity_from_systems(ref_sys, disp_sys, idx, disp_idx):
    """Gauge-invariant cross-overlap product <L'|R><L|R'> of two eigensystems.

    Band `idx` of `ref_sys` against band `disp_idx` of `disp_sys`: a
    complex for two systems, a list for two stacks (with an integer or one
    index per system).  The overlaps are multiplied as Python complexes, as
    numpy's array product can differ in the last bit from the scalar one.
    """
    one = ref_sys.lefts.ndim == 2
    lefts, rights, disp_lefts, disp_rights = (
        x[None] if one else x
        for x in (ref_sys.lefts, ref_sys.rights, disp_sys.lefts, disp_sys.rights)
    )
    k = np.arange(len(lefts))
    a = disp_lefts[k, disp_idx][:, None] @ rights[k, :, idx][..., None]
    b = lefts[k, idx][:, None] @ disp_rights[k, :, disp_idx][..., None]
    values = [x * y for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    return values[0] if one else values


def fidelity(family, band, p, d):
    """Biorthogonal fidelity of `band` between p and p + d.

    F(p, p) is exactly 1 by construction.  Raises
    NormalizationBreakdownError when either endpoint sits on an EP of the
    involved bands, BandAmbiguityError when the continuation of the band
    to the displaced point is not unique.  This is the one-point case of
    the straddle sweep's kernel, bit for bit.
    """
    p = as_point(p)
    p2 = d.applied_to(p)
    value, _ = _one_point(_fidelities(family, band, *p, *p2), band, p, p2)
    return FidelityResult(value=value, band=band, endpoints=(p, p2))


def _fidelities(family, band, q1, q2, q1b, q2b):
    """(status, F, error) columns of `band` from each point (q1, q2) to (q1b, q2b).

    The coordinates are floats or equal-length 1-D arrays; one stacked
    eigendecomposition serves each end.  The displaced band is the one of
    maximal |<L_band|R_j>|, overlaps compared at 10 significant digits so
    that the exact conjugate-pair degeneracy across the PT boundary is a
    true tie, resolved toward smaller |Im E|, then +Im E, then lower index.
    In order of precedence a pair is ep_breakdown if the reference end
    breaks down or flags the band, ok with F = 1 if the points are equal,
    ep_breakdown if the displaced end breaks down, band_ambiguous if its
    two best candidates agree to 1e-9 in overlap and 1e-12 in Im E,
    ep_breakdown if it flags the matched band, and else ok, with error 0.
    F and the error are NaN where the status is not ok.
    """
    n = family.dimension
    idx = band_index(band, n)
    ref = eigendecompose(family.matrices(q1, q2).reshape(-1, n, n))
    disp = eigendecompose(family.matrices(q1b, q2b).reshape(-1, n, n))
    ov = np.abs(ref.lefts[:, None, idx] @ disp.rights)[:, 0]
    im = disp.energies.imag
    ovmax = np.maximum(ov.max(axis=-1, keepdims=True), 1e-300)
    # lexsort's last key sorts first, and ties keep their index order.
    order = np.lexsort((-im, np.abs(im), -np.round(ov / ovmax, 10)))
    k = np.arange(len(ov))
    top, second = order[:, 0], order[:, min(1, n - 1)]
    # Equal Im E to 1e-12 implies equal |Im E| to 1e-12.
    tie = (
        (top != second)
        & (np.abs(ov[k, top] - ov[k, second]) <= 1e-9 * np.maximum(ov[k, top], 1e-300))
        & (np.abs(im[k, top] - im[k, second]) <= 1e-12)
    )
    same = (q1 == q1b) & (q2 == q2b) & np.ones(len(k), dtype=bool)
    # Each rule overwrites the ones after it in order of precedence.
    status = np.where(disp.condition_flags[k, top], EP_BREAKDOWN, OK)
    status[tie] = BAND_AMBIGUOUS
    status[disp.breakdown] = EP_BREAKDOWN
    status[same] = OK
    status[ref.breakdown | ref.condition_flags[:, idx]] = EP_BREAKDOWN
    values = np.array(fidelity_from_systems(ref, disp, idx, top), dtype=complex)
    values[same] = 1
    ok = status == OK
    values[~ok] = np.nan
    return status, values, np.where(ok, 0.0, np.nan)


def susceptibility(family, band, p, direction):
    """Directional fidelity susceptibility by the biorthogonal sum over states.

    With one eigensystem H R_m = E_m R_m, <L_m|R_k> = delta_mk, and dH the
    derivative of H along the unit `direction`,

        chi_n = sum over m != n of a_nm a_mn / (E_n - E_m)^2,
        a = <L|dH|R>

    (Brody, J. Phys. A 47, 035305, 2014), the quadratic coefficient of
    1 - F(p, p + dq n).  `error_estimate` is the conditioning bound

        B * sum over m != n of (|a_nm a_mn| + ||dH|| (|a_nm| + |a_mn|))
                               / |E_n - E_m|^2,
        B = 16 eps |H| kappa^2 / g,

    with kappa the largest left norm ||L_k|| (rights are unit vectors), g
    the smallest gap |E_n - E_m| and ||dH|| the Frobenius norm: the
    rounding of the products and of each matrix element a_nm, propagated
    through the sum.  This is the one-point case of the sweeps' batched
    kernel, bit for bit.  Raises NormalizationBreakdownError when `band`
    sits on an EP.
    """
    p = as_point(p)
    direction = unit(direction)
    value, error = _one_point(_sum_over_states(family, band, *p, *direction), band, p)
    return SusceptibilityResult(
        value=value, error_estimate=error, band=band, point=p, direction=direction
    )


def _sum_over_states(family, band, q1, q2, n1, n2):
    """(status, chi, error_estimate) columns of `band` at each point (q1, q2) along (n1, n2).

    q1 and q2 are floats (one point) or equal-length 1-D arrays; (n1, n2)
    is one unit direction (floats) for every point, or one per point
    ((N, 1, 1) arrays).  One stacked eigendecomposition serves every point.
    A point where normalization breaks down, or where `band` is flagged,
    is ep_breakdown, with chi and the error NaN; the others are ok and
    follow `susceptibility`.
    """
    n = band_index(band, family.dimension)
    h = family.matrices(q1, q2).reshape(-1, family.dimension, family.dimension)
    d1, d2 = family.gradient(ParameterPoint(q1, q2))
    dh = (n1 * d1 + n2 * d2).reshape(h.shape)
    system = eigendecompose(h)
    status = np.where(system.breakdown | system.condition_flags[:, n], EP_BREAKDOWN, OK)
    ok = status == OK
    w, lefts, rights = system.energies[ok], system.lefts[ok], system.rights[ok]
    dh, h = dh[ok], h[ok]
    a = lefts @ dh @ rights
    others = [m for m in range(system.dim) if m != n]
    row, col = a[:, n, others], a[:, others, n]
    gaps = w[:, n, None] - w[:, others]
    g2 = gaps ** 2
    product = row * col
    terms = product / g2
    dh_norm = norm(dh, (-2, -1))
    spread = (np.abs(product) + dh_norm[:, None] * (np.abs(row) + np.abs(col))) / np.abs(g2)
    value, weight = terms.sum(axis=1), spread.sum(axis=1)
    kappa = norm(lefts, -1).max(axis=-1)
    gap = np.abs(gaps).min(axis=1)
    bound = SOS_ERROR_FACTOR * matrix_scale(h) * kappa ** 2 / gap
    return status, _masked(status, value, complex), _masked(status, bound * weight, float)


@dataclass(frozen=True)
class ScanCell:
    """One sweep cell: coordinates, status, and an optional payload."""

    coords: tuple
    band: int
    status: str
    value: Optional[complex]
    error_estimate: Optional[float]


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """A sweep's cells as columns, read as a sequence of ScanCells.

    The cells run over every pair of values of `axes`, two 1-D float
    arrays in the order of a cell's coords, with axes[fast] varying
    fastest.  `status` holds each cell's index into STATUSES; `values` and
    `errors` hold its payload, NaN where the status is not ok.  A cell is
    built when it is read.  Like the list of cells it stands for, a Sweep
    equals a list or a Sweep of equal cells.
    """

    axes: tuple
    fast: int
    band: int
    status: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def __len__(self):
        return len(self.status)

    def __eq__(self, other):
        if isinstance(other, (list, Sweep)):
            return list(self) == list(other)
        return NotImplemented

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # a negative k counts from the end
        outer, inner = divmod(k, len(self.axes[self.fast]))
        i, j = (inner, outer) if self.fast == 0 else (outer, inner)
        coords = (float(self.axes[0][i]), float(self.axes[1][j]))
        status = STATUSES[self.status[k]]
        if status != STATUS_OK:
            return ScanCell(coords, self.band, status, None, None)
        return ScanCell(coords, self.band, status, complex(self.values[k]), float(self.errors[k]))

    def coordinates(self, render=float):
        """The two coordinate columns, as lists of `render` of each axis
        value, which is called once per value of an axis."""
        fast, slow = self.fast, 1 - self.fast
        axes = [np.array([render(x) for x in axis.tolist()], dtype=object) for axis in self.axes]
        columns = [None, None]
        columns[fast] = np.tile(axes[fast], len(axes[slow])).tolist()
        columns[slow] = np.repeat(axes[slow], len(axes[fast])).tolist()
        return columns


def grid_scan(family, box, resolution, band, direction):
    """Susceptibility over a rectangular grid, row-major with q1 fastest.

    `box` is (q1min, q1max, q2min, q2max); cells on the singular set are
    reported with a non-ok status, never dropped.
    """
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ArgumentError(f"grid resolution must be at least 2x2, got {resolution}")
    q1min, q1max, q2min, q2max = box
    q1, q2 = np.linspace(q1min, q1max, nx), np.linspace(q2min, q2max, ny)
    columns = _sum_over_states(family, band, np.tile(q1, ny), np.repeat(q2, nx), *unit(direction))
    return Sweep((q1, q2), 0, band, *columns)


def line_scan(family, q1, q2_values, band, direction):
    """Susceptibility at (q1, q2) for each q2 in `q2_values`, in order."""
    q2 = np.asarray(q2_values, dtype=float).ravel()
    q1 = np.full(q2.shape, float(q1))
    columns = _sum_over_states(family, band, q1, q2, *unit(direction))
    return Sweep((q1[:1], q2), 0, band, *columns)


def polar_sweep(family, center, radii, angles, band):
    """Radial susceptibility on circles around `center`, angles fastest.

    The displacement direction at polar angle phi is the inward radial
    direction -(cos phi, sin phi), i.e. the fidelity between the states at
    r and r - dq.  All radii must be positive and finite, and all angles
    finite.  The cells' coords are (r, phi).
    """
    center = as_point(center)
    radii = [float(r) for r in radii]
    angles = [float(a) for a in angles]
    if not radii or not angles:
        raise ArgumentError("radii and angles must be nonempty")
    if not all(0 < r < math.inf for r in radii):
        raise ArgumentError(f"all radii must be positive and finite; got {radii}")
    if not all(map(math.isfinite, angles)):
        raise ArgumentError(f"all angles must be finite; got {angles}")
    inward = [unit((-math.cos(phi), -math.sin(phi))) for phi in angles]
    n1, n2 = np.tile(np.array(inward).T, len(radii))
    q1, q2 = circle_points(center, radii, angles)
    columns = _sum_over_states(family, band, q1, q2, n1[:, None, None], n2[:, None, None])
    return Sweep((np.array(radii), np.array(angles)), 1, band, *columns)


def straddle_fidelity(family, band, q2_values, delta, q1=0.0):
    """Fidelity between (q1, q2) and (q1, q2 + delta) for each q2.

    Band continuation across the PT-broken boundary is by maximal overlap
    (conjugate-pair ties resolved toward smaller, then positive, Im E).
    Returns a Sweep whose cells' coords are (q1, q2).
    """
    if not 0 < delta < math.inf:
        raise ArgumentError(f"delta must be positive and finite, got {delta}")
    q2 = np.asarray(q2_values, dtype=float).ravel()
    q1 = np.full(q2.shape, float(q1))
    return Sweep((q1[:1], q2), 0, band, *_fidelities(family, band, q1, q2, q1, q2 + float(delta)))
