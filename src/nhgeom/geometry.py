"""Biorthogonal fidelity and fidelity susceptibility in parameter space.

The fidelity between neighboring parameter points is the complex product
of the two cross overlaps of biorthogonally normalized eigenvectors; the
susceptibility is its quadratic coefficient, evaluated exactly by the
biorthogonal sum over states from one eigensystem and the analytic
parameter gradient.  Grid, polar, and boundary-straddling sweeps wrap
these primitives with an explicit per-cell status so that the singular set
shows up as data rather than as silently dropped points.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BandAmbiguityError, NormalizationBreakdownError
from .linalg import eigendecompose, matrix_scale, norm
from .model import ParameterPoint, as_point
from .spectral import phase_of

# Prefactor of the susceptibility's conditioning bound, 16 machine epsilons;
# see `susceptibility`.
SOS_ERROR_FACTOR = 16 * np.finfo(float).eps

STATUS_OK = "ok"
STATUS_EP_BREAKDOWN = "ep_breakdown"
STATUS_BAND_AMBIGUOUS = "band_ambiguous"


@dataclass(frozen=True)
class Displacement:
    """A unit direction and positive magnitude in (q1, q2) space."""

    direction: tuple
    magnitude: float

    def __post_init__(self):
        n1, n2 = self.direction
        if abs(n1 * n1 + n2 * n2 - 1.0) > 1e-12:
            raise ValueError(f"direction {self.direction} is not a unit vector")
        if not (self.magnitude >= 0 and math.isfinite(self.magnitude)):
            raise ValueError(f"bad displacement magnitude {self.magnitude}")

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
        raise ValueError("zero direction vector")
    return (n1 / norm, n2 / norm)


@dataclass(frozen=True)
class FidelityResult:
    value: complex
    band: int
    endpoints: tuple
    phase_labels: tuple


@dataclass(frozen=True)
class SusceptibilityResult:
    value: complex
    error_estimate: float
    band: int
    point: ParameterPoint
    direction: tuple


def band_index(band, dim):
    """Map band label in {+1, 0, -1} to an index of the (Re desc) ordering."""
    if band not in (-1, 0, 1):
        raise ValueError(f"band must be one of -1, 0, +1; got {band}")
    return dim // 2 - band


def _check_band_flag(system, idx, where):
    if system.condition_flags[idx]:
        raise NormalizationBreakdownError(
            f"band {idx} at {where} is within degeneracy tolerance of an EP"
        )


def _match_displaced_band(ref_sys, idx, disp_sys):
    """Index of the displaced band continuing band `idx` of `ref_sys`.

    Maximal |<L_idx | R_j>| wins; near-ties are broken by smaller |Im E|,
    then by larger Im E (conjugate pairs), then by index.
    """
    ov = np.abs(ref_sys.lefts[idx] @ disp_sys.rights)
    w = disp_sys.energies
    # Overlaps are compared at 10 significant digits so that the exact
    # conjugate-pair degeneracy across the PT boundary becomes a true tie,
    # resolved toward smaller |Im E| and then toward the +Im branch.
    ovmax = max(float(np.max(ov)), 1e-300)
    order = sorted(
        range(len(ov)),
        key=lambda j: (-round(ov[j] / ovmax, 10), abs(w[j].imag), -w[j].imag, j),
    )
    top, second = order[0], order[1] if len(order) > 1 else order[0]
    if (
        top != second
        and abs(ov[top] - ov[second]) <= 1e-9 * max(ov[top], 1e-300)
        and abs(abs(w[top].imag) - abs(w[second].imag)) <= 1e-12
        and abs(w[top].imag - w[second].imag) <= 1e-12
    ):
        raise BandAmbiguityError(
            f"bands {top} and {second} have indistinguishable continuation "
            f"overlaps {ov[top]:.6e} / {ov[second]:.6e}",
            candidates=(top, second),
        )
    return top


def fidelity_from_systems(ref_sys, disp_sys, idx, disp_idx):
    """Gauge-invariant cross-overlap product between two eigensystems."""
    l_ref = ref_sys.lefts[idx]
    r_ref = ref_sys.rights[:, idx]
    l_disp = disp_sys.lefts[disp_idx]
    r_disp = disp_sys.rights[:, disp_idx]
    return complex((l_disp @ r_ref) * (l_ref @ r_disp))


def fidelity(family, band, p, d):
    """Biorthogonal fidelity of `band` between p and p + d.

    F(p, p) is exactly 1 by construction.  Raises
    NormalizationBreakdownError when either endpoint sits on an EP of the
    involved bands, BandAmbiguityError when the continuation of the band
    to the displaced point is not unique.
    """
    p = as_point(p)
    p2 = d.applied_to(p)
    h1 = family.matrix(p)
    sys1 = eigendecompose(h1)
    idx = band_index(band, sys1.dim)
    _check_band_flag(sys1, idx, p)
    label1 = phase_of(sys1.energies, matrix_scale(h1))

    if d.magnitude == 0.0:
        return FidelityResult(
            value=1.0 + 0.0j,
            band=band,
            endpoints=(p, p2),
            phase_labels=(label1, label1),
        )

    h2 = family.matrix(p2)
    sys2 = eigendecompose(h2)
    label2 = phase_of(sys2.energies, matrix_scale(h2))
    disp_idx = _match_displaced_band(sys1, idx, sys2)
    _check_band_flag(sys2, disp_idx, p2)

    value = fidelity_from_systems(sys1, sys2, idx, disp_idx)
    return FidelityResult(
        value=value,
        band=band,
        endpoints=(p, p2),
        phase_labels=(label1, label2),
    )


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
    (value, error), = _sum_over_states(family, band, [p], [direction])
    if value is None:
        raise NormalizationBreakdownError(
            f"band {band} at {p} is within tolerance of an EP"
        )
    return SusceptibilityResult(
        value=value, error_estimate=error, band=band, point=p, direction=direction
    )


def _sum_over_states(family, band, points, directions):
    """[(chi, error_estimate)] of `band` at each point along its unit direction.

    One stacked eigendecomposition serves every point.  A point where
    normalization breaks down, or where `band` is flagged, gives
    (None, None); the others follow `susceptibility`.
    """
    if not points:
        return []
    h = np.array([family.matrix(p) for p in points])
    grads = [family.gradient(p) for p in points]
    n1, n2 = (np.array(c)[:, None, None] for c in zip(*directions))
    dh = n1 * np.array([g[0] for g in grads]) + n2 * np.array([g[1] for g in grads])
    system = eigendecompose(h)
    n = band_index(band, system.dim)
    ok = np.flatnonzero(~(system.breakdown | system.condition_flags[:, n]))
    w, lefts, dh = system.energies[ok], system.lefts[ok], dh[ok]
    a = lefts @ dh @ system.rights[ok]
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
    bound = SOS_ERROR_FACTOR * matrix_scale(h[ok]) * kappa ** 2 / gap
    out = [(None, None)] * len(points)
    for k, chi, err in zip(ok.tolist(), value.tolist(), (bound * weight).tolist()):
        out[k] = (chi, err)
    return out


@dataclass(frozen=True)
class ScanCell:
    """One sweep cell: coordinates, status, and an optional payload."""

    coords: tuple
    band: int
    status: str
    value: Optional[complex]
    error_estimate: Optional[float]


# Per-cell breakdowns that a sweep reports as a status instead of raising.
CELL_STATUS = {
    NormalizationBreakdownError: STATUS_EP_BREAKDOWN,
    BandAmbiguityError: STATUS_BAND_AMBIGUOUS,
}


def _chi_cells(family, band, coords, points, directions):
    """ScanCells of one batched sum-over-states call; EP cells are ep_breakdown."""
    results = _sum_over_states(family, band, points, directions)
    return [
        ScanCell(c, band, STATUS_EP_BREAKDOWN if value is None else STATUS_OK, value, err)
        for c, (value, err) in zip(coords, results)
    ]


def grid_scan(family, box, resolution, band, direction):
    """Susceptibility over a rectangular grid, row-major with q1 fastest.

    `box` is (q1min, q1max, q2min, q2max); cells on the singular set are
    reported with a non-ok status, never dropped.
    """
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError(f"grid resolution must be at least 2x2, got {resolution}")
    q1min, q1max, q2min, q2max = box
    q1s = np.linspace(q1min, q1max, nx)
    q2s = np.linspace(q2min, q2max, ny)
    coords = [(q1, q2) for q2 in q2s for q1 in q1s]
    points = [ParameterPoint(float(q1), float(q2)) for q1, q2 in coords]
    return _chi_cells(family, band, coords, points, [unit(direction)] * len(points))


def line_scan(family, q1, q2_values, band, direction):
    """Susceptibility at (q1, q2) for each q2 in `q2_values`, in order."""
    coords = [(q1, q2) for q2 in q2_values]
    points = [as_point(c) for c in coords]
    return _chi_cells(family, band, coords, points, [unit(direction)] * len(points))


def polar_sweep(family, center, radii, angles, band):
    """Radial susceptibility on circles around `center`.

    The displacement direction at polar angle phi is the inward radial
    direction -(cos phi, sin phi), i.e. the fidelity between the states at
    r and r - dq.  All radii must be positive.
    """
    center = as_point(center)
    radii = [float(r) for r in radii]
    angles = [float(a) for a in angles]
    if not radii or not angles:
        raise ValueError("radii and angles must be nonempty")
    if not all(r > 0 for r in radii):
        raise ValueError(f"all radii must be positive; got {radii}")
    coords = [(r, phi) for r in radii for phi in angles]
    points = [
        ParameterPoint(center.q1 + r * math.cos(phi), center.q2 + r * math.sin(phi))
        for r, phi in coords
    ]
    directions = [unit((-math.cos(phi), -math.sin(phi))) for _, phi in coords]
    return _chi_cells(family, band, coords, points, directions)


def straddle_fidelity(family, band, q2_values, delta, q1=0.0):
    """Fidelity between (q1, q2) and (q1, q2 + delta) for each q2.

    Band continuation across the PT-broken boundary is by maximal overlap
    (conjugate-pair ties resolved toward smaller, then positive, Im E).
    Returns ScanCell rows whose coords are (q1, q2).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    d = Displacement((0.0, 1.0), float(delta))
    cells = []
    for q2 in q2_values:
        p = ParameterPoint(float(q1), float(q2))
        try:
            res = fidelity(family, band, p, d)
            cells.append(ScanCell((p.q1, p.q2), band, STATUS_OK, res.value, 0.0))
        except tuple(CELL_STATUS) as err:
            cells.append(ScanCell((p.q1, p.q2), band, CELL_STATUS[type(err)], None, None))
    return cells
