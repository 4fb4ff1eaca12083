"""Biorthogonal fidelity and fidelity susceptibility in parameter space.

The fidelity between neighboring parameter points is the complex product
of the two cross overlaps of biorthogonally normalized eigenvectors; the
susceptibility is its quadratic coefficient, obtained from a geometric
ladder of step sizes with first-order Richardson extrapolation.  Grid,
polar, and boundary-straddling sweeps wrap these primitives with an
explicit per-cell status so that the singular set shows up as data rather
than as silently dropped points.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BandAmbiguityError,
    NormalizationBreakdownError,
    StepsTooLargeError,
)
from .linalg import eigendecompose, matrix_scale
from .model import ParameterPoint, as_point
from .spectral import min_gap, phase_of

DEFAULT_STEP_H = 1e-3
LADDER_HALVINGS = 4  # steps h, h/2, h/4, h/8
# A ladder step is refused when the sampled eigenvalue gap along it drops
# below this relative threshold (the step would run into an EP).
STEP_GAP_TOL = 1e-6

STATUS_OK = "ok"
STATUS_EP_BREAKDOWN = "ep_breakdown"
STATUS_BAND_AMBIGUOUS = "band_ambiguous"
STATUS_STEP_TOO_LARGE = "step_too_large"


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
    matched_by: dict
    phase_labels: tuple


@dataclass(frozen=True)
class SusceptibilityResult:
    value: complex
    error_estimate: float
    steps_used: tuple
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
    return top, ov, second


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
            matched_by={"reference_index": idx, "displaced_index": idx},
            phase_labels=(label1, label1),
        )

    h2 = family.matrix(p2)
    sys2 = eigendecompose(h2)
    label2 = phase_of(sys2.energies, matrix_scale(h2))
    disp_idx, overlaps, runner_up = _match_displaced_band(sys1, idx, sys2)
    _check_band_flag(sys2, disp_idx, p2)

    value = fidelity_from_systems(sys1, sys2, idx, disp_idx)
    return FidelityResult(
        value=value,
        band=band,
        endpoints=(p, p2),
        matched_by={
            "reference_index": idx,
            "displaced_index": disp_idx,
            "overlap": float(overlaps[disp_idx]),
            "runner_up_index": runner_up,
            "runner_up_overlap": float(overlaps[runner_up]),
        },
        phase_labels=(label1, label2),
    )


def _check_ladder(family, p, direction, h):
    """Refuse a ladder whose largest step runs into an exceptional point."""
    scale = matrix_scale(family.matrix(p))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        q = ParameterPoint(
            p.q1 + t * h * direction[0], p.q2 + t * h * direction[1]
        )
        if min_gap(family, q) < STEP_GAP_TOL * scale:
            raise StepsTooLargeError(
                f"ladder step h={h:g} from {p} along {direction} crosses an EP "
                f"near {q}"
            )


def susceptibility(family, band, p, direction, h=DEFAULT_STEP_H):
    """Directional fidelity susceptibility by Richardson extrapolation.

    Evaluates g(dq) = (1 - F)/dq^2 on the ladder dq in {h, h/2, h/4, h/8}
    and removes the leading O(dq) correction; the error estimate is the
    difference of the last two extrapolants.
    """
    p = as_point(p)
    direction = unit(direction)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"bad ladder step {h}")
    # Decompose the reference point first: an exact EP must surface as a
    # normalization breakdown, not as a too-large ladder step.
    ref_sys = eigendecompose(family.matrix(p))
    _check_band_flag(ref_sys, band_index(band, ref_sys.dim), p)
    _check_ladder(family, p, direction, h)

    steps = tuple(h / 2 ** k for k in range(LADDER_HALVINGS))
    g = []
    for dq in steps:
        f = fidelity(family, band, p, Displacement(direction, dq))
        g.append((1.0 - f.value) / dq ** 2)
    extrap = [2 * g[k + 1] - g[k] for k in range(len(g) - 1)]
    return SusceptibilityResult(
        value=extrap[-1],
        error_estimate=abs(extrap[-1] - extrap[-2]),
        steps_used=steps,
        band=band,
        point=p,
        direction=direction,
    )


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
    StepsTooLargeError: STATUS_STEP_TOO_LARGE,
}


def _chi_cell(args):
    family, coords, point, band, direction, h = args
    try:
        res = susceptibility(family, band, point, direction, h=h)
        return ScanCell(coords, band, STATUS_OK, res.value, res.error_estimate)
    except tuple(CELL_STATUS) as err:
        return ScanCell(coords, band, CELL_STATUS[type(err)], None, None)


def _run_cells(tasks, workers):
    if workers <= 1:
        return [_chi_cell(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chi_cell, tasks, chunksize=8))


def grid_scan(family, box, resolution, band, direction, h=DEFAULT_STEP_H, workers=1):
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
    direction = unit(direction)
    tasks = [
        (family, (q1s[ix], q2s[iy]), ParameterPoint(q1s[ix], q2s[iy]), band, direction, h)
        for iy in range(ny)
        for ix in range(nx)
    ]
    return _run_cells(tasks, workers)


def line_scan(family, q1, q2_values, band, direction, h=DEFAULT_STEP_H, workers=1):
    """Susceptibility at (q1, q2) for each q2 in `q2_values`, in order."""
    direction = unit(direction)
    tasks = [
        (family, (q1, q2), ParameterPoint(q1, q2), band, direction, h) for q2 in q2_values
    ]
    return _run_cells(tasks, workers)


def polar_sweep(family, center, radii, angles, band, h=DEFAULT_STEP_H, workers=1):
    """Radial susceptibility on circles around `center`.

    The displacement direction at polar angle phi is the inward radial
    direction -(cos phi, sin phi), i.e. the fidelity between the states at
    r and r - dq.  All radii must exceed the largest ladder step.
    """
    center = as_point(center)
    radii = [float(r) for r in radii]
    angles = [float(a) for a in angles]
    if not radii or not angles:
        raise ValueError("radii and angles must be nonempty")
    if min(radii) <= h:
        raise ValueError(
            f"all radii must exceed the ladder step h={h:g}; got min {min(radii):g}"
        )
    tasks = []
    for r in radii:
        for phi in angles:
            point = ParameterPoint(
                center.q1 + r * math.cos(phi), center.q2 + r * math.sin(phi)
            )
            direction = unit((-math.cos(phi), -math.sin(phi)))
            tasks.append((family, (r, phi), point, band, direction, h))
    return _run_cells(tasks, workers)


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
