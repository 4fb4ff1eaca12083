"""Jordan chains at defective degeneracies and EP dispersion diagnostics.

At an exceptional point the coalesced eigenvalue carries a rank-2 Jordan
block: a right chain (psi0, chi) with (H - E) chi = psi0 and a left chain
(phi0, eta) acting from the right.  In the gauge <eta|psi0> = 1 the
directional element A = <phi0| dH |psi0> splits the pair by 2 sqrt(A r)
to first order (Kato, ch. II), so linear (Dirac-cone) dispersion needs
A = 0 for both parameter derivatives; a splitting fit is a per-direction
diagnostic.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoDoubleEigenvalueError,
    NotDefectiveError,
)
from .linalg import as_complex_matrix, eigenvalues, matrix_scale
from .model import as_point, circle_points
from .spectral import EPKind, Phase, phase_of

# Window (relative to ||H||) within which two eigenvalues count as the
# double eigenvalue: a numerically represented EP splits its pair by
# ~ sqrt(machine eps), so this sits well above that floor.
DOUBLE_EV_TOL = 1e-6
KERNEL_RANK_TOL = 1e-8

# Radii and fit basis of the `sqrt_coefficient` diagnostic's splitting fit
# |E+ - E-|(r).  The basis carries Taylor powers up to r^5 so the sqrt(r)
# amplitude of an analytic (EP-free) splitting does not soak up
# curvature, plus a constant term to absorb the small offset induced by a
# located-not-exact EP; with this ladder the residual sqrt amplitude at a
# Dirac point stays ~ 2e-7 normalized even for location errors of 1e-8.
FIT_RADII = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)
FIT_POWERS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
# Bound on the normalized chain amplitude |<phi0|dH_i|psi0>| /
# (||phi0|| ||psi0|| ||dH_i||) of a Dirac EP.  Measured on the NV family
# over 16,000 located EPs: at most 2.8e-14 at Dirac EPs, while at
# conventional EPs the larger of the two is at least 0.51.
DIRAC_CHAIN_AMP_TOL = 1e-6
# A Dirac EP's PT-unbroken ring: RING_SAMPLES points at NEIGHBOR_RADIUS.
NEIGHBOR_RADIUS = 1e-2
RING_SAMPLES = 8


@dataclass(frozen=True)
class JordanChain:
    energy: complex
    psi0: np.ndarray  # right eigenvector, unit norm
    chi: np.ndarray  # right generalized vector, psi0 component removed
    phi0: np.ndarray  # left eigenvector (row covector)
    eta: np.ndarray  # left generalized vector (row covector)
    residuals: tuple  # (A psi0, A chi - psi0, phi0 A, eta A - phi0) norms


@dataclass(frozen=True)
class DispersionDiagnostic:
    angle: float
    a_coefficient: complex  # <phi0| dH(phi) |psi0> in the chain's gauge
    sqrt_coefficient: complex  # predicted Puiseux amplitude 2 sqrt(A/<eta|psi0>)
    splitting_fit: tuple  # (linear slope, sqrt amplitude), raw fit
    normalized_sqrt_amplitude: float  # |sqrt amplitude| over the splitting at FIT_RADII[0]


def _canonical_phase(v, tol=1e-12):
    """Rotate v so its first non-negligible component is real positive."""
    idx = next((i for i, x in enumerate(v) if abs(x) > tol), 0)
    ph = v[idx] / abs(v[idx]) if abs(v[idx]) > 0 else 1.0
    return v / ph


def jordan_chain(h, energy):
    """Right and left Jordan chains of `h` at the double eigenvalue `energy`.

    All four vectors come from one SVD of A = H - E: psi0 and phi0 are the
    singular vectors of its smallest singular value, chi and eta the
    minimum-norm solutions of A chi = psi0 and eta A = phi0.

    Raises DimensionMismatchError or NonFiniteError for an `h` that is not
    one finite square matrix, NoDoubleEigenvalueError if fewer than two
    eigenvalues fall in the degeneracy window around `energy`, and
    NotDefectiveError unless exactly one singular value of A is at most
    KERNEL_RANK_TOL s[0] (A is square: its left and right kernels have
    equal dimension).
    """
    h = as_complex_matrix(h)
    scale = matrix_scale(h)
    w = eigenvalues(h)
    close = np.abs(w - energy) <= DOUBLE_EV_TOL * scale
    if np.count_nonzero(close) < 2:
        raise NoDoubleEigenvalueError(
            f"energy {energy} matches {np.count_nonzero(close)} eigenvalue(s) "
            f"of spectrum {np.sort_complex(w)}"
        )

    a = h - energy * np.eye(h.shape[0])
    u, s, vh = np.linalg.svd(a)
    nullity = np.count_nonzero(s <= KERNEL_RANK_TOL * s[0])
    if nullity != 1:
        raise NotDefectiveError(
            f"kernel of (H - E) is {nullity}-dimensional: the degeneracy "
            "is diagonalizable" if nullity > 1 else
            "no numerical kernel at the given energy"
        )
    # 1/s, with 0 for the singular values that lstsq(rcond=1e-12) drops.
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-12 * s[0])
    psi0 = _canonical_phase(vh[-1].conj())
    chi = vh.conj().T @ (s_inv * (u.conj().T @ psi0))
    chi = chi - (psi0.conj() @ chi) * psi0

    phi0 = _canonical_phase(u[:, -1]).conj()  # row covector
    eta = (u @ (s_inv * (vh @ phi0.conj()))).conj()

    # Fix the chain gauge: scale the left pair so <eta|psi0> = 1.
    c = complex(eta @ psi0)
    if abs(c) > 1e-12:
        phi0 = phi0 / c
        eta = eta / c

    residuals = (
        float(np.linalg.norm(a @ psi0)),
        float(np.linalg.norm(a @ chi - psi0)),
        float(np.linalg.norm(phi0 @ a)),
        float(np.linalg.norm(eta @ a - phi0)),
    )
    return JordanChain(
        energy=complex(energy),
        psi0=psi0,
        chi=chi,
        phi0=phi0,
        eta=eta,
        residuals=residuals,
    )


def a_coefficient(chain, dh):
    """Directional matrix element <phi0| dH |psi0> in the chain's gauge.

    Its magnitude depends on the chain normalization; vanishing or not is
    gauge invariant.
    """
    dh = np.asarray(dh, dtype=complex)
    if dh.shape != (chain.psi0.shape[0], chain.psi0.shape[0]):
        raise DimensionMismatchError(
            f"dH shape {dh.shape} does not match chain dimension {chain.psi0.shape[0]}"
        )
    return complex(chain.phi0 @ dh @ chain.psi0)


def sqrt_coefficient(family, ep, phi):
    """Dispersion diagnostic at a located EP along direction `phi`.

    Combines the analytic defective-channel element <phi0|dH(phi)|psi0>
    (gauge fixed by <eta|psi0> = 1, so the predicted Puiseux splitting is
    2 sqrt(A r)) with a numerical fit of the eigenvalue splitting over
    FIT_RADII.  The normalized sqrt amplitude is the fit's sqrt amplitude
    over the splitting at the largest radius.  A per-direction diagnostic:
    `classify_ep` reads the chain elements alone.
    """
    chain = jordan_chain(family.matrix(ep.point), ep.coalesced_energy)
    return _dispersion(family, ep.point, chain, [phi])[0]


def _dispersion(family, point, chain, angles):
    """`sqrt_coefficient` at `point` along each of `angles`, from its Jordan
    chain `chain`: one `eigenvalues` call over the FIT_RADII x angles grid of
    `circle_points` and one least-squares fit whose columns are the angles."""
    d1, d2 = family.gradient(as_point(point))
    a_vals = [a_coefficient(chain, math.cos(phi) * d1 + math.sin(phi) * d2) for phi in angles]
    # |E+ - E-| of the pair nearest the chain's energy at each radius; hypot
    # is bit for bit the complex abs of a numpy scalar.
    w = eigenvalues(family.matrices(*circle_points(point, FIT_RADII, angles)))
    idx = np.argsort(np.abs(w - chain.energy), axis=-1)[:, :2]
    d = np.subtract.reduce(np.take_along_axis(w, idx, axis=-1), axis=-1)
    values = np.hypot(d.real, d.imag).reshape(len(FIT_RADII), len(angles))
    design = np.column_stack([np.asarray(FIT_RADII) ** p for p in FIT_POWERS])
    coef = np.linalg.lstsq(design, values, rcond=None)[0].tolist()
    lins, sqs = coef[FIT_POWERS.index(1.0)], coef[FIT_POWERS.index(0.5)]
    # Least squares is linear in its data: the fit of the splitting scaled
    # by its value at the largest radius is the raw fit over that value.
    return [
        DispersionDiagnostic(
            angle=float(phi), a_coefficient=a, sqrt_coefficient=2.0 * cmath.sqrt(a),
            splitting_fit=(lin, sq),
            normalized_sqrt_amplitude=abs(sq / s_ref) if s_ref > 0 else 0.0,
        )
        for phi, a, lin, sq, s_ref in zip(angles, a_vals, lins, sqs, values[0].tolist())
    ]


def classify_ep(family, ep):
    """Dirac vs conventional classification of a located EP.

    Dirac requires both chain elements <phi0|dH_i|psi0> of the parameter
    derivatives to vanish, to DIRAC_CHAIN_AMP_TOL relative to
    ||phi0|| ||psi0|| ||dH_i|| (so the pair splits linearly in every
    direction), AND a PT-unbroken neighborhood: every one of RING_SAMPLES
    points on the ring of radius NEIGHBOR_RADIUS reads unbroken.  Anything
    else is conventional.  Raises NotDefectiveError or
    NoDoubleEigenvalueError as `jordan_chain` does.
    """
    return _classify(family, ep.point, jordan_chain(family.matrix(ep.point), ep.coalesced_energy))


def _classify(family, point, chain):
    """`classify_ep` at `point`, from its Jordan chain `chain`."""
    tol = DIRAC_CHAIN_AMP_TOL * np.linalg.norm(chain.phi0) * np.linalg.norm(chain.psi0)
    for dh in family.gradient(as_point(point)):
        # A zero derivative couples nothing: 0 > 0 is false.
        if abs(a_coefficient(chain, dh)) > tol * np.linalg.norm(dh):
            return EPKind.CONVENTIONAL
    angles = [2 * math.pi * k / RING_SAMPLES for k in range(RING_SAMPLES)]
    labels = phase_of(family.matrices(*circle_points(point, [NEIGHBOR_RADIUS], angles))).label
    return EPKind.DIRAC if all(x is Phase.UNBROKEN for x in labels) else EPKind.CONVENTIONAL
