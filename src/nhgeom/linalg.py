"""Dense complex linear algebra for small non-Hermitian matrices.

Provides eigendecomposition with matched, biorthogonally normalized
left/right eigenvector pairs, minimum-norm linear solves, and numerical
null spaces.

All routines operate on plain numpy arrays (complex dtype) of dimension
N <= 16 and are pure functions: safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NormalizationBreakdownError,
)

MAX_DIM = 16

# Tolerances, relative to the Frobenius norm of the input matrix.
TOL_RESID = 1e-10
TOL_BIORTH = 1e-9
TOL_COMPLETE = 1e-8
DEGENERACY_TOL = 1e-8
BREAKDOWN_TOL = 1e-12
# Bands whose raw left-right overlap falls below this absolute value are
# flagged as near-defective even when the eigenvalue gap is still resolvable
# (the overlap degrades as sqrt of the distance to an EP, the gap only as
# the gap formula allows).
OVERLAP_FLAG_TOL = 1e-6


def as_complex_matrix(a):
    """Validate and return `a` as a square finite complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimensionMismatchError(f"dimension {m.shape[0]} outside 1..{MAX_DIM}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise NonFiniteError("matrix contains NaN or Inf")
    return m


def as_complex_vector(v, dim=None):
    """Validate and return `v` as a finite complex vector."""
    x = np.asarray(v, dtype=complex).ravel()
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {x.shape[0]}")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise NonFiniteError("vector contains NaN or Inf")
    return x


def matrix_scale(h):
    """Frobenius norm of `h`, floored at 1 for tolerance scaling."""
    return max(np.linalg.norm(h), 1.0)


@dataclass(frozen=True)
class BiorthogonalEigensystem:
    """Matched triples (E_n, <L_n|, |R_n>) of a non-Hermitian matrix.

    Rights are unit-norm columns of `rights`; lefts are rows of `lefts`,
    scaled so that lefts[n] @ rights[:, n] == 1 whenever the overlap allowed
    it.  Bands are sorted by (Re E descending, Im E descending).
    `condition_flags[n]` marks bands that are near-degenerate or whose raw
    left-right overlap was too small for trustworthy normalization.
    """

    energies: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    residuals: np.ndarray
    condition_flags: np.ndarray

    @property
    def dim(self):
        return self.energies.shape[0]

    def completeness_defect(self):
        """Frobenius distance of sum_n |R_n><L_n| from the identity."""
        s = self.rights @ self.lefts
        return np.linalg.norm(s - np.eye(self.dim))

    def biorthogonality_defect(self):
        """max |<L_n|R_m> - delta_nm| over all band pairs."""
        g = self.lefts @ self.rights
        return np.max(np.abs(g - np.eye(self.dim)))


def eigendecompose(h):
    """Full biorthogonal eigendecomposition of a dense complex matrix.

    Raises NormalizationBreakdownError when any raw left-right overlap is
    below BREAKDOWN_TOL relative to the matrix norm, which signals an
    exceptional point within tolerance.  Near-degenerate bands (and bands
    with a small-but-nonzero overlap) are normalized best-effort and
    flagged in `condition_flags`.
    """
    h = as_complex_matrix(h)
    n = h.shape[0]
    scale = matrix_scale(h)

    w, vl, vr = sla.eig(h, left=True, right=True)
    order = sorted(range(n), key=lambda i: (-w[i].real, -w[i].imag))
    w = w[order]
    vr = vr[:, order]
    lefts = vl[:, order].conj().T  # row n is the left covector of band n

    overlaps = np.array([lefts[i] @ vr[:, i] for i in range(n)])
    breakdown = np.abs(overlaps) < BREAKDOWN_TOL * scale
    if np.any(breakdown):
        raise NormalizationBreakdownError(
            f"left-right overlap below {BREAKDOWN_TOL:g}*|H| for bands "
            f"{np.nonzero(breakdown)[0].tolist()}: exceptional point within tolerance",
            overlaps=overlaps,
        )

    flags = np.abs(overlaps) < OVERLAP_FLAG_TOL
    if n > 1:
        gaps = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gaps, np.inf)
        flags |= gaps.min(axis=1) < DEGENERACY_TOL * scale
    lefts = lefts / overlaps[:, None]

    residuals = np.linalg.norm(h @ vr - vr * w[None, :], axis=0)
    return BiorthogonalEigensystem(
        energies=w,
        rights=vr,
        lefts=lefts,
        residuals=residuals,
        condition_flags=flags,
    )


def solve_linear(a, b, rank_tol=1e-12):
    """Solve a x = b; returns (x, residual_norm).

    For singular `a` the minimum-norm least-squares solution is returned
    and the achieved residual reported instead of raising.
    """
    a = as_complex_matrix(a)
    b = as_complex_vector(b, dim=a.shape[0])
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=rank_tol)
    resid = np.linalg.norm(a @ x - b)
    return x, resid


def null_space(a, rank_tol=1e-10):
    """Orthonormal basis (list of vectors) of the numerical kernel of `a`.

    Singular directions with singular value <= rank_tol * ||a||_2 are kept;
    the zero matrix yields the full standard basis, full-rank input an
    empty list.
    """
    a = as_complex_matrix(a)
    _, s,vh = np.linalg.svd(a)
    thresh = rank_tol * (s[0] if s.size else 0.0)
    return [vh[i].conj() for i in range(a.shape[0]) if s[i] <= thresh]
