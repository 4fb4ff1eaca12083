"""Dense complex linear algebra for small non-Hermitian matrices.

Provides eigendecomposition with matched, biorthogonally normalized
left/right eigenvector pairs, minimum-norm linear solves, and numerical
null spaces.

All routines operate on plain numpy arrays (complex dtype) of dimension
N <= 16 and are pure functions: safe for concurrent use.
"""

import functools
from dataclasses import dataclass

import numpy as np

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
# The raw overlap of a band's unit left and right eigenvectors is 1/||L_k||
# (see `eigendecompose`), so both overlap tolerances are thresholds on the
# left norms.  Below BREAKDOWN_TOL (relative) normalization breaks down.
BREAKDOWN_TOL = 1e-12
# Bands whose raw left-right overlap falls below this absolute value are
# flagged as near-defective even when the eigenvalue gap is still resolvable
# (the overlap degrades as sqrt of the distance to an EP, the gap only as
# the gap formula allows).
OVERLAP_FLAG_TOL = 1e-6


def as_complex_matrix(a, stack=False):
    """Validate and return `a` as a finite complex square matrix.

    With `stack`, an (N, n, n) stack of matrices is accepted too.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1 or m.shape[-1] > MAX_DIM:
        raise DimensionMismatchError(f"dimension {m.shape[-1]} outside 1..{MAX_DIM}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or Inf")
    return m


def norm(x, axis):
    """2-norm of `x` over `axis`, Frobenius over two axes.

    numpy.linalg.norm's formula without its argument handling, which costs
    more than the arithmetic on 3x3 matrices.  The same for one matrix and
    for each matrix of a stack, bit for bit.
    """
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def matrix_scale(h):
    """Frobenius norm of `h` (or of each matrix of a stack), floored at 1."""
    return np.maximum(norm(h, (-2, -1)), 1.0)


def band_order(w):
    """Indices sorting the eigenvalues `w` (..., n) by (Re desc, Im desc).

    The sort is stable: exactly tied eigenvalues keep their index order.
    """
    return np.lexsort((-w.imag, -w.real), axis=-1)


@dataclass(frozen=True)
class BiorthogonalEigensystem:
    """Matched triples (E_n, <L_n|, |R_n>) of a non-Hermitian matrix.

    Rights are unit-norm columns of `rights`; lefts are rows of `lefts`,
    with lefts[n] @ rights[:, n] == 1.  Bands are sorted by (Re E
    descending, Im E descending).  `condition_flags[n]` marks bands that
    are near-degenerate or whose raw left-right overlap was too small for
    trustworthy normalization.

    For a stack of matrices every field gains the stack's leading axis,
    and `breakdown` marks the matrices whose normalization broke down
    (their lefts, residuals and flags carry no meaning).
    """

    energies: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    residuals: np.ndarray
    condition_flags: np.ndarray
    breakdown: np.ndarray = False

    @property
    def dim(self):
        return self.energies.shape[-1]

    def completeness_defect(self):
        """Frobenius distance of sum_n |R_n><L_n| from the identity."""
        s = self.rights @ self.lefts
        return np.linalg.norm(s - np.eye(self.dim), axis=(-2, -1))

    def biorthogonality_defect(self):
        """max |<L_n|R_m> - delta_nm| over all band pairs."""
        g = self.lefts @ self.rights
        return np.max(np.abs(g - np.eye(self.dim)), axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _inf_diagonal(n):
    """n x n zeros with inf on the diagonal, to drop i == j from a minimum."""
    return np.where(np.eye(n, dtype=bool), np.inf, 0.0)


def eigendecompose(h):
    """Biorthogonal eigendecomposition of a matrix or a stack of matrices.

    `h` is one (n, n) matrix or an (N, n, n) stack; a stack takes one
    LAPACK call per matrix and no Python loop.  The rights R are the unit
    eigenvectors of `numpy.linalg.eig`, the lefts the rows of inv(R), so
    <L_m|R_k> = delta_mk by construction.  The raw overlap of a unit left
    with its unit right is then 1/||L_k||.  R is inverted before the band
    sort and the rows of L permuted with it, which keeps exact zeros exact.

    A band whose raw overlap is below BREAKDOWN_TOL relative to the matrix
    norm (or a singular R) signals an exceptional point within tolerance:
    one matrix raises NormalizationBreakdownError, a stack marks the
    matrix in `breakdown`.  Near-degenerate bands, and bands with a small
    but nonzero overlap, are flagged in `condition_flags`.
    """
    h = as_complex_matrix(h, stack=True)
    stack = h if h.ndim == 3 else h[None]
    n = stack.shape[-1]
    scale = matrix_scale(stack)[:, None]

    w, rights = np.linalg.eig(stack)
    # inv raises for the whole stack if one R is exactly singular; det
    # comes from the same LU, so it masks those matrices first.
    singular = np.linalg.det(rights) == 0
    safe = np.where(singular[:, None, None], np.eye(n), rights) if singular.any() else rights
    lefts = np.linalg.inv(safe)
    # Sort the bands: permute w, the columns of R and the rows of L alike.
    flat = (band_order(w) + n * np.arange(len(w))[:, None]).ravel()
    w = w.reshape(-1)[flat].reshape(-1, n)
    lefts = lefts.reshape(-1, n)[flat].reshape(-1, n, n)
    rights = rights.swapaxes(1, 2).reshape(-1, n)[flat].reshape(-1, n, n).swapaxes(1, 2)

    with np.errstate(over="ignore", invalid="ignore"):
        overlaps = 1.0 / norm(lefts, -1)
    overlaps[singular] = 0.0
    # Negated tests, so that a NaN overlap counts as a breakdown.
    bad = ~(overlaps >= BREAKDOWN_TOL * scale)
    flags = ~(overlaps >= OVERLAP_FLAG_TOL)
    if n > 1:
        gaps = np.abs(w[:, :, None] - w[:, None, :]) + _inf_diagonal(n)
        flags |= gaps.min(axis=-1) < DEGENERACY_TOL * scale
    residuals = norm(stack @ rights - rights * w[:, None, :], -2)

    if h.ndim == 3:
        return BiorthogonalEigensystem(w, rights, lefts, residuals, flags, bad.any(axis=-1))
    if bad.any():
        raise NormalizationBreakdownError(
            f"left-right overlap below {BREAKDOWN_TOL:g}*|H| for bands "
            f"{np.nonzero(bad[0])[0].tolist()}: exceptional point within tolerance",
            overlaps=overlaps[0],
        )
    return BiorthogonalEigensystem(w[0], rights[0], lefts[0], residuals[0], flags[0])


def solve_linear(a, b, rank_tol=1e-12):
    """Solve a x = b; returns (x, residual_norm).

    For singular `a` the minimum-norm least-squares solution is returned
    and the achieved residual reported instead of raising.
    """
    a = as_complex_matrix(a)
    b = np.asarray(b, dtype=complex).ravel()
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(f"expected length {a.shape[0]}, got {b.shape[0]}")
    if not (np.all(np.isfinite(b.real)) and np.all(np.isfinite(b.imag))):
        raise NonFiniteError("vector contains NaN or Inf")
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
