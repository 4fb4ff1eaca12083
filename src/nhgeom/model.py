"""Parametrized Hamiltonian families and the built-in NV-center model.

The NV model is a spin-1 qutrit with a non-reciprocal coupling:

    H(q1, q2) = 3 Sz^2 + 2 q1 Sz + sqrt(2) (Sx - i q2 Sy)

in the standard Sz eigenbasis ordered (+1, 0, -1).  q1 plays the role of
an effective momentum (detuning) and q2 the degree of non-reciprocity;
the model is Hermitian exactly on the q2 = 0 line.  H is affine in
(q1, q2), so the family is its three matrices.  Downstream modules only
ever see the generic `HamiltonianFamily` interface, so any other family
H0 + q1 A1 + q2 A2 can reuse the whole toolchain.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, DimensionMismatchError, NonFiniteError
from .linalg import as_complex_matrix


class ParameterPoint(NamedTuple):
    """A point (q1, q2), or a stack of points as two equal-shape arrays."""

    q1: float
    q2: float


def as_point(p):
    pt = ParameterPoint(float(p[0]), float(p[1]))
    if not (math.isfinite(pt.q1) and math.isfinite(pt.q2)):
        raise NonFiniteError(f"non-finite parameter point {pt}")
    return pt


def as_points(p):
    """`p` as a ParameterPoint of finite floats or of equal-shape float arrays."""
    if isinstance(p[0], (int, float)) and isinstance(p[1], (int, float)):
        return as_point(p)
    q1, q2 = np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float)
    if q1.shape != q2.shape:
        raise ArgumentError(f"q1 and q2 differ in shape: {q1.shape} != {q2.shape}")
    for name, q in (("q1", q1), ("q2", q2)):
        if not np.isfinite(q).all():
            raise NonFiniteError(f"non-finite {name} in a stack of {q.size} parameter points")
    return ParameterPoint(q1, q2)


def circle_points(center, radii, angles):
    """center + r (cos phi, sin phi) over radii x angles, angles fastest, as a
    ParameterPoint of two flat arrays."""
    center = as_point(center)
    r = np.array(radii, dtype=float)[:, None]
    cos = np.array([math.cos(phi) for phi in angles])
    sin = np.array([math.sin(phi) for phi in angles])
    return ParameterPoint((center.q1 + r * cos).ravel(), (center.q2 + r * sin).ravel())


class HamiltonianFamily:
    """The two-parameter family H(q1, q2) = H0 + q1 A1 + q2 A2 of three
    constant n x n matrices.

    `h0`, `a1` and `a2` are stored once, read-only, in the matrices' common
    dtype (at least float) and with no -0.0.  `matrix` (one point) and
    `matrices` (a stack of equal-shape arrays, as (..., n, n)) sum H0 + q1 A1
    + q2 A2 in that order and then make it complex, so an entry that all
    three terms leave zero is +0.0 at every point.  `gradient` is the
    constant pair (dH/dq1, dH/dq2) = (A1, A2), two read-only complex
    matrices.  Raises DimensionMismatchError unless the three are square
    matrices of one shape and of dimension 1..MAX_DIM, and NonFiniteError
    for a NaN or an infinity in any of them.
    """

    def __init__(self, name, h0, a1, a2):
        shapes = [np.shape(m) for m in (h0, a1, a2)]
        if len(set(shapes)) > 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
            raise DimensionMismatchError(
                f"H0, A1 and A2 must be square matrices of one shape, got shapes {shapes}")
        terms = np.array([h0, a1, a2]) + 0.0  # at least float, and no -0.0
        gradient = as_complex_matrix(terms, stack=True)  # of dimension 1..MAX_DIM, finite
        terms.setflags(write=False)
        gradient.setflags(write=False)
        self.name = name
        self.dimension = len(terms[0])
        self.h0, self.a1, self.a2 = terms
        self.gradient = (gradient[1], gradient[2])

    def matrix(self, p):
        return self._sum(as_point(p))

    def matrices(self, q1, q2):
        """H at each point (q1[k], q2[k]) of equal-shape finite arrays: (..., n, n)."""
        return self._sum(as_points((q1, q2)))

    def _sum(self, p):  # in place, which halves a large stack's temporaries
        h = np.multiply.outer(p[0], self.a1)
        np.add(self.h0, h, out=h)
        h += np.multiply.outer(p[1], self.a2)
        return h.astype(complex, copy=False)


# H0 = 3 Sz^2 + sqrt(2) Sx, dH/dq1 = 2 Sz, dH/dq2 = -i sqrt(2) Sy: integers.
_NV_TERMS = (np.array([[3, 1, 0], [1, 0, 1], [0, 1, 3]]), np.diag([2, 0, -2]),
             np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))

_FAMILIES = {"nv-dirac": HamiltonianFamily("nv-dirac", *_NV_TERMS)}


def nv_family():
    return _FAMILIES["nv-dirac"]


def get_family(name):
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FAMILIES)}"
        ) from None
