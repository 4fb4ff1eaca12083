"""Parametrized Hamiltonian families and the built-in NV-center model.

The NV model is a spin-1 qutrit with a non-reciprocal coupling:

    H(q1, q2) = 3 Sz^2 + 2 q1 Sz + sqrt(2) (Sx - i q2 Sy)

in the standard Sz eigenbasis ordered (+1, 0, -1).  q1 plays the role of
an effective momentum (detuning) and q2 the degree of non-reciprocity;
the model is Hermitian exactly on the q2 = 0 line.  H is affine in
(q1, q2), so the family is its three matrices (`HamiltonianFamily.affine`).
Downstream modules only ever see the generic `HamiltonianFamily`
interface, so other two-parameter models can reuse the whole toolchain.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError, NonFiniteError


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


@dataclass(frozen=True)
class HamiltonianFamily:
    """A two-parameter matrix family with analytic parameter derivatives.

    `builder(p)` returns H(p); `gradient(p)` returns the pair
    (dH/dq1, dH/dq2) evaluated at p.  Both broadcast: `p` holds two floats
    or two equal-shape float arrays, and the matrices come back with that
    shape in front, as (..., n, n).  `p` arrives checked finite.  An affine
    family is made from its three matrices with `affine`.
    """

    name: str
    dimension: int
    builder: Callable[[ParameterPoint], np.ndarray]
    gradient: Callable[[ParameterPoint], tuple]

    @classmethod
    def affine(cls, name, h0, a1, a2):
        """The family H0 + q1 A1 + q2 A2 of three constant n x n matrices.

        H is summed in that order in the matrices' common dtype (at least
        float) and then made complex, so an entry that all three terms leave
        zero is +0.0 at every point.  The gradient is the constant pair
        (A1, A2), as read-only views of one complex matrix each.
        """
        h0, a1, a2 = np.array([h0, a1, a2]) + 0.0  # at least float, and no -0.0
        d1, d2 = a1.astype(complex), a2.astype(complex)

        def builder(p):  # in place, which halves a large stack's temporaries
            h = np.multiply.outer(p[0], a1)
            np.add(h0, h, out=h)
            h += np.multiply.outer(p[1], a2)
            return h.astype(complex, copy=False)

        def gradient(p):
            shape = np.shape(p[0]) + d1.shape
            return np.broadcast_to(d1, shape), np.broadcast_to(d2, shape)

        return cls(name, len(h0), builder, gradient)

    def matrix(self, p):
        return self.builder(as_point(p))

    def matrices(self, q1, q2):
        """H at each point (q1[k], q2[k]) of equal-shape finite arrays: (..., n, n)."""
        return self.builder(as_points((q1, q2)))


# H0 = 3 Sz^2 + sqrt(2) Sx, dH/dq1 = 2 Sz, dH/dq2 = -i sqrt(2) Sy: integers.
_NV_TERMS = (np.array([[3, 1, 0], [1, 0, 1], [0, 1, 3]]), np.diag([2, 0, -2]),
             np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))

_FAMILIES = {"nv-dirac": HamiltonianFamily.affine("nv-dirac", *_NV_TERMS)}


def nv_family():
    return _FAMILIES["nv-dirac"]


def get_family(name):
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FAMILIES)}"
        ) from None
