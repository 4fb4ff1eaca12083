"""Parametrized Hamiltonian families and the built-in NV-center model.

The NV model is a spin-1 qutrit with a non-reciprocal coupling:

    H(q1, q2) = 3 Sz^2 + 2 q1 Sz + sqrt(2) (Sx - i q2 Sy)

in the standard Sz eigenbasis ordered (+1, 0, -1).  q1 plays the role of
an effective momentum (detuning) and q2 the degree of non-reciprocity;
the model is Hermitian exactly on the q2 = 0 line.  Downstream modules
only ever see the generic `HamiltonianFamily` interface, so other
two-parameter models can reuse the whole toolchain.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonFiniteError


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
        raise ValueError(f"q1 and q2 differ in shape: {q1.shape} != {q2.shape}")
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise NonFiniteError(f"non-finite entry in a stack of {q1.size} parameter points")
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
    shape in front, as (..., n, n).  `p` arrives checked finite.
    """

    name: str
    dimension: int
    builder: Callable[[ParameterPoint], np.ndarray]
    gradient: Callable[[ParameterPoint], tuple]

    def matrix(self, p):
        return self.builder(as_point(p))

    def matrices(self, q1, q2):
        """H at each point (q1[k], q2[k]) of equal-shape finite arrays: (..., n, n)."""
        return self.builder(as_points((q1, q2)))


def _nv_matrix(p):
    # Filling a zeroed C-order array gives one matrix and each matrix of a
    # stack the same bytes, with +0.0 in the structural zeros.
    q1, q2 = p
    h = np.zeros(np.shape(q1) + (3, 3), dtype=complex)
    h[..., 0, 0], h[..., 2, 2] = 3 + 2 * q1, 3 - 2 * q1
    h[..., 0, 1] = h[..., 1, 2] = 1 - q2
    h[..., 1, 0] = h[..., 2, 1] = 1 + q2
    return h


def nv_hamiltonian(p):
    """H(q1, q2) of the NV model, at one point or a stack; closed form of the
    spin-operator expression."""
    return _nv_matrix(as_points(p))


# dH/dq1 = 2 Sz, dH/dq2 = -i sqrt(2) Sy; both constant in (q1, q2).
_NV_DQ1 = np.diag([2.0, 0.0, -2.0]).astype(complex)
_NV_DQ2 = np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)


def _nv_gradient(p):
    shape = getattr(p[0], "shape", ()) + _NV_DQ1.shape
    return np.full(shape, _NV_DQ1), np.full(shape, _NV_DQ2)


def nv_gradient(p):
    return _nv_gradient(as_points(p))


def nv_family():
    return HamiltonianFamily("nv-dirac", 3, builder=_nv_matrix, gradient=_nv_gradient)


_FAMILIES = {"nv-dirac": nv_family}


def get_family(name):
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FAMILIES)}"
        ) from None
