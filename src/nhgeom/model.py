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
    q1: float
    q2: float


def as_point(p):
    pt = ParameterPoint(float(p[0]), float(p[1]))
    if not (math.isfinite(pt.q1) and math.isfinite(pt.q2)):
        raise NonFiniteError(f"non-finite parameter point {pt}")
    return pt


@dataclass(frozen=True)
class HamiltonianFamily:
    """A two-parameter matrix family with analytic parameter derivatives.

    `builder(p)` returns H(p); `gradient(p)` returns the pair
    (dH/dq1, dH/dq2) evaluated at p.
    """

    name: str
    dimension: int
    builder: Callable[[ParameterPoint], np.ndarray]
    gradient: Callable[[ParameterPoint], tuple]

    def matrix(self, p):
        return self.builder(as_point(p))

    def directional_derivative(self, p, phi):
        """Unit-step derivative cos(phi) dH/dq1 + sin(phi) dH/dq2 at p."""
        d1, d2 = self.gradient(as_point(p))
        return math.cos(phi) * d1 + math.sin(phi) * d2


def nv_hamiltonian(p):
    """H(q1, q2) of the NV model; closed form of the spin-operator expression."""
    q1, q2 = as_point(p)
    return np.array(
        [
            [3 + 2 * q1, 1 - q2, 0],
            [1 + q2, 0, 1 - q2],
            [0, 1 + q2, 3 - 2 * q1],
        ],
        dtype=complex,
    )


# dH/dq1 = 2 Sz, dH/dq2 = -i sqrt(2) Sy; both constant in (q1, q2).
_NV_DQ1 = np.diag([2.0, 0.0, -2.0]).astype(complex)
_NV_DQ2 = np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)


def nv_gradient(p):
    as_point(p)
    return _NV_DQ1.copy(), _NV_DQ2.copy()


def nv_family():
    return HamiltonianFamily(
        name="nv-dirac",
        dimension=3,
        builder=nv_hamiltonian,
        gradient=nv_gradient,
    )


_FAMILIES = {"nv-dirac": nv_family}


def get_family(name):
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FAMILIES)}"
        ) from None
