import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nhgeom import NonFiniteError, get_family, matrix_scale, nv_gradient, nv_hamiltonian


@dataclass(frozen=True)
class SpinOperators:
    """Spin-1 matrices Sx, Sy, Sz in the (+1, 0, -1) basis, hbar = 1."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def build_spin1():
    isq2 = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, isq2, 0], [isq2, 0, isq2], [0, isq2, 0]], dtype=complex)
    sy = np.array(
        [[0, -1j * isq2, 0], [1j * isq2, 0, -1j * isq2], [0, 1j * isq2, 0]],
        dtype=complex,
    )
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinOperators(sx=sx, sy=sy, sz=sz)


def nv_hamiltonian_from_operators(p):
    """H(q1, q2) assembled directly from the spin-1 operators.

    An independent construction to cross-check the closed form.
    """
    q1, q2 = p
    s = build_spin1()
    return 3 * (s.sz @ s.sz) + 2 * q1 * s.sz + math.sqrt(2.0) * (s.sx - 1j * q2 * s.sy)


class TestSpinOperators:
    def test_sz_eigenvalues(self):
        ops = build_spin1()
        assert np.allclose(np.sort(np.linalg.eigvalsh(ops.sz)), [-1.0, 0.0, 1.0])

    def test_commutator(self):
        ops = build_spin1()
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx
        assert np.allclose(comm, 1j * ops.sz, atol=1e-15)

    def test_casimir(self):
        ops = build_spin1()
        total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.allclose(total, 2.0 * np.eye(3), atol=1e-15)

    def test_hermitian(self):
        ops = build_spin1()
        for s in (ops.sx, ops.sy, ops.sz):
            assert np.allclose(s, s.conj().T, atol=1e-15)


class TestHamiltonian:
    def test_hermitian_limit(self):
        h = nv_hamiltonian((0.0, 0.0))
        assert np.allclose(h, [[3, 1, 0], [1, 0, 1], [0, 1, 3]], atol=1e-15)
        assert np.allclose(h, h.conj().T, atol=1e-15)

    def test_triangular_point(self):
        h = nv_hamiltonian((0.0, 1.0))
        assert np.allclose(h, [[3, 0, 0], [2, 0, 0], [0, 2, 3]], atol=1e-15)

    def test_hermitian_iff_q2_zero(self):
        h = nv_hamiltonian((0.7, 0.0))
        assert np.linalg.norm(h - h.conj().T) == 0.0
        h = nv_hamiltonian((0.7, 1e-6))
        assert np.linalg.norm(h - h.conj().T) > 0.0

    def test_closed_form_matches_operator_expression(self, rng):
        for _ in range(100):
            p = tuple(rng.uniform(-3.0, 3.0, size=2))
            assert np.allclose(
                nv_hamiltonian(p), nv_hamiltonian_from_operators(p), atol=1e-14
            )

    def test_affine_in_parameters(self, rng):
        p = rng.uniform(-2.0, 2.0, size=2)
        q = rng.uniform(-2.0, 2.0, size=2)
        lhs = nv_hamiltonian(p) + nv_hamiltonian(q) - nv_hamiltonian((0.0, 0.0))
        assert np.allclose(lhs, nv_hamiltonian(p + q), atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            nv_hamiltonian((np.nan, 0.0))


# Coordinates with signed zeros, subnormals and magnitudes up to 1e8.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(-1e8, 1e8, allow_nan=False),
)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5)


def coordinate_stacks(data):
    shape = data.draw(SHAPES)
    return tuple(data.draw(hnp.arrays(np.float64, shape, elements=COORDS)) for _ in "12")


class TestStackedBuilder:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stack_is_pointwise_and_matches_operators(self, family, data):
        q1, q2 = coordinate_stacks(data)
        stack = family.matrices(q1, q2)
        assert stack.shape == q1.shape + (3, 3)
        assert nv_hamiltonian((q1, q2)).tobytes() == stack.tobytes()
        # Sums over each matrix of the stack add in the one-matrix order.
        scales = matrix_scale(stack)
        for k in np.ndindex(q1.shape):
            one = family.matrix((q1[k], q2[k]))
            assert stack[k].tobytes() == one.tobytes()
            assert scales[k] == matrix_scale(one)
            ref = nv_hamiltonian_from_operators((float(q1[k]), float(q2[k])))
            scale = max(1.0, abs(q1[k]), abs(q2[k]))
            assert np.max(np.abs(one - ref)) <= 1e-14 * scale

    def test_zero_entries_are_positive_zeros(self, family):
        # 0.0 * q1 is -0.0 for negative q1; the structural zeros must not be.
        q1 = np.array([-1.5, -0.0, -5e-324, 2.0])
        q2 = np.array([-0.0, 1.0, -3.0, -1e8])
        zeros = ([0, 1, 2], [2, 1, 0])
        for h in [family.matrices(q1, q2)] + [
            family.matrix(p)[None] for p in zip(q1.tolist(), q2.tolist())
        ]:
            parts = np.stack([h.real, h.imag])[..., zeros[0], zeros[1]]
            assert not np.any(parts) and not np.any(np.signbit(parts))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from([0, 1]))
    def test_nonfinite_entry_anywhere_raises(self, family, data, bad, which):
        q = list(coordinate_stacks(data))
        k = data.draw(st.sampled_from(list(np.ndindex(q[0].shape))))
        q[which][k] = bad
        with pytest.raises(NonFiniteError):
            nv_hamiltonian(tuple(q))
        with pytest.raises(NonFiniteError):
            family.matrices(*q)
        with pytest.raises(NonFiniteError):
            family.matrix((q[0][k], q[1][k]))

    def test_shape_mismatch_rejected(self, family):
        with pytest.raises(ValueError):
            family.matrices(np.zeros(3), np.zeros(4))

    def test_gradient_broadcasts(self, family):
        q1, q2 = np.zeros((2, 3)), np.ones((2, 3))
        d1, d2 = nv_gradient((q1, q2))
        one = nv_gradient((0.0, 1.0))
        assert d1.shape == d2.shape == (2, 3, 3, 3)
        assert np.array_equal(d1, np.broadcast_to(one[0], d1.shape))
        assert np.array_equal(d2, np.broadcast_to(one[1], d2.shape))


class TestGradient:
    def test_dq1(self):
        dq1, _ = nv_gradient((0.3, 0.7))
        assert np.allclose(dq1, np.diag([2.0, 0.0, -2.0]), atol=1e-15)

    def test_dq2(self):
        _, dq2 = nv_gradient((0.3, 0.7))
        assert np.allclose(dq2, [[0, -1, 0], [1, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_finite_difference(self, family):
        # H is affine in (q1, q2): central differences are exact to round-off
        eps = 1e-4
        p = np.array([0.3, 0.7])
        dq1, dq2 = nv_gradient(p)
        for d, e in ((dq1, np.array([1.0, 0.0])), (dq2, np.array([0.0, 1.0]))):
            fd = (family.matrix(p + eps * e) - family.matrix(p - eps * e)) / (2 * eps)
            assert np.max(np.abs(fd - d)) <= 1e-7


class TestDirectionalDerivative:
    def test_axes(self, family):
        p = (0.1, 0.2)
        dq1, dq2 = nv_gradient(p)
        assert np.allclose(family.directional_derivative(p, 0.0), dq1, atol=1e-15)
        assert np.allclose(family.directional_derivative(p, np.pi / 2), dq2, atol=1e-12)

    def test_diagonal_direction(self, family):
        p = (0.1, 0.2)
        dq1, dq2 = nv_gradient(p)
        got = family.directional_derivative(p, np.pi / 4)
        assert np.allclose(got, (dq1 + dq2) / np.sqrt(2), atol=1e-12)


def test_registry():
    fam = get_family("nv-dirac")
    assert fam.dimension == 3
    with pytest.raises(KeyError):
        get_family("no-such-model")
