import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nhgeom import NonFiniteError, ParameterPoint, get_family, matrix_scale, nv_family
from nhgeom.model import circle_points

import exact
from conftest import imaginary_detuning_family, pt_dimer


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


def nv_hamiltonian_from_operators(p, detuning=2):
    """H(q1, q2) assembled directly from the spin-1 operators; `detuning`
    2i gives `imaginary_detuning_family`.

    An independent construction to cross-check the closed form.
    """
    q1, q2 = p
    s = build_spin1()
    return 3 * (s.sz @ s.sz) + detuning * q1 * s.sz + math.sqrt(2.0) * (s.sx - 1j * q2 * s.sy)


# Integer spin-1 matrices in the (+1, 0, -1) basis: Sz, sqrt(2) Sx and
# -i sqrt(2) Sy, and NV's H(0, 0), dH/dq1 and dH/dq2 from them.
SZ = np.diag([1, 0, -1])
SQRT2_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
MINUS_I_SQRT2_SY = np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]])
NV_TERMS = (3 * SZ @ SZ + SQRT2_SX, 2 * SZ, MINUS_I_SQRT2_SY)

AFFINE_FAMILIES = [
    pytest.param(f, id=f.name) for f in (nv_family(), imaginary_detuning_family(), pt_dimer())
]

# An independent construction of each affine family's matrix: the dimer is
# q1 sigma_x + i q2 sigma_z.
OPERATOR_FORMS = {
    "nv-dirac": nv_hamiltonian_from_operators,
    "imaginary-detuning": lambda p: nv_hamiltonian_from_operators(p, detuning=2j),
    "pt-dimer": lambda p: p[0] * np.array([[0, 1], [1, 0]]) + 1j * p[1] * np.diag([1, -1]),
}


def terms(family):
    """H(0, 0), dH/dq1 and dH/dq2 of an affine family, read back from it."""
    return (family.matrix((0.0, 0.0)),) + family.gradient(ParameterPoint(0.0, 0.0))


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
    def test_hermitian_limit(self, family):
        h = family.matrix((0.0, 0.0))
        assert np.allclose(h, [[3, 1, 0], [1, 0, 1], [0, 1, 3]], atol=1e-15)
        assert np.allclose(h, h.conj().T, atol=1e-15)

    def test_triangular_point(self, family):
        h = family.matrix((0.0, 1.0))
        assert np.allclose(h, [[3, 0, 0], [2, 0, 0], [0, 2, 3]], atol=1e-15)

    def test_hermitian_iff_q2_zero(self, family):
        h = family.matrix((0.7, 0.0))
        assert np.linalg.norm(h - h.conj().T) == 0.0
        h = family.matrix((0.7, 1e-6))
        assert np.linalg.norm(h - h.conj().T) > 0.0

    def test_closed_form_matches_operator_expression(self, family, rng):
        for _ in range(100):
            p = tuple(rng.uniform(-3.0, 3.0, size=2))
            assert np.allclose(
                family.matrix(p), nv_hamiltonian_from_operators(p), atol=1e-14
            )

    def test_affine_in_parameters(self, family, rng):
        p = rng.uniform(-2.0, 2.0, size=2)
        q = rng.uniform(-2.0, 2.0, size=2)
        lhs = family.matrix(p) + family.matrix(q) - family.matrix((0.0, 0.0))
        assert np.allclose(lhs, family.matrix(p + q), atol=1e-14)

    def test_nonfinite_rejected(self, family):
        with pytest.raises(NonFiniteError):
            family.matrix((np.nan, 0.0))


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
    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stack_is_pointwise_and_matches_operators(self, family, data):
        q1, q2 = coordinate_stacks(data)
        stack = family.matrices(q1, q2)
        n = family.dimension
        assert stack.shape == q1.shape + (n, n)
        # Sums over each matrix of the stack add in the one-matrix order.
        scales = matrix_scale(stack)
        for k in np.ndindex(q1.shape):
            one = family.matrix((q1[k], q2[k]))
            assert stack[k].tobytes() == one.tobytes()
            assert scales[k] == matrix_scale(one)
            ref = OPERATOR_FORMS[family.name]((float(q1[k]), float(q2[k])))
            scale = max(1.0, abs(q1[k]), abs(q2[k]))
            assert np.max(np.abs(one - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_zero_entries_are_positive_zeros(self, family):
        # 0.0 * q1 is -0.0 for negative q1; the structural zeros, the real
        # or imaginary parts where all three terms vanish, must not be.
        zeros = ~np.stack([np.stack([t.real, t.imag]) for t in terms(family)]).any(axis=0)
        q1 = np.array([-1.5, -0.0, -5e-324, 2.0])
        q2 = np.array([-0.0, 1.0, -3.0, -1e8])
        for h in [family.matrices(q1, q2)] + [
            family.matrix(p)[None] for p in zip(q1.tolist(), q2.tolist())
        ]:
            parts = np.stack([h.real, h.imag], axis=1)[:, zeros]
            assert zeros.any() and not np.any(parts) and not np.any(np.signbit(parts))

    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_matrix_is_the_exact_sum_of_its_terms(self, family, rng):
        # At dyadic points every product and sum is exact in floats.
        def fractions(m):
            return [[Fraction(x) for x in row] for row in m.tolist()]

        parts = [(part, [fractions(part(t)) for t in terms(family)]) for part in (np.real, np.imag)]
        points = rng.integers(-2 ** 20, 2 ** 20, (50, 2)) / 2.0 ** rng.integers(0, 30, (50, 2))
        for q1, q2 in points.tolist():
            h = family.matrix((q1, q2))
            for part, exact_terms in parts:
                assert fractions(part(h)) == exact.affine(*exact_terms, Fraction(q1), Fraction(q2))

    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_gradient_is_read_only(self, family):
        for p in (ParameterPoint(0.3, -0.7), ParameterPoint(np.zeros((2, 3)), np.ones((2, 3)))):
            for d in family.gradient(p):
                with pytest.raises(ValueError, match="read-only"):
                    d[..., 0, 0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from([0, 1]))
    def test_nonfinite_entry_anywhere_raises(self, family, data, bad, which):
        q = list(coordinate_stacks(data))
        k = data.draw(st.sampled_from(list(np.ndindex(q[0].shape))))
        q[which][k] = bad
        with pytest.raises(NonFiniteError):
            family.matrices(*q)
        with pytest.raises(NonFiniteError):
            family.matrix((q[0][k], q[1][k]))

    def test_shape_mismatch_rejected(self, family):
        with pytest.raises(ValueError):
            family.matrices(np.zeros(3), np.zeros(4))

    def test_gradient_broadcasts(self, family):
        q1, q2 = np.zeros((2, 3)), np.ones((2, 3))
        d1, d2 = family.gradient(ParameterPoint(q1, q2))
        one = family.gradient(ParameterPoint(0.0, 1.0))
        assert d1.shape == d2.shape == (2, 3, 3, 3)
        assert np.array_equal(d1, np.broadcast_to(one[0], d1.shape))
        assert np.array_equal(d2, np.broadcast_to(one[1], d2.shape))


class TestGradient:
    def test_dq1(self, family):
        dq1, _ = family.gradient(ParameterPoint(0.3, 0.7))
        assert np.allclose(dq1, np.diag([2.0, 0.0, -2.0]), atol=1e-15)

    def test_dq2(self, family):
        _, dq2 = family.gradient(ParameterPoint(0.3, 0.7))
        assert np.allclose(dq2, [[0, -1, 0], [1, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_finite_difference(self, family):
        # H is affine in (q1, q2): central differences are exact to round-off
        eps = 1e-4
        p = np.array([0.3, 0.7])
        dq1, dq2 = family.gradient(ParameterPoint(*p))
        for d, e in ((dq1, np.array([1.0, 0.0])), (dq2, np.array([0.0, 1.0]))):
            fd = (family.matrix(p + eps * e) - family.matrix(p - eps * e)) / (2 * eps)
            assert np.max(np.abs(fd - d)) <= 1e-7


class TestExactTerms:
    """NV's three matrices against the integer spin-1 matrices above."""

    def test_integer_spin_matrices(self):
        s = build_spin1()
        assert np.array_equal(SZ, s.sz)
        assert np.allclose(SQRT2_SX, math.sqrt(2.0) * s.sx, atol=1e-15)
        assert np.allclose(MINUS_I_SQRT2_SY, -1j * math.sqrt(2.0) * s.sy, atol=1e-15)

    def test_family_terms_are_exact(self, family):
        for got, want in zip(terms(family), NV_TERMS):
            assert got.dtype == complex and np.array_equal(got, want)

    def test_faddeev_leverrier_gives_the_cubic(self, rng):
        # At rational points, the characteristic polynomial of the spin
        # matrices' sum is the hand-typed (b, c, d) of `exact.coefficients`.
        h0, a1, a2 = (t.tolist() for t in NV_TERMS)
        nums, dens = rng.integers(-60, 60, (40, 2)).tolist(), rng.integers(1, 40, (40, 2)).tolist()
        for (n1, n2), (d1, d2) in zip(nums, dens):
            q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
            h = exact.affine(h0, a1, a2, q1, q2)
            assert exact.characteristic_polynomial(h) == exact.coefficients(q1, q2)


class TestCirclePoints:
    def test_angles_fastest_in_float_arithmetic(self):
        center, radii = (0.1, -0.7), [1e-2, 0.3, 2.5]
        angles = [0.0, 1.0, math.pi / 3, -2.0, 7.5, 2 * math.pi * 5 / 13]
        q1, q2 = circle_points(center, radii, angles)
        assert q1.shape == q2.shape == (len(radii) * len(angles),)
        for k, (r, phi) in enumerate(itertools.product(radii, angles)):
            assert q1[k] == center[0] + r * math.cos(phi)
            assert q2[k] == center[1] + r * math.sin(phi)


def test_registry():
    fam = get_family("nv-dirac")
    assert fam.dimension == 3
    with pytest.raises(KeyError):
        get_family("no-such-model")
