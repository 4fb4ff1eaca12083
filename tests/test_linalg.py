import warnings

import numpy as np
import pytest

from nhgeom import (
    DimensionMismatchError,
    NonFiniteError,
    NormalizationBreakdownError,
    NotDefectiveError,
    eigendecompose,
    jordan_chain,
    matrix_scale,
)
from nhgeom.linalg import (
    BREAKDOWN_TOL,
    BiorthogonalEigensystem,
    band_order,
    eigenpairs,
    eigenvalues,
)

from conftest import imaginary_detuning_family, sorted_complex

# What eigendecompose is checked to deliver on well-conditioned matrices:
# residuals relative to the Frobenius norm of the input, and the
# biorthogonality and completeness defects of the left/right pairs.
TOL_RESID = 1e-10
TOL_BIORTH = 1e-9
TOL_COMPLETE = 1e-8


def charpoly_coeffs(a):
    """Characteristic polynomial coefficients by Faddeev-LeVerrier.

    Independent of any eigensolver: uses only traces of powers, so it can
    serve as an oracle for eigendecompose.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


class TestEigendecompose:
    def test_diagonal(self):
        sys = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sys.energies, [3.0, 2.0, 1.0], atol=1e-14)
        # descending order puts basis vector e3 first
        perm = [2, 1, 0]
        for i, j in enumerate(perm):
            e = np.zeros(3)
            e[j] = 1.0
            assert np.allclose(np.abs(sys.rights[:, i]), e, atol=1e-14)
            assert np.allclose(np.abs(sys.lefts[i]), e, atol=1e-14)

    def test_hermitian_limit_energies(self, family):
        sys = eigendecompose(family.matrix((0.0, 0.0)))
        expected = [(3 + np.sqrt(17)) / 2, 3.0, (3 - np.sqrt(17)) / 2]
        assert np.allclose(sys.energies, expected, atol=1e-9)

    def test_broken_phase_conjugate_pair(self, family):
        sys = eigendecompose(family.matrix((0.0, 1.5)))
        expected = sorted_complex([3.0, 1.5 + 0.5j, 1.5 - 0.5j])
        assert np.allclose(sorted_complex(sys.energies), expected, atol=1e-9)

    def test_breakdown_at_dirac_ep(self, family):
        with pytest.raises(NormalizationBreakdownError):
            eigendecompose(family.matrix((0.0, 1.0)))

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            eigendecompose(a)

    def test_residuals_reported(self, family):
        h = family.matrix((0.4, 0.7))
        sys = eigendecompose(h)
        for i in range(3):
            r = np.linalg.norm(h @ sys.rights[:, i] - sys.energies[i] * sys.rights[:, i])
            assert r <= TOL_RESID * matrix_scale(h)
            assert sys.residuals()[i] <= TOL_RESID * matrix_scale(h)

    def test_residuals_keep_the_decomposed_matrix(self, family):
        h = family.matrix((0.4, 0.7))
        sys = eigendecompose(h)
        before = sys.residuals()
        h[0, 0] += 1.0
        assert np.array_equal(sys.residuals(), before)

    def test_matrix_is_keyword_only(self, family):
        sys = eigendecompose(family.matrix((0.4, 0.7)))
        fields = (sys.energies, sys.rights, sys.lefts, sys.residuals(), sys.condition_flags)
        with pytest.raises(TypeError):
            BiorthogonalEigensystem(*fields)

    def test_random_matrices_match_charpoly_roots(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sys = eigendecompose(a)
            roots = np.roots(charpoly_coeffs(a))
            got, want = sorted_complex(sys.energies), sorted_complex(roots)
            assert np.allclose(got, want, atol=1e-8 * max(np.abs(want)))

    def test_biorthogonality_and_completeness_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sys = eigendecompose(a)
            if any(sys.condition_flags):
                continue
            assert sys.biorthogonality_defect() <= TOL_BIORTH
            assert sys.completeness_defect() <= TOL_COMPLETE

    def test_hermitian_consistency(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            sys = eigendecompose(h)
            assert np.max(np.abs(sys.energies.imag)) <= 1e-10 * matrix_scale(h)
            for i in range(4):
                assert np.allclose(sys.lefts[i], sys.rights[:, i].conj(), atol=1e-9)

    def test_similarity_invariance(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        b = s @ a @ np.linalg.inv(s)
        wa = sorted_complex(eigendecompose(a).energies)
        wb = sorted_complex(eigendecompose(b).energies)
        assert np.allclose(wa, wb, atol=1e-7)


class TestStackedEigendecompose:
    def test_stack_equals_single_matrices_bitwise(self, family, rng):
        points = [(rng.uniform(-2, 2), rng.uniform(0, 2)) for _ in range(40)]
        stack = eigendecompose(np.array([family.matrix(p) for p in points]))
        assert not stack.breakdown.any()
        for k, p in enumerate(points):
            one = eigendecompose(family.matrix(p))
            for field in ("energies", "rights", "lefts", "condition_flags"):
                assert np.array_equal(getattr(stack, field)[k], getattr(one, field))
            assert np.array_equal(stack.residuals()[k], one.residuals())

    def test_breakdown_is_marked_not_raised(self, family):
        # The Dirac EP (0, 1), and a nilpotent Jordan block, for which eig
        # returns an exactly singular R (inv alone would raise for the
        # whole stack).  No RuntimeWarning may escape either.
        jordan3 = np.diag([1.0, 1.0], k=1)
        assert np.linalg.det(np.linalg.eig(jordan3)[1]) == 0
        matrices = [family.matrix((0.3, 0.5)), family.matrix((0.0, 1.0)),
                    jordan3, family.matrix((-0.4, 1.7))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = eigendecompose(np.array(matrices))
        assert stack.breakdown.tolist() == [False, True, True, False]
        for h, broke in zip(matrices, stack.breakdown):
            if broke:
                with pytest.raises(NormalizationBreakdownError) as err:
                    eigendecompose(h)
                assert np.min(err.value.overlaps) < BREAKDOWN_TOL * matrix_scale(h)
            else:
                eigendecompose(h)

    def test_lefts_are_the_inverse_of_the_rights(self, family):
        sys = eigendecompose(family.matrix((0.4, 0.7)))
        assert np.allclose(sys.lefts @ sys.rights, np.eye(3), atol=1e-13)
        assert np.allclose(np.linalg.norm(sys.rights, axis=0), 1.0, atol=1e-14)

    def test_single_matrix_rejects_higher_rank_input(self):
        with pytest.raises(DimensionMismatchError):
            eigendecompose(np.zeros((2, 2, 3, 3)))

    def test_rejects_dimension_above_max(self):
        with pytest.raises(DimensionMismatchError, match="dimension 17 outside 1..16"):
            eigendecompose(np.eye(17))


def bits(x):
    """The bytes of an array, so that == compares bit for bit."""
    return np.ascontiguousarray(x).tobytes()


class TestEigensolverDriver:
    def test_real_matrices_take_the_real_driver(self, family, rng):
        h = family.matrices(rng.uniform(-2, 2, 30), rng.uniform(0, 2, 30))
        assert h.dtype == complex and not h.imag.any()
        w, v = np.linalg.eig(h.real)
        got_w, got_v = eigenpairs(h)
        assert got_w.dtype == got_v.dtype == complex
        assert bits(got_w) == bits(w.astype(complex))
        assert bits(got_v) == bits(v.astype(complex))
        assert bits(eigenvalues(h)) == bits(np.linalg.eigvals(h.real).astype(complex))

    def test_complex_matrices_keep_the_complex_driver(self, rng):
        family = imaginary_detuning_family()
        h = family.matrices(rng.uniform(0.1, 1, 30), rng.uniform(0, 2, 30))
        assert h.imag.any(axis=(-2, -1)).all()
        w, v = np.linalg.eig(h)
        assert [bits(x) for x in eigenpairs(h)] == [bits(w), bits(v)]
        assert bits(eigenvalues(h)) == bits(np.linalg.eigvals(h))
        want = np.take_along_axis(w, band_order(w), axis=-1)
        assert bits(eigendecompose(h).energies) == bits(want)

    def test_mixed_stack_equals_each_matrix(self):
        # Real on q1 = 0 and complex off it: each matrix of the stack gets
        # the driver, and so the bits, it gets alone.
        family = imaginary_detuning_family()
        q1 = np.array([[0.0, 0.3, -0.0], [-0.4, 0.0, 0.2]])
        h = family.matrices(q1, np.full(q1.shape, 1.7))
        assert h.imag.any(axis=(-2, -1)).tolist() == [[False, True, False], [True, False, True]]
        w, v = eigenpairs(h)
        values = eigenvalues(h)
        assert w.shape == values.shape == (2, 3, 3) and v.shape == (2, 3, 3, 3)
        for k in np.ndindex(q1.shape):
            one_w, one_v = eigenpairs(h[k])
            assert bits(w[k]) == bits(one_w) and bits(v[k]) == bits(one_v)
            assert bits(values[k]) == bits(eigenvalues(h[k]))


# The kernel and the minimum-norm solves of A = H - E are taken from one
# SVD inside jordan_chain; these tests check them through its chain.
class TestSolveLinear:
    def test_singular_minimum_norm(self, family):
        # (H(0,1) - 3) chi = psi0 reduces to 2x1 - 3x2 = 0, 2x2 = 1; the
        # minimum-norm solution has no component along the kernel e3.
        chain = jordan_chain(family.matrix((0.0, 1.0)), 3.0)
        assert chain.residuals[1] <= 1e-12
        assert np.allclose(chain.chi, [0.75, 0.5, 0.0], atol=1e-12)
        assert abs(chain.psi0.conj() @ chain.chi) <= 1e-12

    def test_zero_matrix(self, family):
        # The solve divides by no zero singular value: neither for the zero
        # matrix (every singular value is 0) nor for the Dirac A, whose
        # smallest singular value is exactly 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotDefectiveError):
                jordan_chain(np.zeros((3, 3)), 0.0)
            a = family.matrix((0.0, 1.0)) - 3.0 * np.eye(3)
            assert np.linalg.svd(a, compute_uv=False)[-1] == 0.0
            chain = jordan_chain(family.matrix((0.0, 1.0)), 3.0)
        assert np.all(np.isfinite(chain.chi)) and np.all(np.isfinite(chain.eta))


class TestNullSpace:
    def test_dirac_kernel(self, family):
        chain = jordan_chain(family.matrix((0.0, 1.0)), 3.0)
        v = chain.psi0
        assert abs(abs(v[2]) - 1.0) <= 1e-12
        assert np.allclose(v[:2], 0.0, atol=1e-12)
        assert chain.residuals[0] <= 1e-12

    def test_zero_matrix(self):
        # The kernel of the zero matrix is all of C^3.
        with pytest.raises(NotDefectiveError, match="3-dimensional"):
            jordan_chain(np.zeros((3, 3)), 0.0)
