import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeom import (
    EPKind,
    EPNotFoundError,
    LostTrackError,
    Phase,
    classify_phase,
    discriminant,
    find_ep_on_segment,
    trace_exceptional_line,
)
from nhgeom.spectral import closest_pair, min_gap

from conftest import nv_axis_energies, sorted_complex

Q2_STAR = np.sqrt(17.0 / 8.0)


class TestClassifyPhase:
    def test_unbroken(self, family):
        label = classify_phase(family, (0.0, 0.5))
        assert label.label is Phase.UNBROKEN
        assert label.max_imag <= 1e-10

    def test_broken(self, family):
        label = classify_phase(family, (0.0, 1.5))
        assert label.label is Phase.BROKEN
        assert label.max_imag == pytest.approx(0.5, abs=1e-10)

    def test_near_ep(self, family):
        label = classify_phase(family, (0.0, 1.0))
        assert label.label is Phase.NEAR_EP
        assert label.min_gap <= 1e-12


class TestDiscriminant:
    def test_zero_at_dirac_ep(self, family):
        assert abs(discriminant(family, (0.0, 1.0))) <= 1e-10

    def test_zero_at_conventional_ep(self, family):
        assert abs(discriminant(family, (0.0, Q2_STAR))) <= 1e-10

    def test_nonzero_generic(self, family):
        assert abs(discriminant(family, (0.0, 0.0))) > 1.0

    def test_matches_root_products(self, family, rng):
        # disc = prod_{i<j} (E_i - E_j)^2 for a monic cubic
        for _ in range(20):
            p = (rng.uniform(-2, 2), rng.uniform(0, 2))
            w = np.linalg.eigvals(family.matrix(p))
            prod = ((w[0] - w[1]) * (w[0] - w[2]) * (w[1] - w[2])) ** 2
            assert discriminant(family, p) == pytest.approx(prod, rel=1e-7, abs=1e-9)


class TestFindEP:
    def test_dirac_ep(self, family):
        ep = find_ep_on_segment(family, (0.0, 0.5), (0.0, 1.3))
        assert abs(ep.point.q1) <= 1e-8
        assert abs(ep.point.q2 - 1.0) <= 1e-7
        assert abs(ep.coalesced_energy - 3.0) <= 1e-8
        assert ep.kind is EPKind.DIRAC

    def test_conventional_ep(self, family):
        ep = find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))
        assert abs(ep.point.q2 - Q2_STAR) <= 1e-8
        assert abs(ep.coalesced_energy - 1.5) <= 1e-6
        assert ep.kind is EPKind.CONVENTIONAL

    def test_not_found(self, family):
        with pytest.raises(EPNotFoundError):
            find_ep_on_segment(family, (0.0, 0.1), (0.0, 0.5))

    def test_defect_measure_small(self, family):
        ep = find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))
        assert ep.defect_measure <= 1e-6

    def test_random_bracketing_segments(self, family, rng):
        # locator accuracy: re-find the Dirac EP from scrambled segments
        for _ in range(20):
            lo = rng.uniform(0.55, 0.95)
            hi = rng.uniform(1.05, 1.35)
            ep = find_ep_on_segment(family, (0.0, lo), (0.0, hi), classify=False)
            assert abs(ep.point.q2 - 1.0) <= 1e-7


class TestGridEquivalence:
    def test_discriminant_gap_equivalence(self, family):
        # |disc| < 1e-8 iff min_gap < 1e-4, on-grid and at the known EPs
        q1s = np.linspace(-2.0, 2.0, 200)
        q2s = np.linspace(0.0, 2.0, 200)
        mismatches = 0
        for q2 in q2s:
            for q1 in q1s:
                small_disc = abs(discriminant(family, (q1, q2))) < 1e-8
                small_gap = min_gap(family, (q1, q2)) < 1e-4
                mismatches += small_disc != small_gap
        assert mismatches == 0
        for p in ((0.0, 1.0), (0.0, Q2_STAR)):
            assert abs(discriminant(family, p)) < 1e-8
            assert min_gap(family, p) < 1e-4


class TestProperties:
    def test_unbroken_reality(self, family, rng):
        checked = 0
        while checked < 100:
            p = (rng.uniform(-2, 2), rng.uniform(0, 2))
            label = classify_phase(family, p)
            if label.label is not Phase.UNBROKEN:
                continue
            w = np.linalg.eigvals(family.matrix(p))
            assert np.max(np.abs(w.imag)) <= 1e-8 * max(np.linalg.norm(family.matrix(p)), 1)
            checked += 1

    def test_conjugate_pairing_broken(self, family, rng):
        checked = 0
        while checked < 50:
            p = (rng.uniform(-2, 2), rng.uniform(0, 2))
            if classify_phase(family, p).label is not Phase.BROKEN:
                continue
            w = np.linalg.eigvals(family.matrix(p))
            assert np.allclose(sorted_complex(w), sorted_complex(w.conj()), atol=1e-9)
            checked += 1

    def test_axis_spectrum_oracle(self, family):
        for q2 in np.linspace(0.0, 2.0, 41):
            w = np.linalg.eigvals(family.matrix((0.0, q2)))
            want = nv_axis_energies(q2)
            assert np.allclose(sorted_complex(w), sorted_complex(want), atol=1e-9)


@pytest.fixture(scope="module")
def seed(family):
    return find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))


class TestTraceLine:
    def test_single_point(self, family, seed):
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=1)
        assert len(pts) == 1
        assert pts[0].point == seed.point

    def test_points_lie_on_exceptional_set(self, family, seed):
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=10)
        assert len(pts) > 3
        for ep in pts:
            assert min_gap(family, ep.point) <= 1e-4

    def test_q1_mirror_symmetry(self, family, seed):
        # spectrum is invariant under q1 -> -q1; check on traced points
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=8)
        for ep in pts:
            w = np.linalg.eigvals(family.matrix(ep.point))
            wm = np.linalg.eigvals(family.matrix((-ep.point.q1, ep.point.q2)))
            assert np.allclose(sorted_complex(w), sorted_complex(wm), atol=1e-9)

    def test_opposite_step_mirror(self, family, seed):
        fwd = trace_exceptional_line(family, seed, step=0.05, max_points=6)
        bwd = trace_exceptional_line(family, seed, step=-0.05, max_points=6)
        assert len(fwd) == len(bwd)
        for f, b in zip(fwd, bwd):
            assert f.point.q1 == pytest.approx(-b.point.q1, abs=1e-6)
            assert f.point.q2 == pytest.approx(b.point.q2, abs=1e-6)


# Reference pair choices, as the library wrote them before closest_pair
# replaced them: min_gap's loop, find_ep_on_segment's nearest-neighbour
# ranking and the jordan command's closest pair.
def reference_min_gap(w):
    n = len(w)
    return min(abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n))


def reference_nearest_neighbours(w):
    """(sorted pair, mean energy) of the two smallest nearest-neighbour gaps."""
    order = np.argsort(
        [min(abs(w[k] - w[m]) for m in range(len(w)) if m != k) for k in range(len(w))]
    )
    return sorted(int(k) for k in order[:2]), complex(w[order[:2]].mean())


def reference_jordan_pair(w):
    pairs = [
        (abs(w[i] - w[j]), (i, j)) for i in range(len(w)) for j in range(i + 1, len(w))
    ]
    return min(pairs, key=lambda t: t[0])[1]


def bits(x):
    return float(x).hex()


# Small Gaussian integers give many exact ties; wider floats give generic spectra.
components = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
complex_triples = st.lists(
    st.builds(complex, components, components), min_size=3, max_size=3
).map(lambda zs: np.array(zs, dtype=complex))


class TestClosestPair:
    def check_against_references(self, w):
        gap, i, j = closest_pair(w)
        assert bits(gap) == bits(reference_min_gap(w))
        assert (i, j) == reference_jordan_pair(w)
        energy = complex((w[i] + w[j]) / 2)
        nn_pair, nn_energy = reference_nearest_neighbours(w)
        if bits(abs(w[nn_pair[0]] - w[nn_pair[1]])) == bits(gap):
            assert nn_pair == [i, j]
            assert (bits(nn_energy.real), bits(nn_energy.imag)) == (
                bits(energy.real), bits(energy.imag))
        else:
            # The ranking's one miss: w[2] equidistant from w[0] and w[1] and
            # nearer to both than they are to each other.
            assert nn_pair == [0, 1] and (i, j) == (0, 2)
            assert bits(abs(w[0] - w[2])) == bits(abs(w[1] - w[2])) == bits(gap)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0))
    def test_nv_spectra(self, family, q1, q2):
        self.check_against_references(np.linalg.eigvals(family.matrix((q1, q2))))

    @settings(max_examples=300, deadline=None)
    @given(complex_triples)
    def test_random_triples_with_ties(self, w):
        self.check_against_references(w)

    def test_exact_ties_pick_the_first_pair(self):
        assert closest_pair(np.array([0j, 1 + 0j, 2 + 0j])) == (1.0, 0, 1)
        assert closest_pair(np.array([1j, 1j, 1j])) == (0.0, 0, 1)
        # The nearest-neighbour ranking took (0, 1) here, a pair 2 apart.
        w = np.array([1 + 0j, -1 + 0j, 0j])
        assert closest_pair(w) == (1.0, 0, 2)
        assert reference_nearest_neighbours(w)[0] == [0, 1]

    def test_min_gap_is_the_closest_pair_gap(self, family):
        w = np.linalg.eigvals(family.matrix((0.3, 1.2)))
        assert bits(min_gap(family, (0.3, 1.2))) == bits(closest_pair(w)[0])
