import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeom import (
    EPKind,
    EPNotFoundError,
    HamiltonianFamily,
    Phase,
    classify_ep,
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
        assert ep.kind is EPKind.UNCLASSIFIED
        assert classify_ep(family, ep) is EPKind.DIRAC

    def test_conventional_ep(self, family):
        ep = find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))
        assert abs(ep.point.q2 - Q2_STAR) <= 1e-8
        assert abs(ep.coalesced_energy - 1.5) <= 1e-6
        assert classify_ep(family, ep) is EPKind.CONVENTIONAL

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
            ep = find_ep_on_segment(family, (0.0, lo), (0.0, hi))
            assert abs(ep.point.q2 - 1.0) <= 1e-7

    @pytest.mark.parametrize("a, b, want", [
        ((0.0, 1.0), (0.0, 1.3), (0.0, 1.0)),
        ((0.0, 0.5), (0.0, 1.0), (0.0, 1.0)),
        ((0.2, 0.8), (0.0, 1.0), (0.0, 1.0)),
        ((0.0, Q2_STAR), (0.0, 1.7), (0.0, Q2_STAR)),
        ((0.0, 1.2), (0.0, Q2_STAR), (0.0, Q2_STAR)),
    ])
    def test_segment_ending_on_an_ep(self, family, a, b, want):
        ep = find_ep_on_segment(family, a, b)
        assert math.hypot(ep.point.q1 - want[0], ep.point.q2 - want[1]) <= 1e-12

    def test_non_3x3_family_raises(self):
        dimer = HamiltonianFamily(
            name="pt-dimer",
            dimension=2,
            builder=lambda p: np.array([[1j * p.q2, p.q1], [p.q1, -1j * p.q2]]),
            gradient=lambda p: (np.array([[0, 1], [1, 0]]), np.diag([1j, -1j])),
        )
        with pytest.raises(ValueError):
            find_ep_on_segment(dimer, (1.0, 0.5), (1.0, 1.5))


# 50-digit references built from the closed-form characteristic polynomial
# x^3 + b x^2 + c x + d of the NV family, without nhgeom.
def reference_discriminant(q1, q2):
    b = -6
    c = 7 - 4 * q1 ** 2 + 2 * q2 ** 2
    d = 6 * (1 - q2 ** 2)
    return 18 * b * c * d - 4 * b ** 3 * d + (b * c) ** 2 - 4 * c ** 3 - 27 * d ** 2


def reference_line_q2(q1):
    """q2 of the exceptional line at q1, |q1| <= 0.9, to 50 digits.

    The discriminant is positive (PT unbroken) at q2 = 1.05 and negative
    (broken) at q2 = 2 for these q1; bisection finds its sign change.
    """
    with mpmath.workdps(50):
        q1 = mpmath.mpf(q1)
        lo, hi = mpmath.mpf("1.05"), mpmath.mpf(2)
        assert reference_discriminant(q1, lo) > 0 > reference_discriminant(q1, hi)
        while hi - lo > mpmath.mpf(10) ** -45:
            mid = (lo + hi) / 2
            if reference_discriminant(q1, mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def segment_through(center, angle, before, after):
    u = (math.cos(angle), math.sin(angle))
    return (
        (center[0] - before * u[0], center[1] - before * u[1]),
        (center[0] + after * u[0], center[1] + after * u[1]),
    )


def off_dirac(angle, offset):
    """The point `offset` from (0, 1), normal to the direction `angle`."""
    return (-offset * math.sin(angle), 1.0 + offset * math.cos(angle))


ends = st.floats(0.15, 0.3)
angles = st.floats(0.0, 2 * math.pi, exclude_max=True)
# Seed 381's segment of the ep-hunt benchmark, which passes through (0, 1),
# and its 4-digit rounding, which misses (0, 1) by 1.35e-5.
SEED_381 = ((0.227198873516837, 0.8566095303857024), (-0.16831266910038617, 1.106226022562351))
SEED_381_ROUNDED = ((0.2272, 0.8566), (-0.1683, 1.1062))


class TestLocatorReferences:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(0.1, 0.25), st.floats(0.1, 0.25))
    def test_exceptional_line_crossing(self, family, q1, below, above):
        q2 = reference_line_q2(q1)
        ep = find_ep_on_segment(
            family, (q1, float(q2) - below), (q1, float(q2) + above)
        )
        assert abs(ep.point.q1 - q1) <= 1e-12
        assert abs(ep.point.q2 - q2) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(angles, ends, ends)
    def test_segments_through_the_dirac_point(self, family, angle, before, after):
        ep = find_ep_on_segment(family, *segment_through((0.0, 1.0), angle, before, after))
        assert math.hypot(ep.point.q1, ep.point.q2 - 1.0) <= 1e-7
        assert classify_ep(family, ep) is EPKind.DIRAC

    @settings(max_examples=50, deadline=None)
    @given(angles, ends, ends)
    def test_dirac_point_to_the_fit_resolution(self, family, angle, before, after):
        # Fit noise splits the touching zero into two sign changes about
        # 3e-8 apart; the stationary root between them is the EP.
        ep = find_ep_on_segment(family, *segment_through((0.0, 1.0), angle, before, after))
        assert math.hypot(ep.point.q1, ep.point.q2 - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(angles, ends, ends, st.sampled_from([1e-5, -1e-5, 1e-6, -1e-6]))
    def test_near_misses_are_not_eps(self, family, angle, before, after, offset):
        a, b = segment_through(off_dirac(angle, offset), angle, before, after)
        with pytest.raises(EPNotFoundError):
            find_ep_on_segment(family, a, b)

    def test_rounded_seed_381_segment_is_a_near_miss(self, family):
        with pytest.raises(EPNotFoundError):
            find_ep_on_segment(family, *SEED_381_ROUNDED)

    def test_seed_381_segment_finds_the_dirac_ep(self, family):
        ep = find_ep_on_segment(family, *SEED_381)
        assert math.hypot(ep.point.q1, ep.point.q2 - 1.0) <= 1e-7
        assert classify_ep(family, ep) is EPKind.DIRAC


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
        energy = complex(w[[i, j]].mean())
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
