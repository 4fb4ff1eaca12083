import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
# The oracle for the locator's fixed-degree series code; nhgeom itself does
# not import numpy.polynomial.
from numpy.polynomial import chebyshev as cheb

from nhgeom import (
    EPKind,
    EPNotFoundError,
    HamiltonianFamily,
    LostTrackError,
    Phase,
    classify_ep,
    classify_phase,
    discriminant,
    find_ep_on_segment,
    trace_exceptional_line,
)
from nhgeom import spectral
from nhgeom.linalg import eigenpairs
from nhgeom.model import ParameterPoint, as_point
from nhgeom.spectral import (
    TOUCH_NOISE_FACTOR,
    EPLocation,
    _chebder,
    _chebval,
    _discriminant_gradient,
    _real_roots,
    closest_pair,
    phase_of,
)

from conftest import (
    imaginary_detuning_family,
    numpy_eigensolve,
    nv_axis_energies,
    pt_dimer,
    reference_discriminant,
    reference_line_q2,
    segment_through,
    sorted_complex,
)

Q2_STAR = np.sqrt(17.0 / 8.0)


def gap_at(family, p):
    """The smallest eigenvalue gap of H(p)."""
    return closest_pair(np.linalg.eigvals(family.matrix(p)))[0]


class TestClassifyPhase:
    def test_unbroken(self, family):
        label = classify_phase(family, (0.0, 0.5))
        assert label.label is Phase.UNBROKEN
        assert label.discriminant > TOUCH_NOISE_FACTOR * label.bound > 0

    def test_broken(self, family):
        label = classify_phase(family, (0.0, 1.5))
        assert label.label is Phase.BROKEN
        assert label.discriminant < -TOUCH_NOISE_FACTOR * label.bound < 0

    def test_near_ep(self, family):
        label = classify_phase(family, (0.0, 1.0))
        assert label.label is Phase.NEAR_EP
        assert abs(label.discriminant) <= TOUCH_NOISE_FACTOR * label.bound

    def test_stack_is_the_one_point_case(self, family, rng):
        q1, q2 = rng.uniform(-2, 2, 50), rng.uniform(0, 2, 50)
        stack = phase_of(family.matrices(q1, q2))
        for k in range(50):
            one = classify_phase(family, (q1[k], q2[k]))
            assert (stack.label[k], stack.discriminant[k], stack.bound[k]) == (
                one.label, one.discriminant, one.bound)

    def test_bound_covers_the_50_digit_error(self, family, rng):
        # Random points, and both EP ladders on q1 = 0.
        points = list(zip(rng.uniform(-2, 2, 300), rng.uniform(0, 2, 300)))
        for center in (1.0, Q2_STAR):
            points += [(0.0, center + s * 10.0 ** e) for s in (1, -1) for e in range(-16, -2)]
        for q1, q2 in points:
            label = classify_phase(family, (q1, q2))
            with mpmath.workdps(50):
                want = reference_discriminant(mpmath.mpf(q1), mpmath.mpf(q2))
            assert abs(label.discriminant - float(want)) <= label.bound

    def test_labels_run_once_through_the_conventional_ep(self, family):
        # On q1 = 0 across q2* the labels run unbroken -> near_ep -> broken
        # with no flip back, on a log ladder of offsets and at the floats
        # next to q2*; near_ep stays within 1e-11 of q2*.
        q2s = {Q2_STAR + s * 10.0 ** e for s in (1, -1) for e in range(-16, -8)}
        q2 = lo = hi = Q2_STAR
        for _ in range(4):
            q2s |= {lo, hi}
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)
        labels = [classify_phase(family, (0.0, q2)).label for q2 in sorted(q2s)]
        rank = {Phase.UNBROKEN: 0, Phase.NEAR_EP: 1, Phase.BROKEN: 2}
        assert [rank[x] for x in labels] == sorted(rank[x] for x in labels)
        assert labels[0] is Phase.UNBROKEN and labels[-1] is Phase.BROKEN
        assert classify_phase(family, (0.0, q2)).label is Phase.NEAR_EP
        near = [q for q, x in zip(sorted(q2s), labels) if x is Phase.NEAR_EP]
        assert max(abs(q - Q2_STAR) for q in near) <= 1e-11

    def test_two_complex_pairs_read_broken(self):
        # Eigenvalues +/- i and +/- 2i: six negative squared differences, so
        # disc > 0, but P is indefinite (two real eigenvalues fewer).
        h = np.zeros((4, 4))
        h[0, 1], h[1, 0], h[2, 3], h[3, 2] = 1, -1, 2, -2
        label = phase_of(h)
        assert label.discriminant == pytest.approx(4 * 1 * 9 * 9 * 1 * 16)
        assert label.label is Phase.BROKEN
        assert phase_of(np.diag([1.0, 2.0, 3.0, 4.0])).label is Phase.UNBROKEN

    def test_stack_of_any_shape(self, family):
        h = family.matrices(np.zeros((2, 3)), np.full((2, 3), 0.5))
        label = phase_of(h)
        assert label.label.shape == label.discriminant.shape == label.bound.shape == (2, 3)
        assert all(x is Phase.UNBROKEN for x in label.label.ravel())


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


class TestStackedDiscriminant:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=13))
    def test_stack_is_the_one_point_case_and_matches_closed_form(self, family, points):
        q1, q2 = np.array(points).T
        stack = spectral._discriminant(family, q1, q2)
        assert stack.shape == q1.shape
        for k, (a, b) in enumerate(points):
            assert stack[k].tobytes() == np.complex128(discriminant(family, (a, b))).tobytes()
            with mpmath.workdps(50):
                ref = reference_discriminant(mpmath.mpf(a), mpmath.mpf(b))
            # Rounding of the power sums and of det P scales as ||H||_F^6;
            # 3.9 eps of it was the worst seen over 328 points.
            frob2 = 22 + 8 * a * a + 4 * b * b
            assert abs(stack[k] - complex(ref)) <= 64 * np.finfo(float).eps * frob2 ** 3

    def test_locator_builds_its_nodes_in_one_stack(self, family, monkeypatch):
        calls = Counter()

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            HamiltonianFamily, "matrices", counted("matrices", HamiltonianFamily.matrices)
        )
        monkeypatch.setattr(spectral, "discriminant", counted("discriminant", discriminant))
        find_ep_on_segment(family, (0.0, 0.5), (0.0, 1.3))
        assert calls == {"matrices": 2}  # the nodes, then the candidates


class TestFindEP:
    def test_dirac_ep(self, family):
        ep = find_ep_on_segment(family, (0.0, 0.5), (0.0, 1.3))
        assert abs(ep.point.q1) <= 1e-8
        assert abs(ep.point.q2 - 1.0) <= 1e-7
        assert abs(ep.coalesced_energy - 3.0) <= 1e-8
        assert ep.gap <= 1e-7
        assert classify_ep(family, ep) is EPKind.DIRAC

    def test_conventional_ep(self, family):
        ep = find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))
        assert abs(ep.point.q2 - Q2_STAR) <= 1e-8
        assert abs(ep.coalesced_energy - 1.5) <= 1e-6
        assert classify_ep(family, ep) is EPKind.CONVENTIONAL

    def test_not_found(self, family):
        with pytest.raises(EPNotFoundError):
            find_ep_on_segment(family, (0.0, 0.1), (0.0, 0.5))

    def test_evidence_equals_an_eigensolve_at_the_located_point(self, family, rng):
        # Reference: eig of H rebuilt at the returned point, its closest pair,
        # and the smallest singular value of the Gram matrix of its unit
        # right eigenvectors.
        segments = [
            segment_through((0.0, 1.0), rng.uniform(0.0, 2 * math.pi), *rng.uniform(0.15, 0.3, 2))
            for _ in range(60)
        ]
        for q1, below, above in zip(rng.uniform(-0.9, 0.9, 60), *rng.uniform(0.1, 0.25, (2, 60))):
            q2 = float(reference_line_q2(q1))
            segments.append(((q1, q2 - below), (q1, q2 + above)))
        for segment in segments:
            ep = find_ep_on_segment(family, *segment)
            w, v = numpy_eigensolve(family.matrix(ep.point), vectors=True)
            v = v / np.linalg.norm(v, axis=0)
            assert ep.gap == float(closest_pair(w)[0])
            assert ep.defect_measure == float(np.linalg.svd(v.conj().T @ v, compute_uv=False)[-1])

    def test_one_eig_and_no_matrix_call(self, family, monkeypatch):
        calls = Counter()

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                # A stack of 3x3 Hamiltonians, or one root-finding companion matrix.
                calls[name, "stack" if np.ndim(args[-1]) == 3 else "one"] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(
            HamiltonianFamily, "matrix", counted("matrix", HamiltonianFamily.matrix)
        )
        for segment in (((0.0, 0.5), (0.0, 1.3)), ((0.0, 1.2), (0.0, 1.7))):
            calls.clear()
            find_ep_on_segment(family, *segment)
            # One eigvals each for the companion matrices of p' and p, and
            # one eig for the stack of candidates.
            assert calls == Counter({("eigvals", "one"): 2, ("eig", "stack"): 1})

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


class TestPTDimer:
    """Every EP question for n = 2, from the same Hermite form as for n = 3."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-2, 2), st.floats(0, 2))
    def test_discriminant(self, q1, q2):
        want = 4 * (q1 * q1 - q2 * q2)
        assert discriminant(pt_dimer(), (q1, q2)) == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_locator_lands_on_the_ep(self):
        ep = find_ep_on_segment(pt_dimer(), (1.0, 0.5), (1.0, 1.5))
        assert math.hypot(ep.point.q1 - 1.0, ep.point.q2 - 1.0) <= 1e-12
        assert ep.gap <= 1e-7

    def test_trace_follows_the_diagonal(self):
        dimer = pt_dimer()
        seed = find_ep_on_segment(dimer, (1.0, 0.5), (1.0, 1.5))
        points = trace_exceptional_line(dimer, seed, step=0.05, max_points=10)
        assert len(points) == 10
        assert max(abs(ep.point.q2 - ep.point.q1) for ep in points) <= 1e-12
        # Up the diagonal: a positive step keeps disc > 0 (q1 > q2) on its right.
        assert points[-1].point.q1 == pytest.approx(1.0 + 9 * 0.05 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("q2, want", [
        (0.5, Phase.UNBROKEN), (1.0, Phase.NEAR_EP), (1.5, Phase.BROKEN),
    ])
    def test_labels(self, q2, want):
        assert classify_phase(pt_dimer(), (1.0, q2)).label is want

    def test_non_real_power_sums_read_broken(self):
        # Shifted by i: disc = 3 > 0 as for the unshifted dimer, but
        # p_1 = tr H = 2i is not real, so some eigenvalue is not real.
        shifted = pt_dimer(shift=1j)
        assert discriminant(shifted, (1.0, 0.5)) == pytest.approx(3.0, rel=1e-14)
        assert classify_phase(pt_dimer(), (1.0, 0.5)).label is Phase.UNBROKEN
        assert classify_phase(shifted, (1.0, 0.5)).label is Phase.BROKEN


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


class TestDiscriminantGradient:
    def test_against_50_digit_derivative(self, family, rng):
        for q1, q2 in zip(rng.uniform(-2, 2, 50), rng.uniform(0, 2, 50)):
            with mpmath.workdps(50):
                x, y = mpmath.mpf(q1), mpmath.mpf(q2)
                want = np.array([
                    float(mpmath.diff(lambda t: reference_discriminant(t, y), x)),
                    float(mpmath.diff(lambda t: reference_discriminant(x, t), y)),
                ])
            got, noise = _discriminant_gradient(family, (q1, q2))
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
            # The round-off bound covers the actual error (at most 3.3e-4 of a
            # bound seen on these 50 points).
            assert (np.abs(got - want) <= TOUCH_NOISE_FACTOR * noise).all()


class TestGridEquivalence:
    def test_discriminant_gap_equivalence(self, family):
        # |disc| < 1e-8 iff the eigenvalue gap < 1e-4, on-grid and at the known EPs
        q1s = np.linspace(-2.0, 2.0, 200)
        q2s = np.linspace(0.0, 2.0, 200)
        mismatches = 0
        for q2 in q2s:
            for q1 in q1s:
                small_disc = abs(discriminant(family, (q1, q2))) < 1e-8
                small_gap = gap_at(family, (q1, q2)) < 1e-4
                mismatches += small_disc != small_gap
        assert mismatches == 0
        for p in ((0.0, 1.0), (0.0, Q2_STAR)):
            assert abs(discriminant(family, p)) < 1e-8
            assert gap_at(family, p) < 1e-4


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


def rotated_nv(nv):
    """NV rotated 90 degrees about (0, q2*): H(u1, u2) = H_nv(-(u2 - q2*), u1 + q2*)
    = H0 + q2* (A1 + A2) + u1 A2 - u2 A1."""
    return HamiltonianFamily("nv-rotated", nv.h0 + Q2_STAR * (nv.a1 + nv.a2), nv.a2, -nv.a1)


@pytest.fixture(scope="module")
def seed_rotated(family):
    rotated = rotated_nv(family)
    return rotated, find_ep_on_segment(rotated, (-0.3, Q2_STAR), (0.3, Q2_STAR))


def count_locator_calls(monkeypatch):
    """Record the arguments of every find_ep_on_segment call the tracer makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return find_ep_on_segment(*args)

    monkeypatch.setattr(spectral, "find_ep_on_segment", counted)
    return calls


class TestTraceLine:
    def test_single_point(self, family, seed):
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=1)
        assert len(pts) == 1
        assert pts[0].point == seed.point

    def test_points_lie_on_exceptional_set(self, family, seed):
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=10)
        assert len(pts) > 3
        for ep in pts:
            assert gap_at(family, ep.point) <= 1e-4

    def test_q1_mirror_symmetry(self, family, seed):
        # spectrum is invariant under q1 -> -q1; check on traced points
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=8)
        for ep in pts:
            w = np.linalg.eigvals(family.matrix(ep.point))
            wm = np.linalg.eigvals(family.matrix((-ep.point.q1, ep.point.q2)))
            assert np.allclose(sorted_complex(w), sorted_complex(wm), atol=1e-9)

    def test_isolated_dirac_seed_loses_track(self, family, monkeypatch):
        # The Dirac EP is an isolated, singular point of the exceptional set:
        # no direction from it continues to another EP.  The located one is
        # (0, 0.9999999999999583), where the gradient reads 1.3e-11 against
        # a bound of 1.3e-8: round-off, so no corrector call is spent on it.
        dirac = find_ep_on_segment(family, (0.0, 0.5), (0.0, 1.3))
        calls = count_locator_calls(monkeypatch)
        with pytest.raises(LostTrackError,
                           match="no continuation direction .* gradient .* within round-off"):
            trace_exceptional_line(family, dirac, step=0.05, max_points=40)
        assert calls == []

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf, -math.inf])
    def test_bad_step_raises_value_error(self, family, seed, step):
        with pytest.raises(ValueError, match="step must be finite and nonzero"):
            trace_exceptional_line(family, seed, step=step, max_points=40)

    def test_one_corrector_call_per_point(self, family, seed, monkeypatch):
        calls = count_locator_calls(monkeypatch)
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=40)
        assert len(pts) == 40
        assert len(calls) == 39

    def test_rotated_family_steps_both_ways(self, seed_rotated, monkeypatch):
        # NV rotated 90 degrees about (0, q2*): the exceptional line leaves
        # the seed vertically, with the PT-unbroken side (u1 < 0) to the
        # right of a downward step.
        family, seed = seed_rotated
        calls = count_locator_calls(monkeypatch)
        traces = {}
        for step in (0.05, -0.05):
            before = len(calls)
            traces[step] = trace_exceptional_line(family, seed, step=step, max_points=10)
            assert len(traces[step]) == 10
            assert len(calls) - before == 9
            for ep in traces[step]:
                assert gap_at(family, ep.point) <= 1e-4
        fwd, bwd = (traces[s][-1].point.q2 - seed.point.q2 for s in (0.05, -0.05))
        assert fwd < -0.4 and bwd > 0.4
        # To the right of the downward step lies -u1: the PT-unbroken side.
        with mpmath.workdps(50):
            u1, u2 = mpmath.mpf(seed.point.q1) - mpmath.mpf("0.01"), mpmath.mpf(seed.point.q2)
            q2_star = mpmath.sqrt(mpmath.mpf(17) / 8)
            assert reference_discriminant(-(u2 - q2_star), u1 + q2_star) > 0

    def test_opposite_step_mirror(self, family, seed):
        fwd = trace_exceptional_line(family, seed, step=0.05, max_points=6)
        bwd = trace_exceptional_line(family, seed, step=-0.05, max_points=6)
        assert len(fwd) == len(bwd)
        for f, b in zip(fwd, bwd):
            assert f.point.q1 == pytest.approx(-b.point.q1, abs=1e-6)
            assert f.point.q2 == pytest.approx(b.point.q2, abs=1e-6)

    def test_stops_when_the_first_prediction_leaves_the_box(self, family, seed, monkeypatch):
        q1, q2 = seed.point
        calls = count_locator_calls(monkeypatch)
        box = (q1 - 0.01, q1 + 0.01, q2 - 0.01, q2 + 0.01)
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=40, box=box)
        assert pts == [seed]
        assert calls == []

    def test_corrector_miss_after_the_seed_loses_track(self, family, seed, monkeypatch):
        calls = []

        def second_misses(*args):
            calls.append(args)
            if len(calls) == 2:
                raise EPNotFoundError("no EP on this segment")
            return find_ep_on_segment(*args)

        monkeypatch.setattr(spectral, "find_ep_on_segment", second_misses)
        with pytest.raises(LostTrackError,
                           match=r"around the last point .*: no EP on this segment"):
            trace_exceptional_line(family, seed, step=0.05, max_points=40)
        assert len(calls) == 2

    def test_stops_when_a_corrected_point_leaves_the_box(self, family, seed, monkeypatch):
        # At the seed on q1 = 0 the gradient's q1 part is 0, so the first
        # prediction keeps the seed's q2 and only the corrector moves it,
        # down the line to q2(0.05) < q2*.  A box edge between the two
        # admits the prediction and not the corrected point.
        second = trace_exceptional_line(family, seed, step=0.05, max_points=2)[1]
        assert second.point.q2 < seed.point.q2
        box = (-2, 2, (seed.point.q2 + second.point.q2) / 2, 2)
        calls = count_locator_calls(monkeypatch)
        pts = trace_exceptional_line(family, seed, step=0.05, max_points=40, box=box)
        assert pts == [seed]
        assert len(calls) == 1


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(complex_triples, min_size=1, max_size=6))
    def test_stack_equals_rows(self, rows):
        gaps, i, j = closest_pair(np.stack(rows))
        for k, w in enumerate(rows):
            gap, a, b = closest_pair(w)
            assert (bits(gaps[k]), i[k], j[k]) == (bits(gap), a, b)


def same_bits(got, want):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# Coefficients of either sign over six decades, and exact zeros.
coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def series(draw, terms):
    """`terms` Chebyshev coefficients whose top ones may be exactly 0, all of
    them included."""
    c = draw(st.lists(coefficients, min_size=terms, max_size=terms))
    zeros = draw(st.integers(0, terms))
    return c[:terms - zeros] + [0.0] * zeros


abscissae = st.lists(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=8).map(np.array)


class TestFixedDegreeSeries:
    """The locator's series helpers against numpy.polynomial.chebyshev."""

    def test_nodes_and_table(self):
        # The fit of an n x n family's discriminant, of degree n(n - 1).
        for deg in (2, 6, 12):
            nodes = cheb.chebpts1(2 * deg + 1)
            table = cheb.chebvander(nodes, 2 * deg).T
            assert same_bits(spectral._fit(deg)[0], nodes)
            assert same_bits(spectral._fit(deg)[1], table)
            assert spectral._fit(deg)[1].strides == table.strides

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series(7), series(6), series(3), series(2)))
    @example([0.0] * 7)
    @example([0.0] * 6)
    @example([1.5])
    def test_derivatives(self, c):
        assert same_bits(_chebder(c), cheb.chebder(c))
        assert same_bits(_chebder(_chebder(c)), cheb.chebder(cheb.chebder(c)))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series(7), series(6), series(5), series(3), series(2), series(1)), abscissae)
    @example([0.0] * 7, np.array([-1.0, 1.0]))
    @example([2.0], np.array([-0.5, 1.0]))
    def test_clenshaw(self, c, x):
        assert same_bits(_chebval(x, c), cheb.chebval(x, c))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series(7), series(6), series(3), series(2)))
    @example([0.0] * 7)
    @example([0.0] * 6)
    @example([0.5, 2.0] + [0.0] * 5)
    @example([-1.0, 0.0, 1.0] + [0.0] * 4)
    def test_real_roots(self, c):
        roots = cheb.chebroots(c)
        roots = roots[roots.imag == 0].real
        assert same_bits(_real_roots(c), roots[np.abs(roots) <= 1])


REFERENCE_NODES = cheb.chebpts1(13)
REFERENCE_VANDER_T = cheb.chebvander(REFERENCE_NODES, 12).T


def reference_find_ep(family, a, b):
    """`find_ep_on_segment` as written on numpy.polynomial: its fit rooted by
    chebroots, differentiated by chebder and evaluated by chebval, and its
    energy a fancy-indexed mean."""
    a, b = as_point(a), as_point(b)

    def point_at(x):
        t = (1 + x) / 2
        return ParameterPoint(a.q1 + t * (b.q1 - a.q1), a.q2 + t * (b.q2 - a.q2))

    def real_roots(c):
        roots = cheb.chebroots(c)
        roots = roots[roots.imag == 0].real
        return roots[np.abs(roots) <= 1]

    values = spectral._discriminant(family, *point_at(REFERENCE_NODES))
    coef = REFERENCE_VANDER_T @ values * (2 / len(REFERENCE_NODES))
    coef[0] /= 2
    noise = float(np.abs(coef[7:]).sum() + np.abs(values.imag).max())
    p = coef[:7].real
    stationary = np.concatenate([real_roots(cheb.chebder(p)), [-1.0, 1.0]])
    touching = stationary[np.abs(cheb.chebval(stationary, p)) <= TOUCH_NOISE_FACTOR * noise]
    crossings = real_roots(p)
    if crossings.size and touching.size:
        with np.errstate(divide="ignore"):
            curvature = np.abs(cheb.chebval(touching, cheb.chebder(p, 2)))
            resolution = np.sqrt(2 * TOUCH_NOISE_FACTOR * noise / curvature)
        split = np.abs(crossings[:, None] - touching) <= resolution
        crossings = crossings[~split.any(axis=1)]
    candidates = np.concatenate([crossings, touching])
    if candidates.size == 0:
        raise EPNotFoundError(
            f"the discriminant on segment {a} -> {b} neither changes sign nor "
            f"touches zero within {TOUCH_NOISE_FACTOR} x its fit noise {noise:.3e}"
        )
    points = point_at(candidates)
    w, v = eigenpairs(family.matrices(*points))
    gaps, i, j = closest_pair(w)
    k = gaps.argmin()
    v = v[k] / np.linalg.norm(v[k], axis=0)
    return EPLocation(
        point=ParameterPoint(points.q1[k], points.q2[k]),
        coalesced_energy=complex(w[k, [i[k], j[k]]].mean()),
        gap=float(gaps[k]),
        defect_measure=float(np.linalg.svd(v.conj().T @ v, compute_uv=False)[-1]),
    )


def outcome(locate, family, segment):
    """repr of the EPLocation, or the type and message of the exception."""
    try:
        return repr(locate(family, *segment))
    except EPNotFoundError as err:
        return f"{type(err).__name__}: {err}"


def locator_segments(rng):
    """Segments through (0, 1), across the exceptional line, at random in
    the phase box (about half find nothing), and of zero length."""
    segments = [
        segment_through((0.0, 1.0), rng.uniform(0.0, 2 * math.pi), *rng.uniform(0.02, 1.0, 2))
        for _ in range(100)
    ]
    for q1, angle, before, after in zip(rng.uniform(-0.9, 0.9, 60), rng.uniform(0, math.pi, 60),
                                        *rng.uniform(0.05, 0.3, (2, 60))):
        segments.append(segment_through((q1, float(reference_line_q2(q1))), angle, before, after))
    segments += [((q1, q2), (r1, r2)) for q1, q2, r1, r2 in rng.uniform((-2, 0, -2, 0), 2, (140, 4))]
    return segments + [(p, p) for p in ((0.0, 1.0), (0.0, float(Q2_STAR)), (0.5, 0.5))]


class TestLocatorMatchesNumpyPolynomial:
    @pytest.mark.filterwarnings("error")
    def test_nv_family(self, family, rng):
        segments = locator_segments(rng)
        found = 0
        for segment in segments:
            got = outcome(find_ep_on_segment, family, segment)
            assert got == outcome(reference_find_ep, family, segment), segment
            found += not got.startswith("EPNotFoundError")
        assert 200 < found < len(segments)

    @pytest.mark.filterwarnings("error")
    def test_complex_family(self, rng):
        family = imaginary_detuning_family()
        for segment in locator_segments(rng)[-60:]:
            assert outcome(find_ep_on_segment, family, segment) == outcome(
                reference_find_ep, family, segment), segment

    def test_zero_length_segment_at_the_dirac_ep(self, family):
        # All 13 discriminant samples are exactly 0: no root of p or p', and
        # both ends touch.
        ep = find_ep_on_segment(family, (0.0, 1.0), (0.0, 1.0))
        assert (ep.point, ep.gap) == (ParameterPoint(0.0, 1.0), 0.0)
