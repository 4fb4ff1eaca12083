import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nhgeom import (
    BandAmbiguityError,
    BiorthogonalEigensystem,
    Displacement,
    NormalizationBreakdownError,
    Phase,
    classify_phase,
    eigendecompose,
    fidelity,
    grid_scan,
    polar_sweep,
    straddle_fidelity,
    susceptibility,
)
from nhgeom.geometry import band_index, fidelity_from_systems, unit
from nhgeom.linalg import matrix_scale
from nhgeom.spectral import min_gap

Q2_STAR = np.sqrt(17.0 / 8.0)
EPS = np.finfo(float).eps


def hermitian_band0_overlap_sq(family, p, p2):
    """Oracle at q2 = 0: squared overlap of the middle eigenvector pair."""
    _, v1 = np.linalg.eigh(family.matrix(p).real)
    _, v2 = np.linalg.eigh(family.matrix(p2).real)
    # eigh sorts ascending; band 0 (middle of the Re-descending order) is index 1
    return abs(v1[:, 1] @ v2[:, 1]) ** 2


class TestDisplacement:
    def test_unit_direction_enforced(self):
        with pytest.raises(ValueError):
            Displacement((1.0, 1.0), 0.1)
        d = Displacement(unit((1.0, 1.0)), 0.1)
        q = d.applied_to((0.0, 0.0))
        assert q.q1 == pytest.approx(0.1 / np.sqrt(2))

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            Displacement((0.0, 1.0), -0.1)


class TestFidelity:
    def test_zero_step_is_exactly_one(self, family):
        f = fidelity(family, 0, (0.2, 0.5), Displacement((0.0, 1.0), 0.0))
        assert f.value == 1.0 + 0.0j

    def test_hermitian_limit_matches_overlap(self, family):
        # both endpoints on the Hermitian line q2 = 0: F is the ordinary
        # squared overlap, exactly
        d = Displacement((1.0, 0.0), 1e-3)
        f = fidelity(family, 0, (0.0, 0.0), d)
        assert abs(f.value.imag) <= 1e-12
        assert 0.0 < 1.0 - f.value.real < 1e-4
        _, v1 = np.linalg.eigh(family.matrix((0.0, 0.0)).real)
        _, v2 = np.linalg.eigh(family.matrix((1e-3, 0.0)).real)
        oracle = abs(v1[:, 1] @ v2[:, 1]) ** 2
        assert abs(f.value.real - oracle) <= 1e-12

    def test_hermitian_point_nonhermitian_step(self, family):
        # stepping off the Hermitian line along q2 turns on an antisymmetric
        # perturbation: the biorthogonal fidelity exceeds 1 (chi_F < 0),
        # unlike the Hermitian squared overlap
        f = fidelity(family, 0, (0.0, 0.0), Displacement((0.0, 1.0), 1e-3))
        assert abs(f.value.imag) <= 1e-12
        assert 0.0 < f.value.real - 1.0 < 1e-4
        oracle = hermitian_band0_overlap_sq(family, (0.0, 0.0), (0.0, 1e-3))
        assert abs(f.value.real - oracle) <= 3e-6

    def test_straddling_approaches_half(self, family):
        # pair centered on the conventional EP at q2* ~ 1.4577
        f = fidelity(family, 0, (0.0, Q2_STAR - 0.05), Displacement((0.0, 1.0), 0.1))
        assert f.value.real == pytest.approx(0.5, abs=0.02)
        labels = [lab.label for lab in f.phase_labels]
        assert labels == [Phase.UNBROKEN, Phase.BROKEN]

    def test_endpoint_at_ep_raises(self, family):
        with pytest.raises(NormalizationBreakdownError):
            fidelity(family, 0, (0.0, 1.0), Displacement((0.0, 1.0), 1e-3))

    def test_gauge_invariance(self, family, rng):
        ref = eigendecompose(family.matrix((0.3, 0.6)))
        disp = eigendecompose(family.matrix((0.3, 0.601)))
        base = fidelity_from_systems(ref, disp, 1, 1)
        for _ in range(20):
            c = rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * rng.uniform())
            rights = disp.rights.copy()
            lefts = disp.lefts.copy()
            rights[:, 1] = c * rights[:, 1]
            lefts[1] = lefts[1] / c
            scaled = BiorthogonalEigensystem(
                energies=disp.energies,
                rights=rights,
                lefts=lefts,
                residuals=disp.residuals,
                condition_flags=disp.condition_flags,
            )
            assert abs(fidelity_from_systems(ref, scaled, 1, 1) - base) < 1e-12

    def test_reality_in_unbroken_phase(self, family, rng):
        checked = 0
        while checked < 100:
            p = (rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.2))
            phi = rng.uniform(0.0, 2 * np.pi)
            d = Displacement(unit((np.cos(phi), np.sin(phi))), 1e-3)
            if classify_phase(family, p).label is not Phase.UNBROKEN:
                continue
            if classify_phase(family, d.applied_to(p)).label is not Phase.UNBROKEN:
                continue
            try:
                f = fidelity(family, 0, p, d)
            except NormalizationBreakdownError:
                continue
            assert abs(f.value.imag) <= 1e-8
            checked += 1


class TestSusceptibility:
    def test_hermitian_limit_nonnegative(self, family):
        # along the Hermitian line the fidelity susceptibility is the usual
        # non-negative Hermitian one
        for p in ((0.0, 0.0), (0.3, 0.0), (-0.7, 0.0)):
            r = susceptibility(family, 0, p, (1.0, 0.0))
            assert abs(r.value.imag) <= 1e-10
            assert r.value.real >= -1e-10

    def test_negative_divergence_toward_dirac_ep(self, family):
        values = []
        for eps in (0.1, 0.05, 0.025):
            r = susceptibility(family, 0, (0.0, 1.0 - eps), (0.0, 1.0))
            assert r.value.real < 0.0
            values.append(abs(r.value.real))
        assert values[0] < values[1] < values[2]

    def test_anisotropy_nodes(self, family):
        r = 0.2
        chi_0 = susceptibility(family, 0, (r, 1.0), (-1.0, 0.0))
        chi_90 = susceptibility(family, 0, (0.0, 1.0 + r), (0.0, -1.0))
        assert abs(chi_0.value.real) <= 1e-6 * abs(chi_90.value.real)

    def test_direction_symmetry(self, family):
        a = susceptibility(family, 0, (0.4, 0.7), (0.0, 1.0))
        b = susceptibility(family, 0, (0.4, 0.7), (0.0, -1.0))
        tol = 10 * max(a.error_estimate, b.error_estimate)
        assert abs(a.value - b.value) <= tol

    def test_expansion_consistency(self, family):
        # (1 - F)/dq^2 = chi + c*dq + O(dq^2): the fitted slope c is stable
        p, n = (0.3, 0.6), (0.0, 1.0)
        res = susceptibility(family, 0, p, n)
        slopes = []
        for dq in (1e-3, 5e-4, 2.5e-4):
            f = fidelity(family, 0, p, Displacement(n, dq))
            g = (1.0 - f.value) / dq**2
            slopes.append(abs(g - res.value) / dq)
        ref = slopes[0]
        assert ref > 0.0
        for s in slopes[1:]:
            assert abs(s - ref) <= 0.3 * ref


# 50-digit reference: the NV matrix from the spin-1 operators and the
# biorthogonal sum over states, with no nhgeom code involved.
MP_DPS = 50


def _mp_spin1():
    s = 1 / mpmath.sqrt(2)
    sx = mpmath.matrix([[0, s, 0], [s, 0, s], [0, s, 0]])
    sy = mpmath.matrix([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    return sx, sy, mpmath.diag([1, 0, -1])


def _mp_nv(q1, q2):
    sx, sy, sz = _mp_spin1()
    q1, q2 = mpmath.mpf(q1), mpmath.mpf(q2)
    return 3 * sz * sz + 2 * q1 * sz + mpmath.sqrt(2) * (sx - 1j * q2 * sy)


def mp_susceptibility(q1, q2, band, direction):
    """50-digit chi_F of `band` (bands ordered by Re E, then Im E, descending)."""
    with mpmath.workdps(MP_DPS):
        _, sy, sz = _mp_spin1()
        h = _mp_nv(q1, q2)
        n1, n2 = (mpmath.mpf(x) for x in direction)
        dh = n1 * 2 * sz + n2 * (-1j * mpmath.sqrt(2) * sy)
        e, r = mpmath.eig(h)
        order = sorted(range(3), key=lambda i: (-mpmath.re(e[i]), -mpmath.im(e[i])))
        e = [e[i] for i in order]
        r = mpmath.matrix([[r[j, i] for i in order] for j in range(3)])
        a = r**-1 * dh * r
        k = 1 - band
        return sum(a[k, m] * a[m, k] / (e[k] - e[m]) ** 2 for m in range(3) if m != k)


def mp_exceptional_q2(q1, lo=1.0005, hi=1.5):
    """q2 of the conventional exceptional line at q1, to 50 digits.

    Bisection on the discriminant of det(x - H), whose coefficients come
    from the trace, the principal 2x2 minors and the determinant of H.
    """

    def disc(q2):
        h = _mp_nv(q1, q2)
        b = -(h[0, 0] + h[1, 1] + h[2, 2])
        c = sum(h[i, i] * h[j, j] - h[i, j] * h[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
        d = -mpmath.det(h)
        return mpmath.re(
            18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
        )

    with mpmath.workdps(MP_DPS):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        f_lo = disc(lo)
        assert f_lo * disc(hi) < 0
        for _ in range(120):
            mid = (lo + hi) / 2
            f_mid = disc(mid)
            if f_lo * f_mid <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        return (lo + hi) / 2


DIAGONAL = unit((1.0, 1.0))
APPROACH = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def near_ep_triples():
    """(point, band, direction) approaching the Dirac EP and the exceptional line.

    At the Dirac EP (0, 1) bands +1 and 0 coalesce; on the line below it
    bands 0 and -1 do.  Every point is on the PT-unbroken side, so the
    band order is free of conjugate-pair ties.
    """
    triples = []
    for d in APPROACH:
        for band in (1, 0):
            triples += [
                ((0.0, 1.0 - d), band, (0.0, 1.0)),
                ((0.0, 1.0 + d), band, (0.0, 1.0)),
                ((d, 1.0), band, (0.0, 1.0)),
                ((d, 1.0 - d), band, DIAGONAL),
            ]
    line_q2 = float(mp_exceptional_q2(0.5))
    for d in APPROACH + (1e-6, 1e-7):
        for band in (0, -1):
            for direction in ((0.0, 1.0), (1.0, 0.0), DIAGONAL):
                triples.append(((0.0, Q2_STAR - d), band, direction))
            triples.append(((0.5, line_q2 - d), band, (0.0, 1.0)))
    return triples


def richardson_chi(family, band, p, direction, h=1e-3):
    """The finite-difference ladder that preceded the sum over states.

    Richardson-extrapolates g(dq) = (1 - F)/dq^2 on dq in {h, h/2, h/4,
    h/8}.  Returns (value, error): the difference of the last two
    extrapolants, plus 8 eps / (h/8)^2, the round-off floor of g on the
    finest rung.
    """
    steps = [h / 2**k for k in range(4)]
    g = [
        (1.0 - fidelity(family, band, p, Displacement(direction, dq)).value) / dq**2
        for dq in steps
    ]
    extrap = [2 * g[k + 1] - g[k] for k in range(3)]
    return extrap[-1], abs(extrap[-1] - extrap[-2]) + 8 * EPS / steps[-1] ** 2


class TestSusceptibilityOracles:
    def test_matches_50_digit_sum_over_states(self, family):
        # The error bar is the only tolerance.
        triples = near_ep_triples()
        failures = []
        for p, band, direction in triples:
            res = susceptibility(family, band, p, direction)
            exact = complex(mp_susceptibility(*p, band, direction))
            if not abs(res.value - exact) <= res.error_estimate:
                failures.append((p, band, direction, res.value, exact, res.error_estimate))
        assert len(triples) >= 20
        assert not failures, failures

    def test_exact_zeros_on_dirac_line(self, family):
        # On q2 = 1, H is lower triangular and dH/dq1 diagonal, so every
        # term of the sum along the detuning direction vanishes.
        for d in APPROACH:
            for q1 in (d, -d):
                for band in (1, 0):
                    res = susceptibility(family, band, (q1, 1.0), (1.0, 0.0))
                    assert res.value == 0
                    assert abs(mpmath.mpc(mp_susceptibility(q1, 1.0, band, (1.0, 0.0)))) < 1e-30

    def test_agrees_with_richardson_ladder_far_from_eps(self, family):
        checked = 0
        for q1 in np.linspace(-1.5, 1.5, 7):
            for q2 in np.linspace(0.0, 2.0, 5):
                p = (q1, q2)
                if min_gap(family, p) < 0.05 * matrix_scale(family.matrix(p)):
                    continue
                for band in (-1, 0, 1):
                    for direction in ((1.0, 0.0), (0.0, 1.0), DIAGONAL):
                        try:
                            ladder, ladder_err = richardson_chi(family, band, p, direction)
                        except BandAmbiguityError:
                            continue
                        res = susceptibility(family, band, p, direction)
                        assert abs(res.value - ladder) <= ladder_err + res.error_estimate
                        checked += 1
        assert checked >= 200

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1.5, 1.5),
        st.floats(0.0, 2.0),
        st.sampled_from((-1, 0, 1)),
        st.floats(0.0, 2 * math.pi),
    )
    def test_even_under_direction_reversal(self, family, q1, q2, band, phi):
        n = (math.cos(phi), math.sin(phi))
        try:
            a = susceptibility(family, band, (q1, q2), n)
        except NormalizationBreakdownError:
            reject()
        b = susceptibility(family, band, (q1, q2), (-n[0], -n[1]))
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1.5, 1.5),
        st.floats(0.0, 2.0),
        st.sampled_from((-1, 0, 1)),
        st.floats(0.0, 2 * math.pi),
    )
    def test_quadratic_form_in_direction(self, family, q1, q2, band, phi):
        # chi(n) = n^T chi n, the tensor read off the (1, 0), (0, 1) and
        # diagonal directions; the tolerance is the four error bars carried
        # through that combination plus its own rounding.
        p = (q1, q2)
        try:
            x = susceptibility(family, band, p, (1.0, 0.0))
        except NormalizationBreakdownError:
            reject()
        y = susceptibility(family, band, p, (0.0, 1.0))
        d = susceptibility(family, band, p, DIAGONAL)
        n = unit((math.cos(phi), math.sin(phi)))
        got = susceptibility(family, band, p, n)
        u1, u2 = DIAGONAL
        cross = (d.value - u1 * u1 * x.value - u2 * u2 * y.value) / (2 * u1 * u2)
        want = n[0] ** 2 * x.value + n[1] ** 2 * y.value + 2 * n[0] * n[1] * cross
        carried = 2 * (x.error_estimate + y.error_estimate + d.error_estimate)
        rounding = 16 * EPS * (abs(x.value) + abs(y.value) + abs(d.value) + abs(got.value))
        assert abs(got.value - want) <= got.error_estimate + carried + rounding



class TestGridScan:
    def test_ep_cell_flagged(self, family):
        cells = grid_scan(family, (-0.1, 0.1, 0.9, 1.1), (3, 3), 0, (0.0, 1.0))
        assert len(cells) == 9
        by_coords = {c.coords: c for c in cells}
        assert by_coords[(0.0, 1.0)].status == "ep_breakdown"
        assert by_coords[(0.0, 1.0)].value is None
        for corner in ((-0.1, 0.9), (0.1, 0.9), (-0.1, 1.1), (0.1, 1.1)):
            c = by_coords[corner]
            assert c.status == "ok"
            assert np.isfinite(c.value)

    def test_hermitian_line(self, family):
        cells = grid_scan(family, (-0.5, 0.5, 0.0, 0.0), (2, 2), 0, (1.0, 0.0))
        for c in cells:
            assert c.status == "ok"
            assert c.value.real >= -1e-10
            assert abs(c.value.imag) <= 1e-10

    def test_row_major_order(self, family):
        cells = grid_scan(family, (0.0, 1.0, 0.0, 0.5), (3, 2), 0, (1.0, 0.0))
        assert [c.coords for c in cells] == [
            (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
            (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
        ]

    def test_degenerate_resolution_rejected(self, family):
        with pytest.raises(ValueError):
            grid_scan(family, (-1, 1, 0, 1), (1, 5), 0, (0.0, 1.0))


class TestPolarSweep:
    def test_anisotropy_pattern(self, family):
        angles = [2 * np.pi * k / 16 for k in range(16)]
        cells = polar_sweep(family, (0.0, 1.0), [0.1], angles, 0)
        vals = {c.coords[1]: c.value.real for c in cells if c.status == "ok"}
        peak = max(abs(v) for v in vals.values())
        assert abs(vals[0.0]) <= 1e-6 * peak
        assert abs(vals[angles[8]]) <= 1e-6 * peak
        most_negative = sorted(vals, key=lambda k: vals[k])[:2]
        assert set(most_negative) == {angles[4], angles[12]}

    def test_radial_ordering(self, family):
        cells = polar_sweep(family, (0.0, 1.0), [0.1, 0.3], [np.pi / 2], 0)
        v = {c.coords[0]: abs(c.value.real) for c in cells}
        assert v[0.1] > v[0.3]

    def test_nonpositive_radius_rejected(self, family):
        for radius in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                polar_sweep(family, (0.0, 1.0), [0.1, radius], [0.0], 0)


class TestStraddle:
    def test_converges_to_half(self, family):
        q2s = [Q2_STAR - 0.025 - m for m in (0.2, 0.1, 0.05, 0.02, 0.005, 0.0)]
        cells = straddle_fidelity(family, 0, q2s, delta=0.05)
        last = cells[-1]
        assert last.status == "ok"
        assert last.value.real == pytest.approx(0.5, abs=0.02)

    def test_unbroken_pairs_near_one(self, family):
        cells = straddle_fidelity(family, 0, [0.2, 0.4, 0.6], delta=0.01)
        for c in cells:
            assert abs(c.value.real - 1.0) <= 1e-3
            assert abs(c.value.imag) <= 1e-8

    def test_broken_pairs_recorded(self, family):
        cells = straddle_fidelity(family, 0, [1.6], delta=0.05)
        assert cells[0].status == "ok"
        assert np.isfinite(cells[0].value)
