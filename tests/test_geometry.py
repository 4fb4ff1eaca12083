import dataclasses
import math
import warnings
from collections.abc import Sequence

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nhgeom import (
    ArgumentError,
    BandAmbiguityError,
    Displacement,
    NhgeomError,
    NormalizationBreakdownError,
    ScanCell,
    Sweep,
    Phase,
    classify_phase,
    eigendecompose,
    fidelity,
    grid_scan,
    line_scan,
    polar_sweep,
    straddle_fidelity,
    susceptibility,
)
from nhgeom.geometry import band_index, fidelity_from_systems, unit
from nhgeom.linalg import as_complex_matrix, matrix_scale
from nhgeom.model import as_point, as_points
from nhgeom.spectral import closest_pair, trace_exceptional_line

from conftest import imaginary_detuning_family, reference_line_q2

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
        for direction in ((1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                Displacement(direction, 0.1)
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
        labels = [classify_phase(family, q).label for q in f.endpoints]
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
            scaled = dataclasses.replace(disp, rights=rights, lefts=lefts)
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

    def test_nonfinite_direction_rejected(self, family):
        for direction in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)):
            with pytest.raises(ValueError, match="non-finite direction"):
                susceptibility(family, 0, (0.3, 0.5), direction)

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


def mp_energies(q1, q2):
    """The three eigenvalues of H(q1, q2), from 50 digits, as complex floats."""
    with mpmath.workdps(MP_DPS):
        e, _ = mpmath.eig(_mp_nv(q1, q2))
        return [complex(x) for x in e]


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

    def test_error_bar_holds_at_random_points(self, family):
        # Random points of the PT-unbroken phase at least 0.05 from any
        # eigenvalue coalescence, random directions, every band; the error
        # bar is the only tolerance.  The bar must cover the round-off of
        # small matrix elements, not only of the products: at the fixed
        # first point chi_F is 1e-4 while its terms are 1e-3.  Broken-phase
        # points are left out, because which member of a conjugate pair
        # carries a band label is decided by round-off there.
        rng = np.random.default_rng(7)
        points = [(-1.40495, 0.718259)]
        while len(points) < 100:
            p = (rng.uniform(-1.6, 1.6), rng.uniform(0.0, 2.0))
            e = mp_energies(*p)
            gaps = [abs(e[i] - e[j]) for i in range(3) for j in range(i + 1, 3)]
            if max(abs(x.imag) for x in e) < 1e-30 and min(gaps) >= 0.05:
                points.append(p)
        failures = []
        for k, p in enumerate(points):
            phi = -0.57889 if k == 0 else rng.uniform(0.0, math.pi)
            direction = (math.cos(phi), math.sin(phi))
            for band in (-1, 0, 1):
                res = susceptibility(family, band, p, direction)
                exact = complex(mp_susceptibility(*p, band, res.direction))
                if not abs(res.value - exact) <= res.error_estimate:
                    failures.append((p, band, direction, res.value, exact, res.error_estimate))
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
                gap = closest_pair(np.linalg.eigvals(family.matrix(p)))[0]
                if gap < 0.05 * matrix_scale(family.matrix(p)):
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                      st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
            # Boxes centred on the Dirac EP: odd resolutions put a cell on it.
            st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(
                lambda ab: (-ab[0], ab[0], 1.0 - ab[1], 1.0 + ab[1])),
        ),
        st.integers(2, 5),
        st.integers(2, 5),
        st.sampled_from((-1, 0, 1)),
        st.floats(0.0, 2 * math.pi),
    )
    def test_cells_equal_pointwise_susceptibility(self, family, box, nx, ny, band, phi):
        # The batched kernel and its one-point case agree bit for bit, and
        # a cell is ep_breakdown exactly where the point raises.
        direction = (math.cos(phi), math.sin(phi))
        for cell in grid_scan(family, box, (nx, ny), band, direction):
            try:
                res = susceptibility(family, band, cell.coords, direction)
            except NormalizationBreakdownError:
                assert cell.status == "ep_breakdown" and cell.value is None
                continue
            assert cell.status == "ok"
            got = (cell.value.real, cell.value.imag, cell.error_estimate)
            want = (res.value.real, res.value.imag, res.error_estimate)
            assert [x.hex() for x in got] == [x.hex() for x in want]


def pointwise_cell(family, band, coords, point, direction):
    """The ScanCell a one-point `susceptibility` call gives."""
    try:
        res = susceptibility(family, band, point, direction)
    except NormalizationBreakdownError:
        return ScanCell(coords, band, "ep_breakdown", None, None)
    return ScanCell(coords, band, "ok", res.value, res.error_estimate)


class TestSweep:
    def test_grid_is_a_sequence_of_pointwise_cells(self, family):
        direction = (0.6, 0.8)
        sweep = grid_scan(family, (-0.1, 0.1, 0.9, 1.1), (3, 3), 1, direction)
        assert isinstance(sweep, Sweep) and isinstance(sweep, Sequence)
        cells = list(sweep)
        assert len(sweep) == len(cells) == 9
        want = [pointwise_cell(family, 1, (q1, q2), (q1, q2), direction)
                for q2 in (0.9, 1.0, 1.1) for q1 in (-0.1, 0.0, 0.1)]
        assert cells == want
        assert {c.status for c in cells} == {"ok", "ep_breakdown"}
        assert [sweep[k] for k in range(-9, 0)] == cells
        assert sweep[4] == sweep[-5] == want[4]
        assert sweep[1:7:2] == want[1:7:2]
        assert sweep[::-1] == list(reversed(sweep)) == want[::-1]
        assert sweep.index(want[4]) == 4 and want[8] in sweep
        again = grid_scan(family, (-0.1, 0.1, 0.9, 1.1), (3, 3), 1, direction)
        assert sweep == again == want and want == sweep and sweep[:] == sweep
        assert sweep != want[:-1] and sweep != tuple(want)
        assert sweep != grid_scan(family, (-0.1, 0.1, 0.9, 1.1), (3, 3), 0, direction)
        for k in (9, -10):
            with pytest.raises(IndexError):
                sweep[k]

    def test_polar_cells_run_over_angles_fastest(self, family):
        radii, angles = [0.1, 0.25], [0.0, 1.0, 2.5]
        sweep = polar_sweep(family, (0.0, 1.0), radii, angles, 0)
        want = [pointwise_cell(family, 0, (r, phi),
                               (r * math.cos(phi), 1.0 + r * math.sin(phi)),
                               (-math.cos(phi), -math.sin(phi)))
                for r in radii for phi in angles]
        assert len(sweep) == 6
        assert list(sweep) == want
        assert sweep[-1] == want[-1]
        assert sweep.coordinates() == [[0.1] * 3 + [0.25] * 3, angles * 2]

    def test_straddle_cells_equal_pointwise_fidelity(self, family):
        q2s = [0.0, 0.5, 1.0, 1.2]
        sweep = straddle_fidelity(family, 0, q2s, 0.05, q1=-0.0)
        d = Displacement((0.0, 1.0), 0.05)
        for k, q2 in enumerate(q2s):
            try:
                want = ScanCell((-0.0, q2), 0, "ok", fidelity(family, 0, (-0.0, q2), d).value, 0.0)
            except NormalizationBreakdownError:
                want = ScanCell((-0.0, q2), 0, "ep_breakdown", None, None)
            assert sweep[k] == want
            assert math.copysign(1, sweep[k].coords[0]) == -1
        assert [c.status for c in sweep] == ["ok", "ok", "ep_breakdown", "ok"]

    def test_line_scan_of_no_points_is_empty(self, family):
        sweep = line_scan(family, 0.3, [], 0, (0.0, 1.0))
        assert len(sweep) == 0 and list(sweep) == []
        assert sweep.coordinates() == [[], []]


def cell_bits(cell):
    """A ScanCell with its numbers as hex strings, so == is bit for bit."""
    if cell.value is None:
        return cell.coords, cell.status
    return (cell.coords, cell.status, cell.value.real.hex(), cell.value.imag.hex(),
            cell.error_estimate.hex())


class TestDriverChoice:
    """Each matrix of a stack gets the LAPACK driver it gets alone, so a
    sweep of a family that is real on q1 = 0 and complex off it equals its
    one-point cells, bit for bit, across q1 = 0."""

    @pytest.mark.parametrize("band", (-1, 0, 1))
    def test_grid_through_the_real_line(self, band):
        family = imaginary_detuning_family()
        direction = (0.6, 0.8)
        sweep = grid_scan(family, (-0.5, 0.5, 0.1, 1.9), (5, 8), band, direction)
        assert {(cell.coords[0] == 0, cell.status) for cell in sweep} == {
            (True, "ok"), (False, "ok")}
        for cell in sweep:
            want = pointwise_cell(family, band, cell.coords, cell.coords, direction)
            assert cell_bits(cell) == cell_bits(want)

    @pytest.mark.parametrize("q1", (0.0, -0.0, 0.25))
    def test_line_cut_on_and_off_the_real_line(self, q1):
        family = imaginary_detuning_family()
        q2s = np.linspace(0.1, 1.9, 13)
        for band in (-1, 0, 1):
            sweep = line_scan(family, q1, q2s, band, (0.0, 1.0))
            for cell, q2 in zip(sweep, q2s):
                want = pointwise_cell(family, band, (q1, q2), (q1, q2), (0.0, 1.0))
                assert cell_bits(cell) == cell_bits(want)


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

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, family, angle):
        with pytest.raises(ValueError, match="angles must be finite"):
            polar_sweep(family, (0.0, 1.0), [0.1], [0.0, angle], 0)

    def test_infinite_radius_rejected_before_numpy_sees_it(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="radii must be positive and finite"):
                polar_sweep(family, (0.0, 1.0), [0.1, math.inf], [0.0, 1.0], 0)

    def test_no_radii_rejected(self, family):
        with pytest.raises(ValueError, match="radii and angles must be nonempty"):
            polar_sweep(family, (0.0, 1.0), [], [0.0], 0)

    def test_band_outside_labels_rejected(self):
        with pytest.raises(ValueError, match=r"band must be one of -1, 0, \+1; got 2"):
            band_index(2, 3)

    @pytest.mark.parametrize("band, dim", [(1, 1), (-1, 2)])
    def test_band_outside_the_family_rejected(self, band, dim):
        # dim // 2 - band falls outside the dim slots.
        with pytest.raises(ValueError, match=f"got {band}"):
            band_index(band, dim)


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

    @pytest.mark.parametrize("delta", [0.0, math.inf])
    def test_bad_delta_rejected(self, family, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            straddle_fidelity(family, 0, [1.2], delta=delta)


# Each argument check of the library, as a call on the NV family that fails it.
ARGUMENT_CHECKS = {
    "unit-zero": lambda fam: unit((0.0, 0.0)),
    "unit-inf": lambda fam: unit((math.inf, 1.0)),
    "displacement-not-unit": lambda fam: Displacement((1.0, 1.0), 0.1),
    "displacement-negative": lambda fam: Displacement((1.0, 0.0), -0.1),
    "band-index": lambda fam: band_index(2, 3),
    "grid-resolution": lambda fam: grid_scan(fam, (0, 1, 0, 1), (1, 5), 0, (0, 1)),
    "grid-band": lambda fam: grid_scan(fam, (0, 1, 0, 1), (2, 2), -2, (0, 1)),
    "polar-no-radii": lambda fam: polar_sweep(fam, (0.0, 1.0), [], [0.0], 0),
    "polar-radius": lambda fam: polar_sweep(fam, (0.0, 1.0), [0.0], [0.0], 0),
    "polar-angle": lambda fam: polar_sweep(fam, (0.0, 1.0), [0.1], [math.nan], 0),
    "polar-center": lambda fam: polar_sweep(fam, (math.inf, 1.0), [0.1], [0.0], 0),
    "straddle-delta": lambda fam: straddle_fidelity(fam, 0, [1.2], delta=0.0),
    "straddle-band": lambda fam: straddle_fidelity(fam, 3, [1.2], delta=0.1),
    "trace-step": lambda fam: trace_exceptional_line(fam, None, math.nan, 5),
    "point": lambda fam: as_point((math.nan, 0.0)),
    "points-shape": lambda fam: as_points(([0.0, 1.0], [0.0])),
    "matrix-shape": lambda fam: as_complex_matrix(np.ones((2, 3))),
    "matrix-nan": lambda fam: eigendecompose(np.full((2, 2), math.nan)),
}


@pytest.mark.parametrize("call", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS.keys())
def test_argument_checks_raise_argument_error(family, call):
    with pytest.raises(ArgumentError) as info:
        call(family)
    assert isinstance(info.value, ValueError) and isinstance(info.value, NhgeomError)


@pytest.mark.parametrize("sweep", [
    lambda fam: grid_scan(fam, (-1, 1, 0, 2), (41, 41), 2, (0, 1)),
    lambda fam: polar_sweep(fam, (0.0, 1.0), [0.1, 0.2], [0.0, 1.0], -2),
], ids=["grid", "polar"])
def test_bad_band_fails_before_any_eigensolve(family, monkeypatch, sweep):
    def no_work(*args):
        raise AssertionError("eigensolve called")

    monkeypatch.setattr("nhgeom.geometry.eigendecompose", no_work)
    with pytest.raises(ArgumentError, match="band must be one of -1, 0, \\+1"):
        sweep(family)


def test_points_name_the_coordinate_that_is_not_finite(family):
    with pytest.raises(ArgumentError, match="non-finite q2 in a stack of 2 parameter points"):
        family.matrices(np.zeros(2), np.array([0.0, math.inf]))


# The per-point fidelity that the stacked kernel replaced: two single-matrix
# eigendecompositions, the band continued by a sorted() rule, exceptions
# for every breakdown.
def reference_match(ref_sys, idx, disp_sys):
    ov = np.abs(ref_sys.lefts[idx] @ disp_sys.rights)
    w = disp_sys.energies
    ovmax = max(float(np.max(ov)), 1e-300)
    order = sorted(
        range(len(ov)),
        key=lambda j: (-round(ov[j] / ovmax, 10), abs(w[j].imag), -w[j].imag, j),
    )
    top, second = order[0], order[1] if len(order) > 1 else order[0]
    if (
        top != second
        and abs(ov[top] - ov[second]) <= 1e-9 * max(ov[top], 1e-300)
        and abs(abs(w[top].imag) - abs(w[second].imag)) <= 1e-12
        and abs(w[top].imag - w[second].imag) <= 1e-12
    ):
        raise BandAmbiguityError("indistinguishable continuation overlaps")
    return top


def reference_fidelity(family, band, p, d):
    p = as_point(p)
    sys1 = eigendecompose(family.matrix(p))
    idx = band_index(band, sys1.dim)
    if sys1.condition_flags[idx]:
        raise NormalizationBreakdownError("band flagged at the reference point")
    if d.magnitude == 0.0:
        return 1.0 + 0.0j
    sys2 = eigendecompose(family.matrix(d.applied_to(p)))
    j = reference_match(sys1, idx, sys2)
    if sys2.condition_flags[j]:
        raise NormalizationBreakdownError("band flagged at the displaced point")
    return complex((sys2.lefts[j] @ sys1.rights[:, idx]) * (sys1.lefts[idx] @ sys2.rights[:, j]))


STATUS_OF = {NormalizationBreakdownError: "ep_breakdown", BandAmbiguityError: "band_ambiguous"}


def reference_outcome(family, band, p, d):
    """("ok", value bits) or (status, None) of the reference fidelity."""
    try:
        value = reference_fidelity(family, band, p, d)
    except tuple(STATUS_OF) as err:
        return STATUS_OF[type(err)], None
    return "ok", (value.real.hex(), value.imag.hex())


def fidelity_cases():
    """(band, start point, Displacement) near the Dirac EP and the exceptional line.

    Band 0 coalesces at both.  Each step both leaves the point and arrives
    at it, along the axes, both ways, and obliquely.
    """
    centres = [(q1, float(reference_line_q2(q1))) for q1 in (-0.3, -0.15, 0.45)]
    cases = []
    for q1, q2 in centres + [(0.0, 1.0)]:
        for offset in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            point = (q1, q2 + offset)
            for n in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8)):
                for step in (0.0, 1e-9, 1e-6, 1e-3, 0.05):
                    d = Displacement(n, step)
                    arriving = (point[0] - step * n[0], point[1] - step * n[1])
                    cases += [(0, point, d), (0, arriving, d)]
    return cases


class TestStackedFidelityReference:
    def test_fidelity_matches_per_point_reference(self, family):
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for band, p, d in fidelity_cases():
                want = reference_outcome(family, band, p, d)
                try:
                    f = fidelity(family, band, p, d)
                    got = "ok", (f.value.real.hex(), f.value.imag.hex())
                except tuple(STATUS_OF) as err:
                    got = STATUS_OF[type(err)], None
                assert got == want, (band, p, d)
                seen.add(got[0])
        assert seen == {"ok", "ep_breakdown", "band_ambiguous"}

    def test_straddle_matches_per_point_reference(self, family):
        # Every upward step of the grid, one straddle call per (band,
        # delta, q1).  None of them is ambiguous: on this grid only steps
        # along q1 onto the exceptional line are.
        ladders = {}
        for band, p, d in fidelity_cases():
            if d.direction == (0.0, 1.0) and d.magnitude > 0:
                ladders.setdefault((band, d.magnitude), []).append(as_point(p))
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (band, delta), points in ladders.items():
                for q1 in {p.q1 for p in points}:
                    q2s = [p.q2 for p in points if p.q1 == q1]
                    cells = straddle_fidelity(family, band, q2s, delta, q1=q1)
                    for cell, q2 in zip(cells, q2s):
                        value = None if cell.value is None else (
                            cell.value.real.hex(), cell.value.imag.hex())
                        d = Displacement((0.0, 1.0), delta)
                        assert (cell.status, value) == reference_outcome(
                            family, band, (q1, q2), d), (band, q1, q2, delta)
                        assert cell.coords == (q1, q2)
                        seen.add(cell.status)
        assert seen == {"ok", "ep_breakdown"}
