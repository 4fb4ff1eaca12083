import json
import math
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from nhgeom import (
    DimensionMismatchError,
    EPKind,
    HamiltonianFamily,
    NoDoubleEigenvalueError,
    NonFiniteError,
    NotDefectiveError,
    ParameterPoint,
    a_coefficient,
    classify_ep,
    find_ep_on_segment,
    jordan_chain,
    sqrt_coefficient,
)
from nhgeom import cli, jordan
from nhgeom.jordan import DIRAC_CHAIN_AMP_TOL, JordanChain
from nhgeom.spectral import EPLocation

from conftest import reference_double_root, reference_line_q2, segment_through, stacked

Q2_STAR = np.sqrt(17.0 / 8.0)


@pytest.fixture(scope="module")
def dirac_ep(family):
    return find_ep_on_segment(family, (0.0, 0.5), (0.0, 1.3))


@pytest.fixture(scope="module")
def conventional_ep(family):
    return find_ep_on_segment(family, (0.0, 1.2), (0.0, 1.7))


@pytest.fixture(scope="module")
def dirac_chain(family):
    return jordan_chain(family.matrix((0.0, 1.0)), 3.0)


class TestJordanChain:
    def test_dirac_chain_vectors(self, dirac_chain):
        # hand row-reduction of (H(0,1) - 3): psi0 = e3, chi = (3/4, 1/2, 0),
        # phi0 prop. to e1
        assert np.allclose(dirac_chain.psi0, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(dirac_chain.chi, [0.75, 0.5, 0.0], atol=1e-12)
        assert abs(dirac_chain.phi0[0]) > 1.0
        assert np.allclose(dirac_chain.phi0[1:], 0.0, atol=1e-12)

    def test_dirac_chain_closed_form(self, dirac_chain):
        # A = H(0,1) - 3 has rows (0, 0, 0), (2, -3, 0), (0, 2, 0).  Right:
        # psi0 = e3 and the minimum-norm chi solves 2x - 3y = 0, 2y = 1.
        # Left: phi0 ~ e1, and eta A = phi0 gives eta ~ (0, 1/2, 3/4); the
        # gauge <eta|psi0> = 1 scales both by 4/3.
        expected = {
            "psi0": [0, 0, 1],
            "chi": [3 / 4, 1 / 2, 0],
            "phi0": [4 / 3, 0, 0],
            "eta": [0, 2 / 3, 1],
        }
        for name, vector in expected.items():
            assert np.abs(getattr(dirac_chain, name) - vector).max() <= 1e-14, name

    def test_one_svd_and_no_lstsq(self, family, monkeypatch):
        calls = Counter()
        for name in ("svd", "lstsq"):
            inner = getattr(np.linalg, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        jordan_chain(family.matrix((0.0, 1.0)), 3.0)
        assert calls == {"svd": 1}

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            jordan_chain(np.zeros((2, 3, 3)), 0.0)

    def test_rejects_a_non_finite_matrix(self, family):
        h = family.matrix((0.0, 1.0))
        h[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            jordan_chain(h, 3.0)

    def test_dirac_chain_residuals(self, dirac_chain):
        assert max(dirac_chain.residuals) <= 1e-9

    def test_gauge_eta_psi0(self, dirac_chain):
        assert complex(dirac_chain.eta @ dirac_chain.psi0) == pytest.approx(1.0)

    def test_self_orthogonality(self, dirac_chain):
        assert abs(dirac_chain.phi0 @ dirac_chain.psi0) <= 1e-9

    def test_conventional_chain(self, family, conventional_ep):
        chain = jordan_chain(
            family.matrix(conventional_ep.point), conventional_ep.coalesced_energy
        )
        assert max(chain.residuals) <= 1e-9
        assert abs(chain.phi0 @ chain.psi0) <= 1e-9

    def test_diagonalizable_degeneracy(self):
        with pytest.raises(NotDefectiveError):
            jordan_chain(np.diag([3.0, 3.0, 0.0]), 3.0)

    def test_no_numerical_kernel(self):
        # Two eigenvalues within DOUBLE_EV_TOL of E, but A = H - E has full
        # numerical rank: singular values 3, 5e-8, 5e-8 against 1e-8 * 3.
        with pytest.raises(NotDefectiveError, match="no numerical kernel"):
            jordan_chain(np.diag([3.0, 3.0 + 1e-7, 0.0]), 3.0 + 5e-8)

    def test_no_double_eigenvalue(self, family):
        with pytest.raises(NoDoubleEigenvalueError):
            jordan_chain(family.matrix((0.0, 0.5)), 3.0)

    def test_gauge_covariance(self, family, dirac_chain):
        # psi0 -> c psi0 (chi -> c chi): raw A scales by c; A / <eta|psi0>
        # is invariant
        c = 0.7 - 1.3j
        scaled = JordanChain(
            energy=dirac_chain.energy,
            psi0=c * dirac_chain.psi0,
            chi=c * dirac_chain.chi,
            phi0=dirac_chain.phi0,
            eta=dirac_chain.eta,
            residuals=dirac_chain.residuals,
        )
        # use the conventional EP's dH to get a nonzero element at (0,1)?
        # no: all dH annihilate the Dirac pair, so use a generic matrix
        dh = np.arange(9.0).reshape(3, 3)
        a0 = a_coefficient(dirac_chain, dh)
        a1 = a_coefficient(scaled, dh)
        assert a1 == pytest.approx(c * a0, rel=1e-12)
        r0 = a0 / complex(dirac_chain.eta @ dirac_chain.psi0)
        r1 = a1 / complex(scaled.eta @ scaled.psi0)
        assert abs(r0 - r1) <= 1e-10


class TestACoefficient:
    def test_vanishes_at_dirac_ep(self, family, dirac_chain):
        dq1, dq2 = family.gradient((0.0, 1.0))
        assert abs(a_coefficient(dirac_chain, dq1)) <= 1e-10
        assert abs(a_coefficient(dirac_chain, dq2)) <= 1e-10

    def test_nonzero_at_conventional_ep(self, family, conventional_ep):
        chain = jordan_chain(
            family.matrix(conventional_ep.point), conventional_ep.coalesced_energy
        )
        _, dq2 = family.gradient(conventional_ep.point)
        a_val = a_coefficient(chain, dq2)
        assert abs(a_val) > 1e-3
        # Puiseux oracle: splitting(r) ~ |2 sqrt(A r)| along q2
        r = 1e-5
        w = np.linalg.eigvals(family.matrix((0.0, conventional_ep.point.q2 + r)))
        idx = np.argsort(np.abs(w - conventional_ep.coalesced_energy))[:2]
        split = abs(w[idx[0]] - w[idx[1]])
        assert split == pytest.approx(abs(2 * np.sqrt(a_val * r)), rel=5e-2)

    def test_dimension_mismatch(self, dirac_chain):
        with pytest.raises(DimensionMismatchError):
            a_coefficient(dirac_chain, np.zeros((2, 2)))


class TestSqrtCoefficient:
    def test_dirac_linear_dispersion(self, family, dirac_ep):
        diag = sqrt_coefficient(family, dirac_ep, np.pi / 2)
        assert diag.normalized_sqrt_amplitude <= 1e-6
        assert diag.splitting_fit[0] > 0.0

    def test_conventional_sqrt_dispersion(self, family, conventional_ep):
        diag = sqrt_coefficient(family, conventional_ep, np.pi / 2)
        assert diag.normalized_sqrt_amplitude > 1e-2
        # fitted amplitude consistent with the predicted 2 sqrt(A)
        assert diag.splitting_fit[1] == pytest.approx(
            abs(diag.sqrt_coefficient), rel=1e-3
        )

    def test_one_fit_per_direction(self, family, conventional_ep, monkeypatch):
        fits = []
        inner = np.linalg.lstsq

        def recorded(design, values, **kwargs):
            fits.append(values)
            return inner(design, values, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recorded)
        diag = sqrt_coefficient(family, conventional_ep, np.pi / 2)
        assert len(fits) == 1
        # The normalised amplitude is the fit of the splitting scaled by
        # its value at the largest radius.
        monkeypatch.undo()
        design = np.column_stack([np.array(jordan.FIT_RADII) ** p for p in jordan.FIT_POWERS])
        coef = np.linalg.lstsq(design, fits[0] / fits[0][0], rcond=None)[0]
        sqrt_amp = coef[jordan.FIT_POWERS.index(0.5)]
        assert diag.normalized_sqrt_amplitude == pytest.approx(abs(sqrt_amp), rel=1e-12)

    def test_dirac_cone_slope_q1(self, family, dirac_ep):
        # splitting along q1 is 4|q1| (eigenvalues 3 +/- 2 q1): check the
        # fitted slope against direct finite differences
        diag = sqrt_coefficient(family, dirac_ep, 0.0)
        r = 1e-3
        w = np.linalg.eigvals(family.matrix((r, 1.0)))
        idx = np.argsort(np.abs(w - 3.0))[:2]
        fd_slope = abs(w[idx[0]] - w[idx[1]]) / r
        assert diag.splitting_fit[0] == pytest.approx(fd_slope, rel=1e-2)
        assert fd_slope == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("n_angles", [4, 8, 13])
    def test_jordan_command_builds_one_chain_for_its_diagnostics(
        self, family, tmp_path, monkeypatch, n_angles
    ):
        calls = Counter()
        stacks = []

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "eigvals":
                    stacks.append(np.shape(args[0])[:-2])
                return inner(*args, **kwargs)
            return wrapper

        chain = counted("jordan_chain", jordan.jordan_chain)
        monkeypatch.setattr(jordan, "jordan_chain", chain)
        monkeypatch.setattr(cli, "jordan_chain", chain)
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
        out = tmp_path / "chain.json"
        result = CliRunner().invoke(cli.main, [
            "jordan", "--point", "0,1", "--n-angles", str(n_angles), "--out", str(out),
        ])
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        # One chain for the command's record, its diagnostics and its kind.
        assert calls["jordan_chain"] == 1
        # One eigvals over every radius and angle of the ladders, one fit.
        assert stacks.count((len(jordan.FIT_RADII) * n_angles,)) == 1
        assert calls["lstsq"] == 1
        record = json.loads(out.read_text())
        ep = EPLocation(point=ParameterPoint(0.0, 1.0), coalesced_energy=complex(*record["energy"]),
                        gap=0.0, defect_measure=0.0)
        assert len(record["dispersion"]) == n_angles
        for k, row in enumerate(record["dispersion"]):
            diag = sqrt_coefficient(family, ep, 2 * math.pi * k / n_angles)
            assert row["angle"] == diag.angle
            assert complex(*row["a_coefficient"]) == diag.a_coefficient
            assert complex(*row["sqrt_coefficient"]) == diag.sqrt_coefficient
            assert row["linear_slope"] == diag.splitting_fit[0]
            assert row["sqrt_amplitude"] == diag.splitting_fit[1]
            assert row["normalized_sqrt_amplitude"] == diag.normalized_sqrt_amplitude


class TestClassifyEP:
    def test_dirac(self, family, dirac_ep):
        assert classify_ep(family, dirac_ep) is EPKind.DIRAC

    def test_conventional(self, family, conventional_ep):
        assert classify_ep(family, conventional_ep) is EPKind.CONVENTIONAL

    def test_pseudo_ep_not_defective(self, family):
        # A diagonalizable double level; the gradient is NV's on purpose and
        # does not match the builder.
        pseudo = HamiltonianFamily(
            name="pseudo",
            dimension=3,
            builder=lambda p: stacked([[3, 0, 0], [0, 3, 0], [0, 0, 0]], p),
            gradient=family.gradient,
        )
        ep = EPLocation(
            point=ParameterPoint(0.0, 1.0),
            coalesced_energy=3.0 + 0.0j,
            gap=0.0,
            defect_measure=0.0,
        )
        with pytest.raises(NotDefectiveError):
            classify_ep(pseudo, ep)


def chain_amplitudes(h, energy, gradient):
    """|<phi0|dH_i|psi0>| / (||phi0|| ||psi0|| ||dH_i||) for each dH_i.

    psi0 and phi0 are the right and left singular vectors of H - E for its
    smallest singular value (unit vectors), not `jordan_chain`'s.
    """
    u, _, vh = np.linalg.svd(np.asarray(h) - energy * np.eye(len(h)))
    psi0, phi0 = vh[-1].conj(), u[:, -1].conj()
    return [abs(phi0 @ d @ psi0) / np.linalg.norm(d) for d in gradient]


class TestChainAmplitudeClassifier:
    def test_margins_at_located_dirac_eps_and_reference_crossings(self, family, rng):
        dirac_amps = []
        for _ in range(50):
            segment = segment_through(
                (0.0, 1.0), rng.uniform(0.0, 2 * math.pi), *rng.uniform(0.15, 0.3, 2)
            )
            ep = find_ep_on_segment(family, *segment)
            dirac_amps += chain_amplitudes(
                family.matrix(ep.point), ep.coalesced_energy, family.gradient(ep.point)
            )
            assert classify_ep(family, ep) is EPKind.DIRAC
        crossing_amps = []
        for q1 in rng.uniform(-0.9, 0.9, 50):
            q2 = reference_line_q2(q1)
            point = ParameterPoint(float(q1), float(q2))
            energy = complex(reference_double_root(q1, q2))
            crossing_amps.append(max(
                chain_amplitudes(family.matrix(point), energy, family.gradient(point))
            ))
            ep = EPLocation(point=point, coalesced_energy=energy, gap=0.0, defect_measure=0.0)
            assert classify_ep(family, ep) is EPKind.CONVENTIONAL
        assert max(dirac_amps) <= 1e-12 < DIRAC_CHAIN_AMP_TOL
        assert min(crossing_amps) >= 0.1 > DIRAC_CHAIN_AMP_TOL

    def test_one_chain_and_no_splitting_fit(
        self, family, dirac_ep, conventional_ep, monkeypatch
    ):
        calls = Counter()

        def counted(name):
            inner = getattr(jordan, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("jordan_chain", "sqrt_coefficient"):
            monkeypatch.setattr(jordan, name, counted(name))
        for ep in (dirac_ep, conventional_ep):
            calls.clear()
            classify_ep(family, ep)
            assert calls == {"jordan_chain": 1}

    def test_broken_ring_decides_when_both_amplitudes_vanish(self):
        # H = [[0, 1], [-(q1^2 + q2^2), 0]]: both derivatives vanish at the
        # origin, a Jordan block, but the eigenvalues +/- i r are complex on
        # every ring around it.
        cone = HamiltonianFamily(
            name="imaginary-cone",
            dimension=2,
            builder=lambda p: stacked([[0, 1], [-(p.q1 ** 2 + p.q2 ** 2), 0]], p),
            gradient=lambda p: (
                stacked([[0, 0], [-2 * p.q1, 0]], p),
                stacked([[0, 0], [-2 * p.q2, 0]], p),
            ),
        )
        ep = EPLocation(point=ParameterPoint(0.0, 0.0), coalesced_energy=0j,
                        gap=0.0, defect_measure=0.0)
        assert not np.any(cone.gradient(ep.point))
        assert classify_ep(cone, ep) is EPKind.CONVENTIONAL

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_amplitude_decides_inside_an_unbroken_ring(self, eps):
        # Eigenvalues +/- sqrt(2 q1^2 + q2^2 + eps q1): the exceptional line
        # is an ellipse of width eps / 2 through the origin, so the ring
        # at NEIGHBOR_RADIUS lies wholly in the unbroken phase, but the
        # chain amplitude along q1 is eps / sqrt(2 + eps^2).
        ellipse = HamiltonianFamily(
            name="small-ellipse",
            dimension=2,
            builder=lambda p: stacked(
                [[p.q1, 1], [p.q1 ** 2 + p.q2 ** 2 + eps * p.q1, -p.q1]], p
            ),
            gradient=lambda p: (
                stacked([[1, 0], [eps + 2 * p.q1, -1]], p),
                stacked([[0, 0], [2 * p.q2, 0]], p),
            ),
        )
        ep = EPLocation(point=ParameterPoint(0.0, 0.0), coalesced_energy=0j,
                        gap=0.0, defect_measure=0.0)
        dq1, _ = ellipse.gradient(ep.point)
        [amp] = chain_amplitudes(ellipse.matrix(ep.point), 0.0, [dq1])
        assert amp == pytest.approx(eps / math.sqrt(2 + eps ** 2), rel=1e-12)
        ring = [
            np.linalg.eigvals(ellipse.matrix((1e-2 * math.cos(t), 1e-2 * math.sin(t))))
            for t in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
        ]
        assert np.max(np.abs(np.imag(ring))) <= 1e-12
        assert classify_ep(ellipse, ep) is EPKind.CONVENTIONAL
