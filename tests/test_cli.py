import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhgeom import (
    BandAmbiguityError,
    Displacement,
    HamiltonianFamily,
    NormalizationBreakdownError,
    NotDefectiveError,
    eigendecompose,
    fidelity,
    susceptibility,
)
from nhgeom import cli
from nhgeom.cli import float_cells, main, write_rows
from nhgeom.geometry import band_index

import exact
from conftest import imaginary_detuning_family, numpy_eigensolve, pt_dimer

SRC = Path(__file__).resolve().parent.parent / "src"

Q2_STAR = math.sqrt(17.0 / 8.0)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_bytes(header, rows):
    """The table as csv.writer writes it, the header first."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def json_bytes(header, rows):
    """The table as a JSON list of records, one per row."""
    return (json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n").encode()


TRICKY = ["", ",", '"', "\r", "\n", "\r\n", 'a,"b"', " x ", "None", "nan", "{}", "{0}"]
FIELD = st.one_of(
    st.none(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from(TRICKY),
    st.text(st.sampled_from(list('ab ,"\r\n{}')), max_size=6),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
)
NAME = st.one_of(st.sampled_from(TRICKY), st.text(st.sampled_from(list('q1 ,"\n')), max_size=4))


@st.composite
def tables(draw):
    """(header, rows) of 1 to 4 columns and 0 to 6 rows."""
    k = draw(st.integers(1, 4))
    header = draw(st.lists(NAME, min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(FIELD, min_size=k, max_size=k), max_size=6))
    return header, rows


class TestWriteRows:
    """write_rows against csv.writer and the JSON records form, as oracles."""

    @settings(max_examples=300, deadline=None)
    @given(tables())
    @example((["q1"], [[""], ["x"], [None]]))  # a lone empty field is written ""
    @example((["q1", "q2"], []))  # the header alone
    @example(([""], []))
    @example((["a", "b"], [["", None], [-0.0, math.nan]]))
    def test_bytes_match_the_oracles(self, table):
        header, rows = table
        columns = [[row[i] for row in rows] for i in range(len(header))]
        with tempfile.TemporaryDirectory() as tmp:
            for fmt, want in (("csv", csv_bytes), ("json", json_bytes)):
                out = Path(tmp) / f"table.{fmt}"
                fields = write_rows(str(out), fmt, header, columns, time.monotonic())
                assert out.read_bytes() == want(header, rows)
                assert fields["rows"] == len(rows)
                assert fields["write_s"] >= 0.0

    def test_unequal_columns_raise(self, tmp_path):
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError):
                write_rows(str(tmp_path / "t"), fmt, ["a", "b"], [[1, 2], [3]], 0.0)


SIGNED_NAN = math.copysign(math.nan, -1.0)
MAGNITUDE = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, 5e-324, 1.5e-310, 0.1, 1.0]),  # two subnormals
    st.floats(),
)


@st.composite
def float_runs(draw):
    """0 to 50 floats in runs of one magnitude, each member of either sign."""
    values = []
    for magnitude, length in draw(st.lists(st.tuples(MAGNITUDE, st.integers(1, 4)),
                                           max_size=50)):
        values += [math.copysign(magnitude, draw(st.sampled_from([1.0, -1.0])))
                   for _ in range(length)]
    return np.array(values[:50], dtype=float)


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(float_runs())
    @example(np.array([SIGNED_NAN, math.nan, SIGNED_NAN]))  # repr gives "nan" for both signs
    @example(np.array([-0.0, 0.0, -0.0, -math.inf, math.inf, -5e-324, 5e-324]))
    def test_equals_repr_of_each_value(self, values):
        assert float_cells(values).tolist() == list(map(repr, values.tolist()))


# Four real levels 4 + q1 > 1 > -1 + q2 > -3 on the box -0.5,0.5,0,0.5.
FOUR_LEVEL = HamiltonianFamily.affine(
    "four-level",
    [[4, 0.1, 0, 0], [0.1, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]],
    np.diag([1, 0, 0, 0]),
    np.diag([0, 0, 1, 0]),
)


class TestSpectrumScan:
    def test_row_count_and_schema(self, runner, tmp_path):
        out = tmp_path / "spec.csv"
        run_ok(runner, [
            "spectrum-scan", "--box", "-2,2,0,2", "--resolution", "9,9",
            "--out", str(out),
        ])
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "band", "re_energy", "im_energy", "phase"]
        assert len(rows) == 9 * 9 * 3
        assert {r[2] for r in rows} == {"-1", "0", "1"}

    def test_axis_reality_below_dirac_ep(self, runner, tmp_path):
        out = tmp_path / "axis.csv"
        run_ok(runner, [
            "spectrum-scan", "--box", "0,0,0,0.99", "--resolution", "1,25",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        for r in rows:
            assert abs(float(r[4])) <= 1e-8

    def test_hermitian_line_unbroken(self, runner, tmp_path):
        out = tmp_path / "herm.csv"
        run_ok(runner, [
            "spectrum-scan", "--box", "-1,1,0,0", "--resolution", "2,2",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        assert all(r[5] == "unbroken" for r in rows)

    def test_invalid_resolution_exits_2(self, runner, tmp_path):
        out = tmp_path / "never.csv"
        result = runner.invoke(main, [
            "spectrum-scan", "--resolution", "0,5", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert not out.exists()

    def test_band_labels_follow_band_index(self, runner, tmp_path, monkeypatch):
        # The row labelled b holds the slot band_index(b, 4) picks.
        monkeypatch.setattr(cli, "get_family", lambda name: FOUR_LEVEL)
        out = tmp_path / "spec.csv"
        run_ok(runner, [
            "spectrum-scan", "--box", "-0.5,0.5,0,0.5", "--resolution", "2,2",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        assert len(rows) == 2 * 2 * 4
        assert {r[2] for r in rows} == {"2", "1", "0", "-1"}
        for r in rows:
            w = numpy_eigensolve(FOUR_LEVEL.matrix((float(r[0]), float(r[1]))))
            slots = sorted(w.real, reverse=True)
            assert float(r[3]) == slots[band_index(int(r[2]), 4)]


SPECTRUM_HEADER = ["q1", "q2", "band", "re_energy", "im_energy", "phase"]


def reference_spectrum_rows(family, q1s, q2s, phases):
    """spectrum-scan rows built point by point: one eigvals per cell, by
    the real-driver rule, and the (Re desc, Im desc) band sort key.  The
    phase column is taken from `phases`, one label per cell in row order;
    `check_phases` judges it."""
    rows = []
    cells = iter(phases)
    for q2 in q2s:
        for q1 in q1s:
            w = numpy_eigensolve(family.matrix((q1, q2)))
            label = next(cells)
            order = sorted(range(len(w)), key=lambda k: (-w[k].real, -w[k].imag))
            for slot, k in enumerate(order):
                rows.append([repr(float(q1)), repr(float(q2)), str(1 - slot),
                             repr(float(w[k].real)), repr(float(w[k].imag)), label])
    return rows


def check_phases(rows, imaginary_detuning=False):
    """Each cell's phase (rows come three per cell) equals the exact label
    at its float point, or is near_ep where the exact |disc| is under the
    oracle's ceiling.  Returns the labels, one per cell."""
    labels = []
    for row in rows[::3]:
        q1, q2, got = float(row[0]), float(row[1]), row[5]
        want = exact.label(q1, q2, imaginary_detuning)
        if got != want:
            assert got == "near_ep" and exact.near_ep_allowed(q1, q2, imaginary_detuning), (
                q1, q2, got, want)
        labels.append(got)
    return labels


def edge_values():
    """q2 values on q1 = 0 at and around both EPs: the Dirac EP q2 = 1,
    where the exact discriminant touches zero, and the adjacent floats
    where its exact sign changes by the conventional EP, each with a few
    ulps out."""
    values = []
    for a, b in ((1.0, 1.0), exact.sign_edge(0.0, Q2_STAR - 1e-3, Q2_STAR + 1e-3)):
        for _ in range(3):
            values += [a, b]
            a, b = math.nextafter(a, -math.inf), math.nextafter(b, math.inf)
    return values


EDGE_Q2 = edge_values()


class TestSpectrumScanReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, -0.0, 1e-9]), st.floats(-2.0, 2.0)),
        st.floats(-2.0, 2.0),
        st.one_of(st.sampled_from(EDGE_Q2), st.floats(0.0, 2.0)),
        st.one_of(st.sampled_from(EDGE_Q2), st.floats(0.0, 2.0)),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_rows_match_pointwise_reference(self, family, q1a, q1b, q2a, q2b, nx, ny):
        # With resolution 2 the box edges are the cells' coordinates, so a
        # sampled edge value puts a cell exactly at or next to an EP.
        box = ",".join(repr(float(v)) for v in (q1a, q1b, q2a, q2b))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "spec.csv"
            run_ok(CliRunner(), [
                "spectrum-scan", "--box", box, "--resolution", f"{nx},{ny}",
                "--out", str(out),
            ])
            got = out.read_bytes()
            _, rows = read_csv(out)
        want = reference_spectrum_rows(
            family, np.linspace(q1a, q1b, nx), np.linspace(q2a, q2b, ny), check_phases(rows)
        )
        assert got == csv_bytes(SPECTRUM_HEADER, want)

    def test_large_grid_matches_pointwise_reference(self, family, tmp_path):
        # Both phases and the Dirac EP (0, 1): long runs of 0.0 in
        # im_energy, exact conjugate pairs and negative energies.
        out = tmp_path / "spec.csv"
        run_ok(CliRunner(), [
            "spectrum-scan", "--box", "-1.5,1.5,0.5,2", "--resolution", "31,31",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        labels = check_phases(rows)
        assert {"unbroken", "broken"} <= set(labels)
        want = reference_spectrum_rows(
            family, np.linspace(-1.5, 1.5, 31), np.linspace(0.5, 2, 31), labels
        )
        assert out.read_bytes() == csv_bytes(SPECTRUM_HEADER, want)

    def test_json_matches_pointwise_reference(self, family, tmp_path):
        # The box puts one cell on each phase, (0, 1) on the Dirac EP.
        out = tmp_path / "spec.json"
        run_ok(CliRunner(), [
            "spectrum-scan", "--box", "-1,1,0.5,2", "--resolution", "3,7",
            "--format", "json", "--out", str(out),
        ])
        records = json.loads(out.read_text())
        labels = check_phases([[r["q1"], r["q2"], 0, 0, 0, r["phase"]] for r in records])
        assert set(labels) == {"unbroken", "broken", "near_ep"}
        want = reference_spectrum_rows(
            family, np.linspace(-1, 1, 3), np.linspace(0.5, 2, 7), labels
        )
        for row in want:
            row[2] = int(row[2])  # JSON keeps the band an integer
        assert out.read_bytes() == json_bytes(SPECTRUM_HEADER, want)

    def test_edges_are_on_both_sides_of_each_threshold(self):
        labels = [exact.label(0.0, q2) for q2 in EDGE_Q2]
        assert labels[:2] == ["near_ep", "near_ep"]  # q2 = 1.0 exactly
        assert set(labels[2:6]) == {"unbroken"}
        assert labels[6:] == ["unbroken", "broken"] * 3

    def test_family_real_on_one_line_matches_pointwise_reference(self, tmp_path, monkeypatch):
        # Real on q1 = 0 and complex off it: every cell is solved by the
        # driver its own matrix picks, whatever the rest of the grid is.
        family = imaginary_detuning_family()
        monkeypatch.setattr(cli, "get_family", lambda name: family)
        out = tmp_path / "spec.csv"
        run_ok(CliRunner(), [
            "spectrum-scan", "--box", "-0.5,0.5,0.1,1.9", "--resolution", "5,8",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        want = reference_spectrum_rows(family, np.linspace(-0.5, 0.5, 5),
                                       np.linspace(0.1, 1.9, 8), check_phases(rows, True))
        assert out.read_bytes() == csv_bytes(SPECTRUM_HEADER, want)

    def test_manifest_counts_cells_per_phase(self, tmp_path):
        out = tmp_path / "spec.csv"
        run_ok(CliRunner(), [
            "spectrum-scan", "--box", "-1,1,0.5,2", "--resolution", "3,7", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        _, rows = read_csv(out)
        assert manifest["phase"] == dict(Counter(r[5] for r in rows[::3]))
        assert sum(manifest["phase"].values()) == 3 * 7


class TestBrokenPairOrder:
    """In the PT-broken phase the NV matrix, which is real, has one real
    level above a complex pair.  The real driver returns the pair as exact
    conjugates, so band 0 is its +Im member at every point, and the labels
    at (q1, q2) and (-q1, q2), whose spectra are equal, name the same
    member."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.3, 0.3), st.floats(1.5, 2.0))
    def test_pair_is_exact_and_plus_im_first(self, family, q1, q2):
        energies = eigendecompose(family.matrices([q1, -q1], [q2, q2])).energies
        assert (energies[:, 1] == energies[:, 2].conj()).all()
        assert (energies[:, 1].imag > 0).all()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "spec.csv"
            run_ok(CliRunner(), [
                "spectrum-scan", "--box", f"{q1!r},{-q1!r},{q2!r},{q2!r}",
                "--resolution", "2,1", "--out", str(out),
            ])
            _, rows = read_csv(out)
        assert [r[2] for r in rows] == ["1", "0", "-1"] * 2
        for upper, lower in (rows[1:3], rows[4:6]):
            assert upper[3] == lower[3] and upper[4] == repr(-float(lower[4]))
            assert float(upper[4]) > 0 and upper[5] == lower[5] == "broken"

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.3, 0.3), st.floats(1.5, 2.0))
    def test_im_chi_sign_is_even_in_q1(self, family, q1, q2):
        # Band +1 is real and its Im chi is round-off, so it is left out.
        # A sign is compared where both values exceed their error bars.
        for band in (0, -1):
            here, mirror = (susceptibility(family, band, (x, q2), (0.0, 1.0)) for x in (q1, -q1))
            if min(abs(here.value.imag), abs(mirror.value.imag)) > max(
                    here.error_estimate, mirror.error_estimate):
                assert np.sign(here.value.imag) == np.sign(mirror.value.imag)


class TestChiScan:
    def test_worker_determinism(self, runner, tmp_path):
        args = ["chi-scan", "--box", "-0.4,0.4,0.6,1.4", "--resolution", "4,4"]
        out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        run_ok(runner, args + ["--workers", "1", "--out", str(out1)])
        run_ok(runner, args + ["--workers", "8", "--out", str(out8)])
        assert out1.read_bytes() == out8.read_bytes()

    def test_ep_cell_has_empty_values(self, runner, tmp_path):
        out = tmp_path / "ep.csv"
        run_ok(runner, [
            "chi-scan", "--box", "-0.1,0.1,0.9,1.1", "--resolution", "3,3",
            "--out", str(out),
        ])
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "band", "re_chi", "im_chi", "error_estimate", "status"]
        center = [r for r in rows if r[0] == "0.0" and r[1] == "1.0"]
        assert center == [["0.0", "1.0", "0", "", "", "", "ep_breakdown"]]
        ok_rows = [r for r in rows if r[6] == "ok"]
        assert ok_rows
        for r in ok_rows:
            float(r[3]), float(r[4])  # round-trippable numbers

    def test_json_format_nulls(self, runner, tmp_path):
        out = tmp_path / "ep.json"
        run_ok(runner, [
            "chi-scan", "--box", "-0.1,0.1,0.9,1.1", "--resolution", "3,3",
            "--format", "json", "--out", str(out),
        ])
        records = json.loads(out.read_text())
        center = [r for r in records if r["q1"] == "0.0" and r["q2"] == "1.0"]
        assert center[0]["status"] == "ep_breakdown"
        assert center[0]["re_chi"] is None

    def test_invalid_resolution_exits_2(self, runner, tmp_path):
        out = tmp_path / "never.csv"
        result = runner.invoke(main, ["chi-scan", "--resolution", "1,5", "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("family,band,code", [
        (FOUR_LEVEL, 2, 0), (FOUR_LEVEL, -2, 2), (pt_dimer(), -1, 2), (pt_dimer(), 1, 0),
    ], ids=["four-level-2", "four-level--2", "pt-dimer--1", "pt-dimer-1"])
    def test_band_is_checked_for_the_family(self, runner, tmp_path, monkeypatch,
                                            family, band, code):
        # --band takes exactly the labels band_index gives the family.
        monkeypatch.setattr(cli, "get_family", lambda name: family)
        out = tmp_path / "chi.csv"
        result = runner.invoke(main, [
            "chi-scan", "--box", "-0.5,0.5,0.1,0.5", "--resolution", "2,2",
            "--band", str(band), "--out", str(out),
        ])
        assert result.exit_code == code, result.output
        assert out.exists() == (code == 0)
        if code:
            assert "band must be one of" in result.output

    def test_linalg_error_exits_3(self, runner, tmp_path, monkeypatch):
        # A ValueError that is no ArgumentError is a computation failure.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "grid_scan", singular)
        out = tmp_path / "chi.csv"
        result = runner.invoke(main, ["chi-scan", "--resolution", "2,2", "--out", str(out)])
        assert result.exit_code == 3
        assert "computation failed: Singular matrix" in result.output
        assert not out.exists()


class TestLineCut:
    def test_divergence_near_dirac_ep(self, runner, tmp_path):
        out = tmp_path / "cut.csv"
        run_ok(runner, [
            "line-cut", "--q1", "0", "--q2-range", "0.5,0.975", "--n-points", "20",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        chis = [float(r[3]) for r in rows if r[6] == "ok"]
        assert len(chis) == 20
        assert chis[-1] < chis[0] < 0 or chis[-1] < 0 < chis[0]
        assert chis[-1] == min(chis)


class TestStraddle:
    def test_approaches_half(self, runner, tmp_path):
        out = tmp_path / "straddle.csv"
        q2 = Q2_STAR - 0.025
        run_ok(runner, [
            "straddle", "--q2-range", f"1.2,{q2}", "--n-points", "9",
            "--delta", "0.05", "--out", str(out),
        ])
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "delta", "band", "re_f", "im_f", "status"]
        last = rows[-1]
        assert last[6] == "ok"
        assert abs(float(last[4]) - 0.5) <= 0.02

    @pytest.mark.parametrize("delta", ["nan", "inf", "0", "-0.05"])
    def test_bad_delta_exits_2(self, runner, tmp_path, delta):
        out = tmp_path / "straddle.csv"
        result = runner.invoke(main, ["straddle", "--delta", delta, "--out", str(out)])
        assert result.exit_code == 2
        assert f"delta must be positive and finite, got {float(delta)}" in result.output
        assert not out.exists()


class TestPolar:
    def test_minima_at_vertical_angles(self, runner, tmp_path):
        out = tmp_path / "polar.csv"
        run_ok(runner, [
            "polar", "--center", "0,1", "--radii", "0.15", "--n-angles", "16",
            "--out", str(out),
        ])
        _, rows = read_csv(out)
        vals = {float(r[1]): float(r[3]) for r in rows if r[6] == "ok"}
        most_negative = sorted(sorted(vals, key=lambda k: vals[k])[:2])
        assert most_negative[0] == pytest.approx(math.pi / 2)
        assert most_negative[1] == pytest.approx(3 * math.pi / 2)

    def test_nonpositive_radius_exits_2(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        for radii in ("0.1,0", "-0.1", "nan"):
            result = runner.invoke(main, ["polar", "--radii", radii, "--out", str(out)])
            assert result.exit_code == 2
            assert "all radii must be positive" in result.output
            assert not out.exists()

    def test_empty_radii_exit_2(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["polar", "--radii", ",", "--out", str(out)])
        assert result.exit_code == 2
        assert "radii and angles must be nonempty" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("angles", ["", ",", " "])
    def test_empty_angles_exit_2(self, runner, tmp_path, angles, monkeypatch):
        # A usage error, found before any work, like an empty --radii.
        def no_work(*args):
            raise AssertionError("susceptibilities computed")

        monkeypatch.setattr("nhgeom.geometry._sum_over_states", no_work)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["polar", "--angles", angles, "--out", str(out)])
        assert result.exit_code == 2
        assert "radii and angles must be nonempty" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("angles", ["inf", "-inf", "nan", "0,nan"])
    def test_non_finite_angles_exit_2(self, runner, tmp_path, angles, monkeypatch):
        def no_work(*args):
            raise AssertionError("susceptibilities computed")

        monkeypatch.setattr("nhgeom.geometry._sum_over_states", no_work)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["polar", "--angles", angles, "--out", str(out)])
        assert result.exit_code == 2
        assert "all angles must be finite" in result.output
        assert not out.exists()


STATUS_OF = {NormalizationBreakdownError: "ep_breakdown", BandAmbiguityError: "band_ambiguous"}
CHI_FIELDS = ["band", "re_chi", "im_chi", "error_estimate", "status"]
STRADDLE_HEADER = ["q1", "q2", "delta", "band", "re_f", "im_f", "status"]
BANDS = st.sampled_from((-1, 0, 1))
# Offsets from the Dirac EP (0, 1) that put it inside a box or a range.
HALF_WIDTHS = st.floats(0.01, 1.0)


def csv_args(values):
    return ",".join(repr(float(v)) for v in values)


def reference_chi_rows(family, band, cells):
    """Chi sweep rows from one-point `susceptibility` calls, a raised
    status written as empty value fields.  `cells` holds (coords, point,
    direction) triples."""
    rows = []
    for coords, point, direction in cells:
        try:
            res = susceptibility(family, band, point, direction)
            fields = [repr(res.value.real), repr(res.value.imag), repr(res.error_estimate), "ok"]
        except tuple(STATUS_OF) as err:
            fields = [None, None, None, STATUS_OF[type(err)]]
        rows.append([repr(coords[0]), repr(coords[1]), band, *fields])
    return rows


def assert_cli_bytes(args, header, rows):
    """The command writes `rows` in CSV and in JSON, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, want in (("csv", csv_bytes), ("json", json_bytes)):
            out = Path(tmp) / f"out.{fmt}"
            run_ok(CliRunner(), [*args, "--format", fmt, "--out", str(out)])
            assert out.read_bytes() == want(header, rows), fmt


class TestChiSweepReference:
    """Chi sweep files against rows built point by point from the one-point
    `susceptibility` and `fidelity`."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                      st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
            st.tuples(HALF_WIDTHS, HALF_WIDTHS).map(
                lambda ab: (-ab[0], ab[0], 1.0 - ab[1], 1.0 + ab[1])),
        ),
        st.integers(2, 5),
        st.integers(2, 5),
        BANDS,
        st.floats(0.0, 2 * math.pi),
    )
    @example((-0.1, 0.1, 0.9, 1.1), 3, 3, 0, math.pi / 2)  # a cell on the Dirac EP
    def test_chi_scan(self, family, box, nx, ny, band, phi):
        direction = (math.cos(phi), math.sin(phi))
        cells = [((q1, q2), (q1, q2), direction)
                 for q2 in np.linspace(box[2], box[3], ny).tolist()
                 for q1 in np.linspace(box[0], box[1], nx).tolist()]
        assert_cli_bytes(
            ["chi-scan", "--box", csv_args(box), "--resolution", f"{nx},{ny}",
             "--direction", csv_args(direction), "--band", str(band)],
            ["q1", "q2", *CHI_FIELDS], reference_chi_rows(family, band, cells))

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5)),
        st.one_of(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
            HALF_WIDTHS.map(lambda b: (1.0 - b, 1.0 + b)),
        ),
        st.integers(2, 7),
        BANDS,
        st.floats(0.0, 2 * math.pi),
    )
    @example(0.0, (0.9, 1.1), 3, 0, math.pi / 2)
    def test_line_cut(self, family, q1, q2_range, n_points, band, phi):
        direction = (math.cos(phi), math.sin(phi))
        cells = [((q1, q2), (q1, q2), direction)
                 for q2 in np.linspace(*q2_range, n_points).tolist()]
        assert_cli_bytes(
            ["line-cut", "--q1", repr(q1), "--q2-range", csv_args(q2_range),
             "--n-points", str(n_points), "--direction", csv_args(direction),
             "--band", str(band)],
            ["q1", "q2", *CHI_FIELDS], reference_chi_rows(family, band, cells))

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(st.just((0.0, 1.0)),
                  st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0))),
        st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3),
        st.lists(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
                           st.floats(0.0, 2 * math.pi)), min_size=1, max_size=4),
        BANDS,
    )
    @example((0.0, 0.9), [0.1], [0.0, math.pi / 2], 0)  # a ring through the Dirac EP
    def test_polar(self, family, center, radii, angles, band):
        cells = [((r, phi), (center[0] + r * math.cos(phi), center[1] + r * math.sin(phi)),
                  (-math.cos(phi), -math.sin(phi)))
                 for r in radii for phi in angles]
        assert_cli_bytes(
            ["polar", "--center", csv_args(center), "--radii", csv_args(radii),
             "--angles", csv_args(angles), "--band", str(band)],
            ["r", "phi", *CHI_FIELDS], reference_chi_rows(family, band, cells))

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5)),
        st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        st.integers(1, 7),
        st.floats(1e-3, 0.3),
        BANDS,
    )
    @example(0.0, (1.0, 1.5), 6, 0.05, 0)  # from the Dirac EP across the exceptional line
    def test_straddle(self, family, q1, q2_range, n_points, delta, band):
        d = Displacement((0.0, 1.0), delta)
        rows = []
        for q2 in np.linspace(*q2_range, n_points).tolist():
            try:
                f = fidelity(family, band, (q1, q2), d)
                fields = [repr(f.value.real), repr(f.value.imag), "ok"]
            except tuple(STATUS_OF) as err:
                fields = [None, None, STATUS_OF[type(err)]]
            rows.append([repr(q1), repr(q2), repr(delta), band, *fields])
        assert_cli_bytes(
            ["straddle", "--q1", repr(q1), "--q2-range", csv_args(q2_range),
             "--n-points", str(n_points), "--delta", repr(delta), "--band", str(band)],
            STRADDLE_HEADER, rows)

    @pytest.mark.parametrize("args,ok,broken", [
        (["chi-scan", "--box", "-0.1,0.1,0.9,1.1", "--resolution", "3,3"], 8, 1),
        (["chi-scan", "--box", "-0.3,0.3,0.7,1.3", "--resolution", "5,5"], 24, 1),
        (["line-cut", "--q2-range", "0.9,1.1", "--n-points", "3"], 2, 1),
        (["polar", "--center", "0,0.9", "--radii", "0.1", "--angles", "0,1.5707963267948966"],
         1, 1),
        (["straddle", "--q2-range", "1,1.5", "--n-points", "6"], 5, 1),
    ])
    def test_examples_hold_breakdown_rows(self, runner, tmp_path, args, ok, broken):
        # The explicit examples above do reach the Dirac EP.
        out = tmp_path / "out.csv"
        run_ok(runner, args + ["--out", str(out)])
        _, rows = read_csv(out)
        assert [r[-1] for r in rows].count("ok") == ok
        assert [r[-1] for r in rows].count("ep_breakdown") == broken


class TestEpLocate:
    def test_dirac_json(self, runner, tmp_path):
        out = tmp_path / "dirac.json"
        run_ok(runner, [
            "ep-locate", "--segment", "0,0.5,0,1.3", "--format", "json",
            "--out", str(out),
        ])
        rec = json.loads(out.read_text())
        assert rec["kind"] == "Dirac"
        assert abs(rec["point"][0]) <= 1e-8
        assert abs(rec["point"][1] - 1.0) <= 1e-7
        assert abs(rec["energy"][0] - 3.0) <= 1e-8
        assert abs(rec["energy"][1]) <= 1e-8

    def test_conventional_csv(self, runner, tmp_path):
        out = tmp_path / "conv.csv"
        run_ok(runner, ["ep-locate", "--segment", "0,1.2,0,1.7", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "re_energy", "im_energy", "kind", "defect_measure"]
        assert rows[0][4] == "Conventional"
        assert abs(float(rows[0][1]) - Q2_STAR) <= 1e-6
        assert abs(float(rows[0][2]) - 1.5) <= 1e-6

    # |disc| at a located EP is round-off of det P: up to about
    # 4 eps ||H||_F^6 against 50-digit references, 1.5e-11 at (0, 1).
    @pytest.mark.parametrize("segment, fmt, gap_bound, disc_bound", [
        ("0,0.5,0,1.3", "json", 1e-7, 1e-11),
        ("0,1.2,0,1.7", "csv", 1e-6, 1e-10),
    ])
    def test_manifest_carries_accuracy_evidence(
        self, runner, tmp_path, segment, fmt, gap_bound, disc_bound
    ):
        out = tmp_path / f"ep.{fmt}"
        run_ok(runner, ["ep-locate", "--segment", segment, "--format", fmt, "--out", str(out)])
        manifest = json.loads((tmp_path / f"ep.{fmt}.manifest.json").read_text())
        assert 0.0 <= manifest["residual_gap"] <= gap_bound
        assert 0.0 <= manifest["discriminant"] <= disc_bound
        # The located point reads near_ep: |disc| is within 10 round-off bounds.
        assert 0.0 < manifest["discriminant_bound"] <= 1e-10
        assert manifest["discriminant"] <= 10 * manifest["discriminant_bound"]

    def test_no_ep_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, [
            "ep-locate", "--segment", "0,0.1,0,0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 3

    def test_classifier_failure_leaves_unclassified(self, runner, tmp_path, monkeypatch):
        def not_defective(family, ep):
            raise NotDefectiveError("diagonalizable")

        monkeypatch.setattr("nhgeom.cli.classify_ep", not_defective)
        out = tmp_path / "dirac.csv"
        run_ok(runner, ["ep-locate", "--segment", "0,0.5,0,1.3", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0][4] == "Unclassified"

    def test_classifier_bug_propagates(self, runner, tmp_path, monkeypatch):
        def broken(family, ep):
            raise TypeError("a programming error, not a numerical verdict")

        monkeypatch.setattr("nhgeom.cli.classify_ep", broken)
        with pytest.raises(TypeError):
            runner.invoke(main, [
                "ep-locate", "--segment", "0,0.5,0,1.3", "--out", str(tmp_path / "x.csv"),
            ], catch_exceptions=False)


class TestTraceLine:
    def test_traced_points_are_degenerate(self, runner, tmp_path):
        out = tmp_path / "line.csv"
        run_ok(runner, [
            "trace-line", "--segment", "0,1.2,0,1.7", "--step", "0.05",
            "--max-points", "6", "--out", str(out),
        ])
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "re_energy", "im_energy", "defect_measure"]
        assert len(rows) == 6
        for r in rows:
            assert float(r[4]) <= 1e-4

    def test_manifest_carries_accuracy_evidence(self, runner, tmp_path):
        out = tmp_path / "line.csv"
        run_ok(runner, ["trace-line", "--segment", "0,1.2,0,1.7", "--out", str(out)])
        manifest = json.loads((tmp_path / "line.csv.manifest.json").read_text())
        for key in ("residual_gap", "discriminant", "discriminant_bound"):
            assert math.isfinite(manifest[key]) and 0.0 <= manifest[key] <= 1e-4
        assert manifest["discriminant_bound"] > 0.0

    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-inf"])
    def test_bad_step_exits_2(self, runner, tmp_path, step):
        out = tmp_path / "line.csv"
        result = runner.invoke(main, [
            "trace-line", "--segment", "0,1.2,0,1.7", "--step", step, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert f"step must be finite and nonzero, got {float(step)}" in result.output
        assert not out.exists()

    def test_lost_track_exits_3(self, runner, tmp_path):
        # The segment's EP is the isolated Dirac point.
        out = tmp_path / "line.csv"
        result = runner.invoke(main, [
            "trace-line", "--segment", "0,0.5,0,1.3", "--out", str(out),
        ])
        assert result.exit_code == 3
        assert "no continuation direction found around the seed" in result.output
        assert not out.exists()


class TestJordanCommand:
    def test_dirac_point(self, runner, tmp_path):
        out = tmp_path / "jordan.json"
        run_ok(runner, ["jordan", "--point", "0,1", "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["kind"] == "Dirac"
        psi0 = np.array([complex(re, im) for re, im in rec["psi0"]])
        assert np.allclose(psi0, [0.0, 0.0, 1.0], atol=1e-10)
        assert max(rec["residuals"]) <= 1e-9
        assert len(rec["dispersion"]) == 8
        for d in rec["dispersion"]:
            assert d["normalized_sqrt_amplitude"] <= 1e-6

    def test_nondegenerate_point_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, [
            "jordan", "--point", "0,0.5", "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 3

    def test_nonfinite_point_exits_2(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["jordan", "--point", "nan,1", "--out", str(out)])
        assert result.exit_code == 2
        assert "non-finite parameter point" in result.output
        assert not out.exists()

    def test_real_energy_alone(self, runner, tmp_path):
        out = tmp_path / "jordan.json"
        run_ok(runner, ["jordan", "--point", "0,1", "--energy", "3", "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["energy"] == [3.0, 0.0]
        assert rec["kind"] == "Dirac"

    def test_energy_of_three_parts_exits_2(self, runner, tmp_path):
        out = tmp_path / "jordan.json"
        result = runner.invoke(main, [
            "jordan", "--point", "0,1", "--energy", "3,0,1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "--energy takes 're' or 're,im'" in result.output
        assert not out.exists()


class TestConfigAndManifest:
    def test_manifest_written(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        run_ok(runner, [
            "chi-scan", "--box", "0,0.4,0.4,0.6", "--resolution", "2,2",
            "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["tool"] == "nhgeom"
        assert manifest["subcommand"] == "chi-scan"
        assert manifest["rows"] == 4
        assert manifest["config"]["box"] == "0,0.4,0.4,0.6"

    def test_manifest_round_trip(self, runner, tmp_path):
        out1 = tmp_path / "a.csv"
        run_ok(runner, [
            "chi-scan", "--box", "-0.3,0.3,0.5,0.9", "--resolution", "3,2",
            "--direction", "1,0", "--band", "1", "--out", str(out1),
        ])
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(
            "".join(
                f"{k} = {v}\n"
                for k, v in manifest["config"].items()
                if k != "out"
            )
        )
        out2 = tmp_path / "b.csv"
        run_ok(runner, ["chi-scan", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(
            "box = 0,0.4,0.4,0.6\n"
            "resolution = 2,2\n"
            "band = 1  # flat key = value format\n"
        )
        out = tmp_path / "o.csv"
        run_ok(runner, ["chi-scan", "--config", str(cfg), "--band", "0", "--out", str(out)])
        _, rows = read_csv(out)
        assert {r[2] for r in rows} == {"0"}
        out2 = tmp_path / "o2.csv"
        run_ok(runner, ["chi-scan", "--config", str(cfg), "--out", str(out2)])
        _, rows2 = read_csv(out2)
        assert {r[2] for r in rows2} == {"1"}

    def test_config_supplies_required_out(self, runner, tmp_path):
        out = tmp_path / "from_cfg.csv"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {out}\nresolution = 2,2\n")
        run_ok(runner, ["spectrum-scan", "--config", str(cfg)])
        _, rows = read_csv(out)
        assert len(rows) == 2 * 2 * 3
        manifest = json.loads((tmp_path / "from_cfg.csv.manifest.json").read_text())
        assert manifest["config"]["out"] == str(out)
        assert "config" not in manifest["config"]

    @pytest.mark.parametrize("args", [
        ["spectrum-scan", "--resolution", "5,5"],
        ["chi-scan", "--resolution", "3,3", "--format", "json"],
        ["ep-locate", "--segment", "0,0.5,0,1.3", "--format", "json"],
        ["jordan", "--point", "0,1"],
    ])
    def test_manifest_times_the_writer(self, runner, tmp_path, args):
        out = tmp_path / "data"
        run_ok(runner, args + ["--out", str(out)])
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert 0.0 <= manifest["write_s"] <= manifest["wall_time_s"]

    @pytest.mark.parametrize("line", ["resolutoin = 3,3", "step-h = 0.001"])
    def test_unknown_config_key_exits_2(self, runner, tmp_path, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"box = 0,0.4,0.4,0.6\n{line}\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["chi-scan", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert f"key {line.split()[0].replace('-', '_')!r} names no option" in result.output
        assert not out.exists()

    def test_config_key_may_be_option_name(self, runner, tmp_path):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format = json\nresolution = 2,2\n")
        out = tmp_path / "spec.json"
        run_ok(runner, ["spectrum-scan", "--config", str(cfg), "--out", str(out)])
        assert len(json.loads(out.read_text())) == 2 * 2 * 3

    def test_unreadable_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "chi-scan", "--config", str(tmp_path / "missing.cfg"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2
        assert "cannot read config file" in result.output

    def test_manifest_records_versions_and_statuses(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        run_ok(runner, [
            "chi-scan", "--box", "-0.1,0.1,0.9,1.1", "--resolution", "3,3",
            "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["status"] == {"ok": 8, "ep_breakdown": 1}
        assert manifest["versions"]["numpy"] == np.__version__
        assert set(manifest["versions"]) == {"python", "numpy", "click"}
        out = tmp_path / "dirac.json"
        run_ok(runner, [
            "ep-locate", "--segment", "0,0.5,0,1.3", "--format", "json", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "dirac.json.manifest.json").read_text())
        assert "versions" in manifest and "status" not in manifest

    def test_unknown_model_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "chi-scan", "--model", "nope", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_unknown_model_in_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model = nope\n")
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["chi-scan", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert "nope" in result.output
        assert not out.exists()

    def test_config_skips_blank_and_comment_lines(self, runner, tmp_path):
        cfg = tmp_path / "spaced.cfg"
        cfg.write_text("\n# a comment-only line\n   \nresolution = 2,2\n")
        out = tmp_path / "spec.csv"
        run_ok(runner, ["spectrum-scan", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out)
        assert len(rows) == 2 * 2 * 3

    def test_config_line_without_equals_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("resolution = 2,2\nbox 0,1,0,1\n")
        out = tmp_path / "spec.csv"
        result = runner.invoke(main, ["spectrum-scan", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert f"{cfg}:2: expected 'key = value', got 'box 0,1,0,1'" in result.output
        assert not out.exists()


# One run of each sweep through the Dirac EP (0, 1), so that each table
# has an ep_breakdown cell.
SWEEPS_THROUGH_DIRAC = [
    ["chi-scan", "--box", "-0.1,0.1,0.9,1.1", "--resolution", "3,3"],
    ["line-cut", "--q2-range", "0.9,1.1", "--n-points", "3"],
    ["polar", "--center", "0,0.9", "--radii", "0.1", "--n-angles", "4"],
    ["straddle", "--q2-range", "0.9,1.1", "--n-points", "5", "--delta", "0.1"],
]


@pytest.mark.parametrize("args", SWEEPS_THROUGH_DIRAC, ids=lambda a: a[0])
def test_sweep_manifest_counts_statuses(runner, tmp_path, args):
    out = tmp_path / "sweep.csv"
    run_ok(runner, args + ["--out", str(out)])
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    _, rows = read_csv(out)
    assert manifest["status"]["ep_breakdown"] >= 1
    assert sum(manifest["status"].values()) == manifest["rows"] == len(rows)
    assert manifest["status"] == dict(Counter(r[-1] for r in rows))


@pytest.mark.parametrize("box,message", [
    ("a,b,c,d", "could not parse --box 'a,b,c,d' as floats"),
    ("0,1,2", "--box needs 4 comma-separated floats, got '0,1,2'"),
])
def test_unparsable_numbers_exit_2(runner, tmp_path, box, message):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["chi-scan", "--box", box, "--out", str(out)])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


# Valid arguments for each command, so that only the flag under test can fail.
BASE_ARGS = {
    "spectrum-scan": ["--resolution", "2,2"],
    "chi-scan": ["--resolution", "2,2"],
    "line-cut": ["--n-points", "2"],
    "polar": ["--radii", "0.1", "--n-angles", "2"],
    "straddle": ["--n-points", "2"],
    "ep-locate": ["--segment", "0,0.5,0,1.3"],
    "trace-line": ["--segment", "0,1.2,0,1.7", "--max-points", "2"],
    "jordan": ["--point", "0,1"],
}


@pytest.mark.parametrize("command,direction,message", [
    pytest.param("line-cut", "0,0", "zero direction vector", id="line-cut-zero"),
    pytest.param("line-cut", "inf,1", "non-finite direction vector", id="line-cut-inf"),
    pytest.param("chi-scan", "nan,1", "non-finite direction vector", id="chi-scan-nan"),
])
def test_bad_direction_exits_2(runner, tmp_path, command, direction, message):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, [
        command, *BASE_ARGS[command], "--direction", direction, "--out", str(out),
    ])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


# The flags whose values the library checks, with the start of its message.
LIBRARY_MESSAGES = {
    ("polar", "--radii"): "all radii must be positive and finite",
    ("line-cut", "--q1"): "non-finite q1 in a stack",
    ("straddle", "--q1"): "non-finite q1 in a stack",
    ("polar", "--center"): "non-finite parameter point",
    ("ep-locate", "--segment"): "non-finite parameter point",
}


@pytest.mark.parametrize("command,flag,value", [
    ("chi-scan", "--box", "0,1,0,inf"),
    ("spectrum-scan", "--box", "nan,1,0,1"),
    ("line-cut", "--q2-range", "0,inf"),
    ("straddle", "--q2-range", "-inf,1"),
    ("polar", "--radii", "0.1,inf"),
    ("line-cut", "--q1", "inf"),
    ("straddle", "--q1", "nan"),
    ("trace-line", "--box", "nan,2,0,2"),
    ("polar", "--center", "inf,1"),
    ("ep-locate", "--segment", "nan,0.5,0,1.3"),
])
def test_non_finite_range_exits_2(runner, tmp_path, command, flag, value):
    # A usage error, found before numpy sees the value: no warning leaks.
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [command, *BASE_ARGS[command], flag, value,
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert LIBRARY_MESSAGES.get((command, flag), f"{flag} must be finite") in result.output
    assert not out.exists()


FLAG_VALUES = {"--band": "0", "--workers": "1", "--step-h": "0.001", "--format": "csv"}
IGNORED_FLAGS = [
    ("spectrum-scan", "--band"),
    ("ep-locate", "--band"),
    ("trace-line", "--band"),
    ("jordan", "--band"),
] + [
    (command, "--workers")
    for command in ("spectrum-scan", "straddle", "ep-locate", "trace-line", "jordan")
] + [("jordan", "--format")] + [
    # The finite-difference step is gone from every command.
    (command, "--step-h") for command in BASE_ARGS
]


@pytest.mark.parametrize("command,flag", IGNORED_FLAGS)
def test_command_rejects_options_it_does_not_use(runner, tmp_path, command, flag):
    out = tmp_path / "x.out"
    args = [command, *BASE_ARGS[command], "--out", str(out)]
    result = runner.invoke(main, args + [flag, FLAG_VALUES[flag]])
    assert result.exit_code == 2
    assert f"No such option '{flag}'" in result.output
    assert not out.exists()
    run_ok(runner, args)
    assert out.exists()


# The README's chi sweeps.
README_CHI_COMMANDS = [
    ["chi-scan", "--box", "-1.5,1.5,0,2", "--resolution", "41,41"],
    ["line-cut", "--q1", "0", "--q2-range", "0,0.99", "--n-points", "200"],
    ["polar", "--center", "0,1", "--radii", "0.1,0.2,0.3", "--n-angles", "64"],
]


@pytest.mark.parametrize("args", README_CHI_COMMANDS, ids=lambda a: a[0])
def test_readme_chi_sweeps_raise_no_warning(runner, tmp_path, args):
    # Overflow in the left norms at EP cells must stay inside the kernel.
    out = tmp_path / "chi.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_ok(runner, args + ["--out", str(out)])
    assert out.exists()


def modules_loaded_by_cli_import(package):
    """The modules of `package` in sys.modules after `import nhgeom.cli` in a
    fresh interpreter."""
    code = ("import sys, nhgeom.cli; print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_mpmath():
    # The tests' 50-digit references use mpmath; nhgeom must not, as its
    # import would add to every launch.
    assert modules_loaded_by_cli_import("mpmath") == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # The locator's fixed-degree series code replaced it; the tests alone
    # import it, as an oracle.
    assert modules_loaded_by_cli_import("numpy.polynomial") == "[]"


# The README's 8 commands and the sha256 of each data file, as written with
# numpy 2.4 on x86-64.  Any change to these bytes must be stated in
# CHANGES.md with its numerical diff, and the digest updated here.
README_OUTPUTS = {
    "spectrum.csv": (["spectrum-scan", "--box", "-2,2,0,2", "--resolution", "101,101"],
                     "eb5a73bfd62483c4fc53ef1fab193376df6c0130c33ce21b32925ef7493eb477"),
    "chi.csv": (["chi-scan", "--box", "-1.5,1.5,0,2", "--resolution", "41,41"],
                "20314aea28e2835bf2b43f70cb1e8da8c0f0b04081e8aa1f878f1d38c6049026"),
    "cut.csv": (["line-cut", "--q1", "0", "--q2-range", "0,0.99", "--n-points", "200"],
                "7e4b540d98f8394db23050062b9d59d8c461d5bfbd0f4486d2303f1291749aca"),
    "straddle.csv": (["straddle", "--q2-range", "1.2,1.43", "--n-points", "51",
                      "--delta", "0.05"],
                     "a7c25596096d0f070ef7ee0dca205433cbeb75a103026c38730c0902efa7ae45"),
    "polar.csv": (["polar", "--center", "0,1", "--radii", "0.1,0.2,0.3", "--n-angles", "64"],
                  "6beff305fd2a1e90c82ab8e1c42660e45a1fd0c1e8ac7cc6d8f2283e136946ce"),
    "dirac.json": (["ep-locate", "--segment", "0,0.5,0,1.3", "--format", "json"],
                   "85f786d06860ab001bedffbf149525e00db38015e8c5b438fc11a25423ef99c4"),
    "line.csv": (["trace-line", "--segment", "0,1.2,0,1.7", "--step", "0.05",
                  "--max-points", "40"],
                 "c3226af597c8e02e4a02cfee21cd6d305832c764ff628ae5843ca22f70c9dfcc"),
    "chain.json": (["jordan", "--point", "0,1"],
                   "76c9549aec7c1d0f28649a14884aa29fcf9390986f75abbfa78cc3bc73fee9d2"),
}


@pytest.mark.parametrize("name", README_OUTPUTS)
def test_readme_output_bytes(runner, tmp_path, name):
    args, digest = README_OUTPUTS[name]
    out = tmp_path / name
    run_ok(runner, args + ["--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
