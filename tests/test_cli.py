import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeom import NotDefectiveError, nv_family
from nhgeom.cli import main
from nhgeom.spectral import NEAR_EP_GAP_TOL, REALITY_TOL, closest_pair

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


def reference_spectrum_rows(family, q1s, q2s):
    """spectrum-scan rows built point by point: one eigvals per cell,
    numpy's Frobenius norm for the scale, `closest_pair` for the gap and
    the (Re desc, Im desc) band sort key."""
    rows = []
    for q2 in q2s:
        for q1 in q1s:
            h = family.matrix((q1, q2))
            w = np.linalg.eigvals(h)
            scale = max(np.linalg.norm(h), 1.0)
            if closest_pair(w)[0] <= NEAR_EP_GAP_TOL * scale:
                label = "near_ep"
            elif max(abs(x.imag) for x in w) > REALITY_TOL * scale:
                label = "broken"
            else:
                label = "unbroken"
            order = sorted(range(len(w)), key=lambda k: (-w[k].real, -w[k].imag))
            for slot, k in enumerate(order):
                rows.append([repr(float(q1)), repr(float(q2)), str(1 - slot),
                             repr(float(w[k].real)), repr(float(w[k].imag)), label])
    return rows


def reference_label(family, q2):
    return reference_spectrum_rows(family, [0.0], [q2])[0][5]


def label_edge(family, lo, hi):
    """Adjacent floats q2 < q2' on q1 = 0 where the reference label changes."""
    start = reference_label(family, lo)
    assert reference_label(family, hi) != start
    while np.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        if reference_label(family, mid) == start:
            lo = mid
        else:
            hi = mid
    return lo, hi


def edge_values():
    """q2 values on both sides of the NEAR_EP_GAP_TOL edge by the Dirac EP
    and of the REALITY_TOL edge by the conventional EP, a few ulps out."""
    family = nv_family()
    values = []
    for lo, hi in ((1.0, 1.0 + 1e-6), (Q2_STAR - 1e-3, Q2_STAR + 1e-3)):
        a, b = label_edge(family, lo, hi)
        for _ in range(3):
            values += [a, b]
            a, b = np.nextafter(a, -np.inf), np.nextafter(b, np.inf)
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
        # sampled edge value puts a cell exactly on a label threshold.
        box = ",".join(repr(float(v)) for v in (q1a, q1b, q2a, q2b))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "spec.csv"
            run_ok(CliRunner(), [
                "spectrum-scan", "--box", box, "--resolution", f"{nx},{ny}",
                "--out", str(out),
            ])
            _, rows = read_csv(out)
        want = reference_spectrum_rows(
            family, np.linspace(q1a, q1b, nx), np.linspace(q2a, q2b, ny)
        )
        assert rows == want

    def test_edges_are_on_both_sides_of_each_threshold(self, family):
        labels = [reference_label(family, q2) for q2 in EDGE_Q2]
        assert {"near_ep", "unbroken", "broken"} <= set(labels)
        assert labels[0] != labels[1] and labels[6] != labels[7]


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


    def test_zero_direction_exits_3(self, runner, tmp_path):
        out = tmp_path / "cut.csv"
        result = runner.invoke(main, [
            "line-cut", "--n-points", "3", "--direction", "0,0", "--out", str(out),
        ])
        assert result.exit_code == 3
        assert "zero direction vector" in result.output
        assert not out.exists()


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

    def test_nonfinite_point_exits_3(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["jordan", "--point", "nan,1", "--out", str(out)])
        assert result.exit_code == 3
        assert "computation failed" in result.output
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


def test_cli_import_loads_no_scipy():
    code = "import sys, nhgeom.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
