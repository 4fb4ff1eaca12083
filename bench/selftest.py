"""Tests of the benchmark itself.

Run from the root of a source checkout:

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the default test collection: it takes about
half a minute, and the eigendecomposition count it pins belongs to the
current susceptibility kernel, not to the library's contract.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from run import Runner, SpeedProbe, at_nominal_speed, parse_importtime  # noqa: E402
from workloads import Job  # noqa: E402


def _one_pass(jobs, workdir, traced=False):
    """Run and check one pass; returns (runner, (work units, chi statuses))."""
    runner = Runner(jobs, workdir, tracing.Tracer(), SpeedProbe())
    if traced:
        with runner.tracer:
            record = runner.run_pass(traced=True)
    else:
        record = runner.run_pass()
    return runner, runner.judge(record)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_pass(workload, seed, tmp_path):
    runner, (units, _) = _one_pass(workloads.build(workload, seed), tmp_path)
    assert runner.problems == []
    assert runner.failed == 0 and runner.attempted == len(runner.jobs)
    assert units > 0


def _small_jobs():
    box = (-1.5, 1.5, 0.0, 2.0)
    return {
        "chi-scan": Job("chi-scan", "chi-scan",
                        ("--box", "-1.5,1.5,0,2", "--resolution", "5,5"),
                        {"box": box, "resolution": (5, 5), "direction": (0.0, 1.0),
                         "band": 0}),
        "spectrum-scan": Job("spectrum-scan", "spectrum-scan",
                             ("--box", "-1.5,1.5,0,2", "--resolution", "7,7"),
                             {"box": box, "resolution": (7, 7)}),
        "ep-locate": Job("ep-locate", "ep-locate", ("--segment", "0,1.2,0,1.7"),
                         {"segment": (0.0, 1.2, 0.0, 1.7), "expect_kind": "Conventional"}),
    }


def _rewrite_csv(path, row_index, change):
    rows = oracles.read_csv(path)
    rows[row_index].update(change(rows[row_index]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(rows[0].keys()) + "\n")
        for row in rows:
            fh.write(",".join(row.values()) + "\n")


def _gave_up(row):
    return {"status": "ep_breakdown", "re_chi": "", "im_chi": "", "error_estimate": ""}


def _inflated(row):
    chi = float(row["re_chi"])
    return {"re_chi": repr(2 * chi), "error_estimate": repr(10 * abs(chi))}


# Row 7 of the 5x5 chi-scan is (0, 0.5), far from every EP; row 12 is the
# Dirac point, where the CLI reports ep_breakdown.
@pytest.mark.parametrize("kind, row, change", [
    ("chi-scan", 7, lambda r: {"re_chi": repr(float(r["re_chi"]) * 1.01)}),
    ("chi-scan", 7, lambda r: {"status": "bogus"}),
    ("chi-scan", 7, _gave_up),
    ("chi-scan", 7, _inflated),
    ("spectrum-scan", 4, lambda r: {"re_energy": repr(float(r["re_energy"]) + 1e-3)}),
    ("spectrum-scan", 4,
     lambda r: {"phase": "broken" if r["phase"] == "unbroken" else "unbroken"}),
    ("ep-locate", 0, lambda r: {"q2": repr(float(r["q2"]) + 1e-6)}),
    ("ep-locate", 0, lambda r: {"kind": "Dirac"}),
])
def test_oracles_reject_wrong_output(kind, row, change, tmp_path):
    job = _small_jobs()[kind]
    _one_pass([job], tmp_path)
    out = tmp_path / (job.name + job.suffix)
    units, problems, _ = oracles.check(job.kind, out, job.spec)
    assert problems == []
    _rewrite_csv(out, row, change)
    bad_units, problems, _ = oracles.check(job.kind, out, job.spec)
    assert problems != [] and bad_units == units - 1


def test_non_ok_cells_on_eps_pass(tmp_path):
    job = _small_jobs()["chi-scan"]
    runner, (units, statuses) = _one_pass([job], tmp_path)
    assert runner.problems == [] and units == 25
    assert statuses["ep_breakdown"] == 3
    assert oracles.read_csv(tmp_path / "chi-scan.csv")[12]["status"] == "ep_breakdown"


def test_sum_over_states_matches_closed_form_on_the_hermitian_line():
    # On q2 = 0, H is real symmetric and chi along q1 is the textbook
    # sum_m |<m|2 Sz|n>|^2 / (E_n - E_m)^2.
    q1 = 0.3
    w, v = np.linalg.eigh(oracles.nv_matrix(q1, 0.0).real)
    n = 1  # middle eigenvalue: band 0
    expected = sum(abs(v[:, m] @ (2 * oracles.SZ.real) @ v[:, n]) ** 2 / (w[n] - w[m]) ** 2
                   for m in range(3) if m != n)
    (value, _), = oracles.sos_candidates(q1, 0.0, 0, (1.0, 0.0))
    assert math.isclose(value.real, expected, rel_tol=1e-12) and abs(value.imag) < 1e-12


def _bindings():
    """Every attribute of every nhgeom module, plus the class and numpy ones."""
    import numpy.linalg
    from nhgeom.model import HamiltonianFamily

    snap = {(name, attr): value for name, module in sys.modules.items()
            if name == "nhgeom" or name.startswith("nhgeom.")
            for attr, value in vars(module).items()}
    snap[("HamiltonianFamily", "matrix")] = HamiltonianFamily.__dict__["matrix"]
    snap[("numpy.linalg", "eigvals")] = numpy.linalg.eigvals
    return snap


def test_tracer_patches_and_restores_every_binding():
    import nhgeom.cli  # noqa: F401

    before = _bindings()
    originals = {id(tracing._resolve(m, p)[2]) for m, p, _ in tracing.TARGETS
                 if tracing._resolve(m, p) is not None}
    assert len(originals) == len(tracing.TARGETS)
    with tracing.Tracer():
        during = _bindings()
        assert not [k for k, v in during.items() if id(v) in originals]
        import nhgeom.cli as cli
        import nhgeom.geometry as geometry
        assert geometry.eigendecompose.__wrapped__ is before[("nhgeom.linalg", "eigendecompose")]
        assert geometry.min_gap.__wrapped__ is before[("nhgeom.spectral", "min_gap")]
        assert cli.grid_scan.__wrapped__ is before[("nhgeom.geometry", "grid_scan")]
        assert cli.find_ep_on_segment.__wrapped__ is before[
            ("nhgeom.spectral", "find_ep_on_segment")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_trace_counts_nine_eigendecompositions_per_ok_chi_cell(tmp_path):
    # The README's default chi-scan: 41x41 over -1.5,1.5,0,2 along (0, 1).
    job = Job("chi-scan", "chi-scan", (),
              {"box": (-1.5, 1.5, 0.0, 2.0), "resolution": (41, 41),
               "direction": (0.0, 1.0), "band": 0})
    runner, (units, statuses) = _one_pass([job], tmp_path, traced=True)
    assert runner.problems == [] and units == 41 * 41
    ok = statuses["ok"]
    breakdown = statuses["ep_breakdown"]
    assert ok == 1678 and breakdown == 3
    calls = runner.tracer.calls
    # An ok cell decomposes its reference point and both ends of 4 ladder
    # steps; an EP cell stops at the reference point.
    assert calls["linalg.eigendecompose"] == 9 * ok + breakdown
    assert calls["spectral.min_gap"] == 5 * ok
    assert calls["geometry.susceptibility"] == ok + breakdown
    assert calls[tracing.JOB] == 1


def test_importtime_takes_outermost_import_of_each_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     scipy.linalg",
        "import time:        20 |         50 |   scipy",
        "import time:        10 |        210 | nhgeom",
        "import time:         5 |          5 | click",
    ])
    assert parse_importtime(text) == pytest.approx(
        {"scipy": 50e-6, "numpy": 150e-6, "click": 5e-6, "nhgeom": 210e-6})


def test_nominal_speed_scales_times_and_rates_only():
    metrics = {"wall_s": 2.0, "work_per_s": 10.0, "peak_rss_mb": 50.0, "x.calls": 7.0}
    units = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "x.calls": "count"}
    assert at_nominal_speed(metrics, units, 0.5) == {
        "wall_s": 1.0, "work_per_s": 20.0, "peak_rss_mb": 50.0, "x.calls": 7.0}


def test_probe_samples_are_left_out_of_the_clock():
    probe = SpeedProbe()
    t0, c0 = time.perf_counter(), probe.clock()
    probe.start()
    while time.perf_counter() - t0 < 0.3:
        pass
    probe.stop()
    elapsed, own = time.perf_counter() - t0, probe.clock() - c0
    assert len(probe.samples) >= 3
    assert own == pytest.approx(elapsed - sum(probe.samples), abs=1e-3)
