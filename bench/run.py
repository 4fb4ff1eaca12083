"""Benchmark of the nhgeom CLI on seeded inputs, with independent oracles.

Usage, from the root of a source checkout (nhgeom need not be installed):

    python3 bench/run.py --workload chi-map --seed 1 --seconds 20 --trace 0

The run measures ``setup_s`` by launching ``python -m nhgeom.cli --version``
several times, then imports ``nhgeom.cli`` from ``src/`` and drives
``nhgeom.cli.main`` in-process: one warm-up pass of the workload's job list
(see ``workloads.py``), then timed passes until ``--seconds`` have passed.
Each distinct data file a job writes is kept, and once the measurement is
over (and ``peak_rss_mb`` read, so that the checker's memory does not count)
``oracles.py`` checks every one.  A job fails when it exits non-zero or its
output fails an oracle.  A work unit counts only when it passes its oracle.

Every time is given at a nominal machine speed.  The machine is shared, and
its speed switches between states up to 40 % apart from one second to the
next, which moves every timing of a run alike.  So while the untraced timed
passes run, a timer interrupts them every ``PROBE_EVERY_S`` and times a
fixed block of 3x3 ``numpy.linalg.eig`` calls that does not touch nhgeom
(``SpeedProbe``).  Job latencies leave the probe's own seconds out.  Each
time metric, ``setup_s`` included, is multiplied, and each rate divided, by
``PROBE_NOMINAL_S`` over the mean block time.  nhgeom cannot move the
probe, so a change to nhgeom moves the scaled figures as it moves the raw
ones.  The raw figures and the probe's mean are in the report line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced passes (``tracer.py``) and reports the
per-layer metrics, all per pass, together with the tracing overhead.  The
last line of standard output is the result JSON; the line before it is a
report with every metric computed, the error rate, the sample counts behind
the latency percentiles and the sha256 of each data file.  Job outputs go to
a work directory under ``.bench_out/``, removed at the end of the run.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3
IMPORT_PACKAGES = ("scipy", "numpy", "click", "nhgeom")
TAIL_BEYOND = 10
LAUNCH_TIMEOUT_S = 60
PROBE_MATRIX = np.array([[3, 1, 0], [1, 0, 1j], [0, 2, -3]], dtype=complex)
PROBE_CALLS = 40
PROBE_EVERY_S = 0.05
# The probe's mean block time on the machine the bounds were set on (an
# x86-64 VM with 2 vCPUs), so that scaled times read close to raw ones there.
PROBE_NOMINAL_S = 0.0008
# How each unit scales with machine speed: times by the factor, rates by
# its inverse.
SPEED_POWER = {"s": 1, "1/s": -1}


class SpeedProbe:
    """Samples machine speed on a timer while the run measures.

    Python runs the SIGALRM handler between bytecodes of the main thread, so
    samples land inside jobs too; ``clock`` leaves their seconds out.
    """

    def __init__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self.samples = []
        self.busy = 0.0  # seconds spent in samples

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            np.linalg.eig(PROBE_MATRIX)
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.busy += took

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self):
        """Seconds elapsed less the seconds sampled: the program's own time.

        The signal is held off while both are read, so that a sample cannot
        fall between them.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.busy
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self):
        """Multiplier from raw seconds to seconds at the nominal speed."""
        return PROBE_NOMINAL_S / statistics.fmean(self.samples)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _launch(extra):
    cmd = [sys.executable, *extra, "-m", "nhgeom.cli", "--version"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=LAUNCH_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or "nhgeom" not in proc.stdout:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr}")
    return elapsed, proc.stderr


def measure_setup():
    """Median seconds from a fresh interpreter to ``--version`` returning."""
    return statistics.median(_launch([])[0] for _ in range(SETUP_LAUNCHES))


def parse_importtime(text):
    """Inclusive import seconds of the outermost import of each package."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []  # top-level package of each enclosing import, by depth
    # importtime prints children before their parent; walk it parent-first.
    for depth, name, cumulative_us in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in totals and top not in ancestors:
            totals[top] += cumulative_us * 1e-6
        ancestors.append(top)
    return totals


def measure_imports():
    runs = [parse_importtime(_launch(["-X", "importtime"])[1])
            for _ in range(IMPORTTIME_LAUNCHES)]
    return {f"setup.import_s.{p}": statistics.median(r[p] for r in runs)
            for p in IMPORT_PACKAGES}


def _exit_code(err):
    if err.code is None:
        return 0
    return err.code if isinstance(err.code, int) else 1


class Runner:
    """Runs a job list through ``nhgeom.cli.main``; checks the outputs later."""

    def __init__(self, jobs, workdir, tracer, probe):
        from nhgeom.cli import main

        self.main = main
        self.jobs = jobs
        self.workdir = workdir
        self.kept = workdir / "kept"
        self.kept.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.probe = probe
        self.verdicts = {}  # (job name, sha256) -> (units, problems, info)
        self.digests = {}  # job name -> every distinct sha256 of its output
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _call(self, argv):
        try:
            self.main.main(args=argv, prog_name="nhgeom", standalone_mode=True)
        except SystemExit as err:
            return _exit_code(err), None
        except Exception:  # a crash of the program fails the job, not the run
            return -1, traceback.format_exc(limit=3)
        return 0, None

    def run_pass(self, traced=False):
        """Run every job once and keep each output not seen before.

        Returns (pass seconds, [(job, exit code, crash, latency, sha256)]),
        every time without the speed probe's samples.
        """
        results = []
        t_pass = self.probe.clock()
        for job in self.jobs:
            out = self.workdir / (job.name + job.suffix)
            argv = [job.kind, *job.argv, "--out", str(out)]
            t0 = self.probe.clock()
            if traced:
                code, crash = self.tracer.run_job(lambda: self._call(argv))
            else:
                code, crash = self._call(argv)
            results.append((job, out, code, crash, self.probe.clock() - t0))
        wall = self.probe.clock() - t_pass
        return wall, [(job, code, crash, latency, self._keep(job, out) if code == 0 else None)
                      for job, out, code, crash, latency in results]

    def _keep(self, job, out):
        """sha256 of the output, which is copied aside when new; None if missing.

        The file is hashed in chunks, so the benchmark's own memory stays
        small next to the program's.
        """
        sha = hashlib.sha256()
        try:
            with open(out, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    sha.update(chunk)
        except OSError:
            return None
        digest = sha.hexdigest()
        seen = self.digests.setdefault(job.name, [])
        if digest not in seen:
            seen.append(digest)
            shutil.copyfile(out, self._kept_path(job, digest))
        return digest

    def _kept_path(self, job, digest):
        return self.kept / f"{job.name}-{digest}{job.suffix}"

    def judge(self, record):
        """Check one pass's outputs; returns (work units, chi status counts)."""
        units, statuses = 0, {}
        for job, code, crash, _, digest in record[1]:
            self.attempted += 1
            if code != 0:
                problems = [f"exit code {code}" + (f"\n{crash}" if crash else "")]
            elif digest is None:
                problems = ["no output"]
            else:
                job_units, problems, info = self._verdict(job, digest)
                units += job_units
                for status, n in info.get("status", {}).items():
                    statuses[status] = statuses.get(status, 0) + n
            if problems:
                self.failed += 1
                for p in problems[:5]:  # each pass repeats a bad output's problems
                    if f"{job.name}: {p}" not in self.problems:
                        self.problems.append(f"{job.name}: {p}")
        return units, statuses

    def _verdict(self, job, digest):
        key = (job.name, digest)
        if key not in self.verdicts:  # identical bytes get the identical verdict
            try:
                self.verdicts[key] = oracles.check(job.kind, self._kept_path(job, digest),
                                                   job.spec)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                self.verdicts[key] = (0, [f"unreadable output: {err!r}"], {})
        return self.verdicts[key]


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(runner, seconds):
    # Enough passes that job_tail_s has TAIL_BEYOND samples beyond it and
    # lies at or above the median.
    min_passes = max(3, -(-2 * (TAIL_BEYOND + 1) // len(runner.jobs)))
    passes = []
    runner.probe.start()
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(runner.run_pass())
    runner.probe.stop()
    # Before any oracle runs: the checker's memory must not count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = [runner.judge(p)[0] for p in passes]
    walls = [p[0] for p in passes]
    latencies = [r[3] for p in passes for r in p[1]]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "work_per_s": sum(units) / sum(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"passes": len(passes), "job_samples": len(latencies),
            "job_tail_percentile": tail_pct, "units_per_pass": units[0]}
    return metrics, info


def per_layer(runner, seconds):
    """Untraced and traced passes alternate, so both see the same machine load.

    Layer metrics are per traced pass; the overhead is the difference of the
    two median pass times.  The speed probe is off in traced passes, so that
    its samples do not fall into the spans.
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        runner.probe.start()
        plain.append(runner.run_pass())
        runner.probe.stop()
        with runner.tracer:
            traced.append(runner.run_pass(traced=True))
    for p in plain:
        runner.judge(p)
    statuses = [runner.judge(p)[1] for p in traced]
    plain_wall = statistics.median(p[0] for p in plain)
    traced_wall = statistics.median(p[0] for p in traced)
    metrics = tracing.layer_metrics(runner.tracer, len(traced), statuses[0])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    info = {"untraced_passes": len(plain), "traced_passes": len(traced),
            "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, info


def at_nominal_speed(metrics, units, factor):
    """Times multiplied by `factor`, rates divided by it, the rest unchanged."""
    return {name: value * factor ** SPEED_POWER.get(units[name], 0)
            for name, value in metrics.items()}


def unit_of(name):
    """Unit of a reported metric that BENCHMARK.json does not declare."""
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    declared = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    try:
        import nhgeom.cli
    except ImportError as err:
        print(f"cannot import nhgeom from {SRC}: {err}", file=sys.stderr)
        return 2
    if SRC not in Path(nhgeom.cli.__file__).resolve().parents:
        print(f"nhgeom was imported from {nhgeom.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    metrics = {}
    if args.trace:
        metrics.update(measure_imports())
    else:
        metrics["setup_s"] = measure_setup()

    jobs = workloads.build(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    try:
        runner = Runner(jobs, workdir, tracing.Tracer(), probe)
        warm_up = runner.run_pass()  # lazy imports, caches, file system
        if args.trace:
            layer, info = per_layer(runner, args.seconds)
            metrics.update(layer)
        else:
            e2e, info = end_to_end(runner, args.seconds)
            metrics.update(e2e)
        runner.judge(warm_up)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    metrics["error_rate"] = runner.failed / runner.attempted
    units = {m["name"]: m["unit"] for m in declared}
    units = {name: units.get(name) or unit_of(name) for name in metrics}
    scaled = at_nominal_speed(metrics, units, probe.factor())
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": runner.attempted, "failed": runner.failed, **info,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in scaled.items()},
        "raw_metrics": {name: metrics[name] for name in metrics
                        if units[name] in SPEED_POWER},
        "probe": {"samples": len(probe.samples),
                  "mean_s": statistics.fmean(probe.samples),
                  "nominal_s": PROBE_NOMINAL_S},
        "problems": runner.problems[:20],
        "sha256": {name: d[0] if len(d) == 1 else d for name, d in runner.digests.items()},
    }
    print(json.dumps(report))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
