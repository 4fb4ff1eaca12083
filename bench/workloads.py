"""Seeded job lists for the benchmark's three workloads.

A workload is the list of CLI jobs one pass runs, one after the other, in
one process (a closed loop with a single client, ``--workers 1``).  The
seed moves the inputs and nothing else: box edges, scan direction, ring
radii and angles, segment directions and crossing points.  The same seed
always gives the same jobs.

Why each workload is here:

* ``chi-map`` is the hot path of the library: a 41x41 ``chi-scan`` around
  both EPs, a ``polar`` ring scan about the Dirac EP (0, 1) and a
  ``line-cut`` approaching it.  Every chi cell costs 9 ``eigendecompose``
  calls and 5 ``min_gap`` eigensolves, so ``linalg`` and ``geometry`` do
  almost all the work.  A faster susceptibility kernel or eigensystem core
  shows here.
* ``phase-map`` is a 101x101 ``spectrum-scan``: one cheap ``eigvals`` and
  one ``classify_phase`` per cell, 30,603 rows of CSV, and no
  ``eigendecompose`` or ``susceptibility`` at all.  It uses the eigensolve
  layer differently and spends a large share of its time writing output,
  so a chi-kernel change should leave it flat.
* ``ep-hunt`` is many short jobs: ``ep-locate`` on segments through the
  Dirac EP at random angles and across the conventional exceptional line
  at random q1, one ``trace-line`` and one ``jordan``.  ``spectral`` and
  ``jordan`` do the work and ``eigendecompose`` is never called.  Per-job
  latency shows here.
"""

import math
import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("chi-map", "phase-map", "ep-hunt")

N_DIRAC_SEGMENTS = 8
N_CONVENTIONAL_SEGMENTS = 8


@dataclass(frozen=True)
class Job:
    """One CLI call: ``nhgeom <kind> <argv> --out <file>``.

    `spec` holds the same inputs as numbers, for the oracle.
    """

    name: str
    kind: str
    argv: tuple
    spec: dict
    suffix: str = ".csv"


def _csv(values):
    """Comma-separated shortest round-trip decimals, as the CLI parses them."""
    return ",".join(repr(float(v)) for v in values)


def _chi_map(rng):
    box = (-1.5 + rng.uniform(-0.15, 0.15), 1.5 + rng.uniform(-0.15, 0.15),
           rng.uniform(0.0, 0.1), 2.0 + rng.uniform(-0.1, 0.1))
    theta = rng.uniform(0.0, math.pi)
    direction = (math.cos(theta), math.sin(theta))
    radii = [r + rng.uniform(-0.02, 0.02) for r in (0.1, 0.2, 0.3)]
    offset = rng.uniform(0.0, 2 * math.pi / 64)
    angles = [offset + 2 * math.pi * k / 64 for k in range(64)]
    q2_range = (rng.uniform(0.0, 0.2), rng.uniform(0.98, 0.99))
    return [
        Job("chi-scan", "chi-scan",
            ("--box", _csv(box), "--resolution", "41,41", "--direction", _csv(direction),
             "--band", "0", "--workers", "1"),
            {"box": box, "resolution": (41, 41), "direction": direction, "band": 0}),
        Job("polar", "polar",
            ("--center", "0,1", "--radii", _csv(radii), "--angles", _csv(angles),
             "--band", "0", "--workers", "1"),
            {"center": (0.0, 1.0), "radii": radii, "angles": angles, "band": 0}),
        Job("line-cut", "line-cut",
            ("--q1", "0", "--q2-range", _csv(q2_range), "--n-points", "200",
             "--direction", "0,1", "--band", "0", "--workers", "1"),
            {"q1": 0.0, "q2_range": q2_range, "n_points": 200, "direction": (0.0, 1.0),
             "band": 0}),
    ]


def _phase_map(rng):
    box = (-2.0 + rng.uniform(-0.2, 0.2), 2.0 + rng.uniform(-0.2, 0.2),
           rng.uniform(0.0, 0.1), 2.0 + rng.uniform(-0.1, 0.1))
    return [
        Job("spectrum-scan", "spectrum-scan",
            ("--box", _csv(box), "--resolution", "101,101"),
            {"box": box, "resolution": (101, 101)}),
    ]


def _locate(name, segment, expect_kind):
    return Job(name, "ep-locate", ("--segment", _csv(segment)),
               {"segment": segment, "expect_kind": expect_kind})


def _ep_hunt(rng):
    jobs = []
    for k in range(N_DIRAC_SEGMENTS):
        theta = rng.uniform(0.0, 2 * math.pi)
        u = (math.cos(theta), math.sin(theta))
        a, b = rng.uniform(0.15, 0.3), rng.uniform(0.15, 0.3)
        segment = (-a * u[0], 1.0 - a * u[1], b * u[0], 1.0 + b * u[1])
        jobs.append(_locate(f"locate-dirac-{k}", segment, "Dirac"))
    for k in range(N_CONVENTIONAL_SEGMENTS):
        q1 = rng.uniform(-0.9, 0.9)
        q2 = oracles.exceptional_q2(q1)
        segment = (q1, q2 - rng.uniform(0.1, 0.25), q1, q2 + rng.uniform(0.1, 0.25))
        jobs.append(_locate(f"locate-conventional-{k}", segment, "Conventional"))
    rng.shuffle(jobs)
    # Starting left of q1 = 0 and stepping right, the trace always collects
    # its 40 points inside the default box, so every seed does the same work.
    q1 = rng.uniform(-0.3, 0.0)
    q2 = oracles.exceptional_q2(q1)
    segment = (q1, q2 - 0.25, q1, q2 + 0.25)
    box = (-2.0, 2.0, 0.0, 2.0)
    jobs.append(Job("trace-line", "trace-line",
                    ("--segment", _csv(segment), "--step", "0.05", "--max-points", "40",
                     "--box", _csv(box)),
                    {"segment": segment, "step": 0.05, "max_points": 40, "box": box}))
    jobs.append(Job("jordan", "jordan", ("--point", "0,1"),
                    {"point": (0.0, 1.0), "expect_kind": "Dirac"}, suffix=".json"))
    return jobs


_JOB_LISTS = {"chi-map": _chi_map, "phase-map": _phase_map, "ep-hunt": _ep_hunt}


def build(workload, seed):
    """The job list of `workload` for `seed`."""
    return _JOB_LISTS[workload](random.Random(f"{workload}/{seed}"))
