"""Per-layer tracing of nhgeom from outside the package.

The tracer wraps the public functions of each layer and replaces every
binding of each one across the loaded ``nhgeom.*`` namespaces, because the
modules import each other's functions by name: ``geometry`` holds its own
``eigendecompose`` and ``min_gap``, ``cli`` holds ``grid_scan`` and
``find_ep_on_segment``, and the package re-exports most of them.  A binding
left unpatched would let calls escape the trace.  ``restore`` puts every
original back.

Layer map (layer name -> what it wraps):

    model.*      HamiltonianFamily.matrix (the class attribute)
    linalg.*     eigendecompose, solve_linear, null_space
    numpy.*      numpy.linalg.eigvals, the eigensolve nhgeom's spectral,
                 jordan and cli code calls
    spectral.*   classify_phase, min_gap, discriminant, find_ep_on_segment,
                 trace_exceptional_line
    geometry.*   fidelity, susceptibility, grid_scan, polar_sweep,
                 straddle_fidelity
    jordan.*     jordan_chain, a_coefficient, sqrt_coefficient, classify_ep
    cli.*        write_rows, write_manifest, and ``cli.job``, the span the
                 benchmark opens around each in-process CLI call

Each wrapped call is a span.  A layer's self time is its spans' duration
minus the part covered by wrapped calls made inside them.  Spans are only
recorded while a job is open, so oracle work between jobs is not counted.
Functions a later version of nhgeom no longer has are skipped and read as
zero calls.

Which end-to-end metric each layer metric should move, and where:

    model.matrix.*                      wall_s on every workload
    linalg.eigendecompose.*,            wall_s and work_per_s on chi-map;
      geometry.eigensolves_per_cell       unchanged on phase-map and ep-hunt
    numpy.eigvals.calls,                wall_s on phase-map
      spectral.classify_phase.*
    spectral.min_gap.*                  chi-map (ladder checks), ep-hunt
    geometry.fidelity.*, .susceptibility.*, .ok_ratio
                                        chi-map
    spectral.find_ep_on_segment.*,      wall_s and job_tail_s on ep-hunt
      spectral.discriminant.calls,
      spectral.trace.accept_ratio
    jordan.*                            job_p50_s on ep-hunt
    cli.write_rows.*, cli.job.self_s    wall_s on phase-map
    setup.import_s.*                    setup_s on every workload
    geometry.status.*                   context for the error count
"""

import os
import sys
import time
from collections import Counter

import numpy.linalg

from oracles import CHI_STATUSES

TARGETS = (
    ("nhgeom.model", "HamiltonianFamily.matrix", "model.matrix"),
    ("nhgeom.linalg", "eigendecompose", "linalg.eigendecompose"),
    ("nhgeom.linalg", "solve_linear", "linalg.solve_linear"),
    ("nhgeom.linalg", "null_space", "linalg.null_space"),
    ("numpy.linalg", "eigvals", "numpy.eigvals"),
    ("nhgeom.spectral", "classify_phase", "spectral.classify_phase"),
    ("nhgeom.spectral", "min_gap", "spectral.min_gap"),
    ("nhgeom.spectral", "discriminant", "spectral.discriminant"),
    ("nhgeom.spectral", "find_ep_on_segment", "spectral.find_ep_on_segment"),
    ("nhgeom.spectral", "trace_exceptional_line", "spectral.trace_exceptional_line"),
    ("nhgeom.geometry", "fidelity", "geometry.fidelity"),
    ("nhgeom.geometry", "susceptibility", "geometry.susceptibility"),
    ("nhgeom.geometry", "grid_scan", "geometry.grid_scan"),
    ("nhgeom.geometry", "polar_sweep", "geometry.polar_sweep"),
    ("nhgeom.geometry", "straddle_fidelity", "geometry.straddle_fidelity"),
    ("nhgeom.jordan", "jordan_chain", "jordan.jordan_chain"),
    ("nhgeom.jordan", "a_coefficient", "jordan.a_coefficient"),
    ("nhgeom.jordan", "sqrt_coefficient", "jordan.sqrt_coefficient"),
    ("nhgeom.jordan", "classify_ep", "jordan.classify_ep"),
    ("nhgeom.cli", "write_rows", "cli.write_rows"),
    ("nhgeom.cli", "write_manifest", "cli.write_manifest"),
)
JOB = "cli.job"


def _resolve(module_name, path):
    """(owner, attribute, value) of a dotted attribute path, or None."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _nhgeom_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nhgeom" or name.startswith("nhgeom."))]


class Tracer:
    """Counts calls, self time and raised errors per layer."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()  # (layer, exception class name) -> count
        self.calls_under = Counter()  # (layer, enclosing layer) -> count
        self.counters = Counter()  # values layer hooks add, e.g. bytes written
        self._stack = []  # open spans: [layer, start, time covered by children]
        self._active = False
        self._patched = []  # (owner, attribute, original) in patch order

    def _enter(self, layer):
        if self._stack:
            self.calls_under[(layer, self._stack[-1][0])] += 1
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.calls[frame[0]] += 1
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, layer, fn, on_return=None):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.errors[(layer, type(err).__name__)] += 1
                raise
            finally:
                self._exit(frame)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, call):
        """Run `call()` as one traced job; returns its result."""
        self._active = True
        frame = self._enter(JOB)
        try:
            return call()
        finally:
            self._exit(frame)
            self._active = False

    def patch(self):
        """Wrap every target and rebind it wherever nhgeom holds it."""
        if self._patched:
            raise RuntimeError("tracer is already patched")
        modules = _nhgeom_modules()
        for module_name, path, layer in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self.wrap(layer, original, _HOOKS.get(layer))
            owners = [(owner, attr)] + [
                (m, name) for m in modules for name, value in vars(m).items()
                if value is original and (m, name) != (owner, attr)
            ]
            for obj, name in owners:
                self._patched.append((obj, name, original))
                setattr(obj, name, wrapper)

    def restore(self):
        while self._patched:
            obj, name, original = self._patched.pop()
            setattr(obj, name, original)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.restore()


def _count_bytes(tracer, args, kwargs, result):
    out = kwargs.get("out", args[0] if args else None)
    if out is not None:
        tracer.counters["cli.write_rows.bytes"] += os.path.getsize(out)


def _count_trace_points(tracer, args, kwargs, result):
    # The first point is the seed found before the trace starts; every later
    # point was accepted from a corrector call.
    tracer.counters["spectral.trace.accepted"] += max(len(result) - 1, 0)


_HOOKS = {
    "cli.write_rows": _count_bytes,
    "spectral.trace_exceptional_line": _count_trace_points,
}


def layer_metrics(tracer, passes, statuses):
    """Per-pass layer metrics from a tracer that saw `passes` traced passes.

    `statuses` is the chi status histogram of one pass; its total is the
    number of chi cells per pass.
    """
    per = 1.0 / passes
    m = {}
    for _, _, layer in TARGETS:
        m[f"{layer}.calls"] = tracer.calls[layer] * per
        m[f"{layer}.self_s"] = tracer.self_s[layer] * per
    m[f"{JOB}.calls"] = tracer.calls[JOB] * per
    m[f"{JOB}.self_s"] = tracer.self_s[JOB] * per
    m["cli.write_rows.bytes"] = tracer.counters["cli.write_rows.bytes"] * per
    m["spectral.find_ep_on_segment.not_found"] = (
        tracer.errors[("spectral.find_ep_on_segment", "EPNotFoundError")] * per)
    corrector = tracer.calls_under[("spectral.find_ep_on_segment",
                                    "spectral.trace_exceptional_line")]
    m["spectral.trace.accept_ratio"] = (
        tracer.counters["spectral.trace.accepted"] / corrector if corrector else 0.0)
    total = sum(statuses.values())
    solves = tracer.calls["linalg.eigendecompose"] + tracer.calls["numpy.eigvals"]
    m["geometry.eigensolves_per_cell"] = solves * per / total if total else 0.0
    m["geometry.ok_ratio"] = statuses.get("ok", 0) / total if total else 0.0
    for status in CHI_STATUSES:
        m[f"geometry.status.{status}"] = statuses.get(status, 0)
    return m
