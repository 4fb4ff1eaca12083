"""Command-line driver: parameter-space scans with reproducible outputs.

Every subcommand writes a CSV or JSON data file plus a manifest JSON
recording the resolved configuration, versions, wall time, row count,
`write_s` and the run's evidence (cells per status or phase label; the
largest residual gap, |discriminant| and its bound over located EPs).
Float columns are rendered by `float_cells`, one repr per run of equal
magnitudes, and a CSV table is written from one join of its fields and
separators; `write_s` times both.
Option precedence is defaults < config file (flat ``key = value`` lines,
``#`` comments) < command-line flags.  Exit codes: 0 ok; 2 when the
command line, the config file or an argument check (ArgumentError) rejects
an input; 3 when the computation fails, numpy overflow and invalid
operations included (per-cell failures are data).
"""

import csv
import functools
import io
import json
import math
import platform
import sys
import time

import click
import numpy as np

from . import __version__
from .errors import ArgumentError, NhgeomError
from .geometry import OK, STATUSES, grid_scan, line_scan, polar_sweep, straddle_fidelity
from .linalg import band_order, eigenvalues
from .model import _FAMILIES, get_family
from .jordan import _classify, _dispersion, classify_ep, jordan_chain
from .spectral import (
    EPKind,
    Phase,
    closest_pair,
    find_ep_on_segment,
    phase_of,
    trace_exceptional_line,
)


def fnum(x):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


class Numbers(click.ParamType):
    """A comma-separated list of numbers of type `kind` (float or int), `n` of
    them if given, all finite if `finite`; empty fields are skipped."""

    def __init__(self, n=None, kind=float, finite=False):
        self.n, self.kind, self.finite = n, kind, finite
        self.name = "floats" if kind is float else "integers"

    def convert(self, value, param, ctx):
        try:
            vals = [self.kind(v) for v in value.split(",") if v.strip()]
        except ValueError:
            self.fail(f"could not parse {value!r} as {self.name}", param, ctx)
        if self.n is not None and len(vals) != self.n:
            self.fail(f"needs {self.n} comma-separated {self.name}, got {value!r}", param, ctx)
        if self.finite and not all(map(math.isfinite, vals)):
            self.fail(f"must be finite, got {value!r}", param, ctx)
        return vals


def read_config_file(path):
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except OSError as err:
        raise click.UsageError(f"cannot read config file {path}: {err}")
    return cfg


def use_config(ctx, param, path):
    """Make the config file's values the defaults of the options not given.

    A key is an option's long name or its parameter name (``format`` or
    ``fmt``); a key that names no option of the command is a usage error.
    """
    if not path:
        return
    names = {}
    for p in ctx.command.params:
        if p.expose_value:
            names[p.name] = p.name
            names.update((o.lstrip("-").replace("-", "_"), p.name) for o in p.opts)
    defaults = {}
    for key, val in read_config_file(path).items():
        if key not in names:
            raise click.UsageError(
                f"{path}: key {key!r} names no option of {ctx.info_name}"
            )
        defaults[names[key]] = val
    ctx.default_map = defaults


def float_cells(values):
    """The repr of each float of `values`, as a flat object array.

    Equal to ``list(map(repr, values.tolist()))`` once listed, but repr
    is called once per run of adjacent values of bitwise equal magnitude
    (a conjugate pair, a run of zeros) and a "-" put before each value
    whose sign bit is set, NaN excepted: repr gives "nan" for either sign.
    """
    values = np.ravel(values)
    magnitudes = np.abs(values)
    bits = magnitudes.view(np.uint64)
    first = np.ones(len(bits), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(first)
    texts = np.array(list(map(repr, magnitudes[starts].tolist())), dtype=object)
    cells = np.repeat(texts, np.diff(starts, append=len(bits)))
    negative = np.flatnonzero(np.signbit(values) & ~np.isnan(values))
    cells[negative] = "-" + cells[negative]
    return cells


def write_rows(out, fmt, header, columns, started):
    """Write a data table and return its manifest fields: the row count and
    `write_s`, the seconds spent rendering and writing it, counted from
    `started`, the ``time.monotonic()`` reading the caller takes before it
    renders its columns.

    `columns` are equal-length sequences, one per `header` name; a None
    field is an empty CSV cell / JSON null.  The CSV bytes are those that
    ``csv.writer(fh, lineterminator="\\n")`` writes for the header and the
    rows.  They come from one join of a list in which the fields alternate
    with their "," and "\\n" separators, or from csv.writer itself for a
    table of one column or with a field that needs quoting.
    """
    nrows, k = len(columns[0]), len(header)
    if fmt == "json":
        records = [dict(zip(header, row)) for row in zip(*columns, strict=True)]
        data = json.dumps(records, indent=1) + "\n"
    elif k == 1 or None in (cells := list(map(_csv_cells, [list(header), *columns]))):
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\n").writerows([header, *zip(*columns, strict=True)])
        data = buf.getvalue()
    else:
        parts = [","] * (2 * k * (nrows + 1))
        parts[2 * k - 1::2 * k] = ["\n"] * (nrows + 1)
        parts[:2 * k:2] = cells[0]
        for i, column in zip(range(2 * k, 4 * k, 2), cells[1:], strict=True):
            parts[i::2 * k] = column
        data = "".join(parts)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    return {"rows": nrows, "write_s": time.monotonic() - started}


def _csv_cells(column):
    """The fields of `column` as the strs that, joined with their
    separators, write what csv.writer writes; None if one needs quoting.

    csv.writer writes None as an empty field and any other non-str as its
    str(); an int column calls str() once per distinct value (a float
    column cannot share them by value: 0.0 == -0.0).  It quotes a field
    that holds a delimiter, a quote or a line break.
    """
    try:
        text = "".join(column)
    except TypeError:  # not all strs
        if set(map(type, column)) == {int}:
            strs = {v: str(v) for v in set(column)}
            return list(map(strs.__getitem__, column))
        column = ["" if v is None else str(v) for v in column]
        text = "".join(column)
    return None if any(c in text for c in ',"\r\n') else column


def write_record(out, record):
    """Write one JSON object and return its manifest fields: 1 row and `write_s`."""
    started = time.monotonic()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return {"rows": 1, "write_s": time.monotonic() - started}


@functools.lru_cache(maxsize=None)
def versions():
    """Versions of python and of the packages a run depends on."""
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
    }


def write_manifest(out, subcommand, config, started, fields):
    """Write ``<out>.manifest.json``: the run's config, versions and `fields`."""
    manifest = {
        "tool": "nhgeom",
        "version": __version__,
        "versions": versions(),
        "subcommand": subcommand,
        "config": config,
        "wall_time_s": time.monotonic() - started,
        **fields,
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_sweep(out, fmt, header, sweep, values, constants=()):
    """Write a Sweep's rows: its two coordinates, a column per field of
    `constants`, the band, a column per array of `values` and the status.

    A value field is the repr of a float where the cell is ok, and None
    (an empty field) where it is not.  The manifest fields gain `status`,
    the number of cells of each status.
    """
    started = time.monotonic()
    n, ok = len(sweep), sweep.status == OK

    def masked(column):
        spread = np.full(n, None, dtype=object)
        spread[ok] = float_cells(column[ok])
        return spread.tolist()

    status = np.array(STATUSES, dtype=object)[sweep.status].tolist()
    columns = [*sweep.coordinates(repr), *([c] * n for c in constants), [sweep.band] * n,
               *map(masked, values), status]
    fields = write_rows(out, fmt, header, columns, started)
    counts = np.bincount(sweep.status, minlength=len(STATUSES)).tolist()
    fields["status"] = {name: k for name, k in zip(STATUSES, counts) if k}
    return fields


def write_chi(out, fmt, coord_names, sweep):
    """Write a chi Sweep; a non-ok cell has no value fields."""
    header = [*coord_names, "band", "re_chi", "im_chi", "error_estimate", "status"]
    return write_sweep(out, fmt, header, sweep,
                       [sweep.values.real, sweep.values.imag, sweep.errors])


EP_HEADER = ["q1", "q2", "re_energy", "im_energy", "defect_measure"]


def ep_columns(points):
    """The EP_HEADER columns of EPLocations, as shortest round-trip decimals."""
    q1, q2 = np.array([ep.point for ep in points]).T
    energies = np.array([ep.coalesced_energy for ep in points])
    columns = [q1, q2, energies.real, energies.imag, [ep.defect_measure for ep in points]]
    return [list(map(fnum, column)) for column in columns]


MODEL = click.option(
    "--model", type=click.Choice(sorted(_FAMILIES)), default="nv-dirac", show_default=True
)
OUT = click.option("--out", required=True, type=click.Path(dir_okay=False))
CONFIG = click.option(
    "--config", type=click.Path(exists=False), default=None, is_eager=True,
    expose_value=False, callback=use_config,
    help="file of 'key = value' lines that replace option defaults",
)
FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
BAND = click.option("--band", type=int, default=0, show_default=True)
BOX, RANGE = Numbers(4, finite=True), Numbers(2, finite=True)  # np.linspace ends
PAIR, SEGMENT, RESOLUTION = Numbers(2), Numbers(4), Numbers(2, kind=int)
# The chi sweeps' band, and a process count they no longer use.
CHI_OPTIONS = (
    BAND,
    click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                 help="ignored: every scan runs in one process"),
)


@click.group()
@click.version_option(version=__version__, prog_name="nhgeom")
def main():
    """Biorthogonal quantum geometry scans for non-Hermitian models."""


def command(name, *options):
    """Register ``nhgeom <name>`` with --model, --out, --config and `options`.

    The decorated body is called as body(family, out, **other_options); it
    writes the data file and returns its manifest fields (the row count,
    and more where a writer adds them).  This wrapper writes the manifest,
    whose config is each resolved option in CLI syntax.  It turns an
    ArgumentError into a usage error (exit code 2) and any other computation
    error (NhgeomError, ValueError, or FloatingPointError: the body runs
    under ``np.errstate(all="raise")``) into exit code 3, with no data file.
    """

    def register(body):
        @functools.wraps(body)
        def run(model, out, **params):
            started = time.monotonic()
            family = get_family(model)
            try:
                with np.errstate(all="raise", under="ignore"):
                    fields = body(family, out, **params)
            except ArgumentError as err:
                raise click.UsageError(str(err)) from err
            except (NhgeomError, ValueError, FloatingPointError) as err:
                click.echo(f"computation failed: {err}", err=True)
                sys.exit(3)
            config = {"model": model, "out": out, **params}
            config = {k: ",".join(map(repr, v)) if isinstance(v, list) else str(v)
                      for k, v in config.items() if v is not None}
            write_manifest(out, name, config, started, fields)

        for option in reversed((MODEL, OUT, *options, CONFIG)):
            run = option(run)
        return main.command(name)(run)

    return register


@command(
    "spectrum-scan", FORMAT,
    click.option("--box", type=BOX, default="-2,2,0,2", show_default=True),
    click.option("--resolution", type=RESOLUTION, default="101,101", show_default=True),
)
def cmd_spectrum_scan(family, out, fmt, box, resolution):
    """Eigenenergies and PT phase label on a (q1, q2) grid."""
    nx, ny = resolution
    if nx < 1 or ny < 1:
        raise click.UsageError(f"resolution must be positive, got {nx}x{ny}")
    q1_axis, q2_axis = np.linspace(*box[:2], nx), np.linspace(*box[2:], ny)
    q2s, q1s = np.meshgrid(q2_axis, q1_axis, indexing="ij")
    h = family.matrices(q1s.ravel(), q2s.ravel())
    labels, w = phase_of(h).label, eigenvalues(h)
    w = np.take_along_axis(w, band_order(w), axis=-1)
    nb = w.shape[-1]  # rows run over q2, then q1, then band
    started = time.monotonic()
    phases, counts = np.empty(labels.shape, dtype=object), {}
    for phase in Phase:
        cells = labels == phase
        phases[cells] = phase.value
        counts[phase.value] = int(np.count_nonzero(cells))
    columns = [
        np.tile(np.repeat(float_cells(q1_axis), nb), ny).tolist(),
        np.repeat(float_cells(q2_axis), nb * nx).tolist(),
        [nb // 2 - slot for slot in range(nb)] * (nx * ny),
        float_cells(w.real).tolist(),
        float_cells(w.imag).tolist(),
        np.repeat(phases, nb).tolist(),
    ]
    return {"phase": {name: k for name, k in counts.items() if k}} | write_rows(
        out, fmt, ["q1", "q2", "band", "re_energy", "im_energy", "phase"], columns, started
    )


@command(
    "chi-scan", FORMAT, *CHI_OPTIONS,
    click.option("--box", type=BOX, default="-1.5,1.5,0,2", show_default=True),
    click.option("--resolution", type=RESOLUTION, default="41,41", show_default=True),
    click.option("--direction", type=PAIR, default="0,1", show_default=True),
)
def cmd_chi_scan(family, out, fmt, band, workers, box, resolution, direction):
    """Fidelity susceptibility density scan over a (q1, q2) box."""
    sweep = grid_scan(family, tuple(box), tuple(resolution), band, tuple(direction))
    return write_chi(out, fmt, ["q1", "q2"], sweep)


@command(
    "line-cut", FORMAT, *CHI_OPTIONS,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", type=RANGE, default="0,2", show_default=True),
    click.option("--n-points", type=click.IntRange(min=2), default=201, show_default=True),
    click.option("--direction", type=PAIR, default="0,1", show_default=True),
)
def cmd_line_cut(family, out, fmt, band, workers, q1, q2_range, n_points, direction):
    """Susceptibility along a q2 line at fixed q1."""
    sweep = line_scan(family, q1, np.linspace(*q2_range, n_points), band, direction)
    return write_chi(out, fmt, ["q1", "q2"], sweep)


@command(
    "straddle", FORMAT, BAND,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", type=RANGE, default="1.2,1.45", show_default=True),
    click.option("--n-points", type=click.IntRange(min=1), default=51, show_default=True),
    click.option("--delta", type=float, default=0.05, show_default=True),
)
def cmd_straddle(family, out, fmt, band, q1, q2_range, n_points, delta):
    """Fidelity between (q1, q2) and (q1, q2 + delta) along a q2 ladder."""
    sweep = straddle_fidelity(family, band, np.linspace(*q2_range, n_points), delta, q1=q1)
    return write_sweep(out, fmt, ["q1", "q2", "delta", "band", "re_f", "im_f", "status"],
                       sweep, [sweep.values.real, sweep.values.imag], constants=[fnum(delta)])


@command(
    "polar", FORMAT, *CHI_OPTIONS,
    click.option("--center", type=PAIR, default="0,1", show_default=True),
    click.option("--radii", type=Numbers(), default="0.1,0.2,0.3", show_default=True),
    click.option("--n-angles", type=click.IntRange(min=1), default=64, show_default=True),
    click.option("--angles", type=Numbers(), default=None,
                 help="explicit comma-separated angles, overrides --n-angles"),
)
def cmd_polar(family, out, fmt, band, workers, center, radii, n_angles, angles):
    """Radial susceptibility versus polar angle around a center point."""
    if angles is None:
        angles = [2 * math.pi * k / n_angles for k in range(n_angles)]
    sweep = polar_sweep(family, tuple(center), radii, angles, band)
    return write_chi(out, fmt, ["r", "phi"], sweep)


@command(
    "ep-locate", FORMAT,
    click.option("--segment", type=SEGMENT, required=True, help="q1a,q2a,q1b,q2b endpoints"),
)
def cmd_ep_locate(family, out, fmt, segment):
    """Locate and classify an exceptional point on a parameter segment."""
    ep = find_ep_on_segment(family, segment[:2], segment[2:])
    try:
        kind, evidence = classify_ep(family, ep), {}
    except NhgeomError as err:
        kind, evidence = EPKind.UNCLASSIFIED, {"unclassified": f"{type(err).__name__}: {err}"}
    label = phase_of(family.matrix(ep.point))
    evidence |= {"residual_gap": ep.gap, "discriminant": abs(label.discriminant),
                 "discriminant_bound": label.bound}
    if fmt == "json":
        return evidence | write_record(out, {
            "point": [ep.point.q1, ep.point.q2],
            "energy": [ep.coalesced_energy.real, ep.coalesced_energy.imag],
            "kind": kind.value,
            "defect_measure": ep.defect_measure,
        })
    started = time.monotonic()
    columns = ep_columns([ep])
    columns.insert(4, [kind.value])
    return evidence | write_rows(out, "csv", [*EP_HEADER[:4], "kind", *EP_HEADER[4:]],
                                 columns, started)


@command(
    "trace-line", FORMAT,
    click.option("--segment", type=SEGMENT, required=True,
                 help="seed search segment q1a,q2a,q1b,q2b"),
    click.option("--step", type=float, default=0.05, show_default=True),
    click.option("--max-points", type=click.IntRange(min=1), default=40, show_default=True),
    click.option("--box", type=BOX, default="-2,2,0,2", show_default=True),
)
def cmd_trace_line(family, out, fmt, segment, step, max_points, box):
    """Trace an exceptional line from a seed EP found on a segment."""
    seed = find_ep_on_segment(family, segment[:2], segment[2:])
    points = trace_exceptional_line(family, seed, step, max_points, box=tuple(box))
    label = phase_of(family.matrices(*np.array([ep.point for ep in points]).T))
    evidence = {"residual_gap": max(ep.gap for ep in points),
                "discriminant": float(np.abs(label.discriminant).max()),
                "discriminant_bound": float(label.bound.max())}
    started = time.monotonic()
    return evidence | write_rows(out, fmt, EP_HEADER, ep_columns(points), started)


@command(
    "jordan",
    click.option("--point", type=PAIR, required=True, help="parameter point q1,q2"),
    click.option("--energy", type=Numbers(), default=None,
                 help="re[,im]; default: closest coalescing pair"),
    click.option("--n-angles", type=click.IntRange(min=4), default=8, show_default=True),
)
def cmd_jordan(family, out, point, energy, n_angles):
    """Jordan chain and dispersion diagnostics at a degenerate point."""
    h = family.matrix(point)
    if energy is not None:
        if len(energy) not in (1, 2):
            raise click.UsageError("--energy takes 're' or 're,im'")
        ev = complex(*energy)
    else:
        w = eigenvalues(h)
        _, i, j = closest_pair(w)
        ev = complex((w[i] + w[j]) / 2)
    chain = jordan_chain(h, ev)
    angles = [2 * math.pi * k / n_angles for k in range(n_angles)]
    diags = _dispersion(family, point, chain, angles)
    kind = _classify(family, point, chain)
    return write_record(out, {
        "point": point,
        "energy": [ev.real, ev.imag],
        "kind": kind.value,
        "psi0": [[z.real, z.imag] for z in chain.psi0],
        "chi": [[z.real, z.imag] for z in chain.chi],
        "phi0": [[z.real, z.imag] for z in chain.phi0],
        "eta": [[z.real, z.imag] for z in chain.eta],
        "residuals": list(chain.residuals),
        "dispersion": [
            {
                "angle": d.angle,
                "a_coefficient": [d.a_coefficient.real, d.a_coefficient.imag],
                "sqrt_coefficient": [d.sqrt_coefficient.real, d.sqrt_coefficient.imag],
                "linear_slope": d.splitting_fit[0],
                "sqrt_amplitude": d.splitting_fit[1],
                "normalized_sqrt_amplitude": d.normalized_sqrt_amplitude,
            }
            for d in diags
        ],
    })


if __name__ == "__main__":
    main()
