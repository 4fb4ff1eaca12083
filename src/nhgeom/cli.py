"""Command-line driver: parameter-space scans with reproducible outputs.

Every subcommand writes a CSV or JSON data file plus a manifest JSON
recording the fully resolved configuration, tool, python, numpy and click
versions, wall time, row count and `write_s`, the part of the wall time
spent writing the data file (and, for sweeps, the number of cells of
each status; for ep-locate and trace-line, the largest residual gap and
|discriminant| over the located points).
Option precedence is defaults < config file (flat ``key = value`` lines,
``#`` comments) < command-line flags.  Exit codes: 0 ok, 2 usage/config
error, 3 whole-run computation failure (per-cell failures are data).
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
from .errors import NhgeomError
from .geometry import OK, STATUSES, grid_scan, line_scan, polar_sweep, straddle_fidelity
from .linalg import band_order, matrix_scale
from .model import _FAMILIES, get_family
from .jordan import _classify, _dispersion, classify_ep, jordan_chain
from .spectral import (
    EPKind,
    Phase,
    _discriminant,
    closest_pair,
    discriminant,
    find_ep_on_segment,
    phase_of,
    trace_exceptional_line,
)


def fnum(x):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def parse_numbers(text, n=None, name="value", kind=float):
    """Comma-separated numbers of type `kind` (float or int), `n` of them if given."""
    what = "floats" if kind is float else "integers"
    try:
        vals = [kind(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise click.UsageError(f"could not parse {name} {text!r} as {what}")
    if n is not None and len(vals) != n:
        raise click.UsageError(f"{name} needs {n} comma-separated {what}, got {text!r}")
    return vals


def parse_finite(text, n, name):
    """`parse_numbers` for floats that must all be finite."""
    vals = parse_numbers(text, n, name)
    if not all(map(math.isfinite, vals)):
        raise click.UsageError(f"{name} must be finite, got {text!r}")
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


def write_rows(out, fmt, header, columns):
    """Write a data table and return its manifest fields: the row count and
    `write_s`, the seconds spent formatting and writing it.

    `columns` are equal-length sequences, one per `header` name; a None
    field is an empty CSV cell / JSON null.  The CSV bytes are those that
    ``csv.writer(fh, lineterminator="\\n")`` writes for the header and the
    rows, from one ``str.format`` call over the interleaved fields.
    """
    started = time.monotonic()
    nrows = len(columns[0])
    if fmt == "csv":
        k = len(header)
        fields = [None] * (k * (nrows + 1))
        fields[:k] = _csv_cells(list(header), alone=k == 1)
        for i, column in zip(range(k, 2 * k), columns, strict=True):
            fields[i::k] = _csv_cells(column, alone=k == 1)
        data = (("{}," * (k - 1) + "{}\n") * (nrows + 1)).format(*fields)
    else:
        records = [dict(zip(header, row)) for row in zip(*columns, strict=True)]
        data = json.dumps(records, indent=1) + "\n"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    return {"rows": nrows, "write_s": time.monotonic() - started}


def _csv_cells(column, alone):
    """The fields of `column` as ``str.format`` must render them to write
    what csv.writer writes.

    csv.writer writes None as an empty field and any other non-str as its
    str(), which is what ``format`` gives for an int or a float.  It quotes
    a field that holds a delimiter, a quote or a line break, and the lone
    field of a one-column row when it is empty; such fields are passed
    through csv itself.
    """
    try:
        text = "".join(column)
    except TypeError:  # not all strs
        if set(map(type, column)) <= {int, float}:
            return column
        column = ["" if v is None else str(v) for v in column]
        text = "".join(column)
    if not any(c in text for c in ',"\r\n') and not (alone and "" in column):
        return column

    def render(field):  # as csv writes it in a row of one field, or of more
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\n").writerow([field] if alone else [field, ""])
        return buf.getvalue()[:-1 if alone else -2]

    return list(map(render, column))


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
    n, ok = len(sweep), sweep.status == OK

    def masked(column):
        spread = np.full(n, None, dtype=object)
        spread[ok] = list(map(repr, column[ok].tolist()))
        return spread.tolist()

    status = np.array(STATUSES, dtype=object)[sweep.status].tolist()
    columns = [*sweep.coordinates(repr), *([c] * n for c in constants), [sweep.band] * n,
               *map(masked, values), status]
    fields = write_rows(out, fmt, header, columns)
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
BAND = click.option("--band", type=click.IntRange(-1, 1), default=0, show_default=True)
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
    and turns a computation error (NhgeomError, ValueError) into exit
    code 3, with no data file written.
    """

    def register(body):
        @functools.wraps(body)
        def run(model, out, **params):
            started = time.monotonic()
            family = get_family(model)
            try:
                fields = body(family, out, **params)
            except (NhgeomError, ValueError) as err:
                click.echo(f"computation failed: {err}", err=True)
                sys.exit(3)
            config = {"model": model, "out": out, **params}
            config = {k: str(v) for k, v in config.items() if v is not None}
            write_manifest(out, name, config, started, fields)

        for option in reversed((MODEL, OUT, *options, CONFIG)):
            run = option(run)
        return main.command(name)(run)

    return register


@command(
    "spectrum-scan", FORMAT,
    click.option("--box", default="-2,2,0,2", show_default=True),
    click.option("--resolution", default="101,101", show_default=True),
)
def cmd_spectrum_scan(family, out, fmt, box, resolution):
    """Eigenenergies and PT phase label on a (q1, q2) grid."""
    q1min, q1max, q2min, q2max = parse_finite(box, 4, "--box")
    nx, ny = parse_numbers(resolution, 2, "--resolution", kind=int)
    if nx < 1 or ny < 1:
        raise click.UsageError(f"resolution must be positive, got {nx}x{ny}")
    q1_axis, q2_axis = np.linspace(q1min, q1max, nx), np.linspace(q2min, q2max, ny)
    q2s, q1s = np.meshgrid(q2_axis, q1_axis, indexing="ij")
    h = family.matrices(q1s.ravel(), q2s.ravel())
    w = np.linalg.eigvals(h)
    labels = phase_of(w, matrix_scale(h)).label
    w = np.take_along_axis(w, band_order(w), axis=-1)
    nb = w.shape[-1]  # rows run over q2, then q1, then band

    def reprs(values):  # as an object array, for np.repeat and np.tile
        return np.array(list(map(repr, values.tolist())), dtype=object)

    phases = np.empty(labels.shape, dtype=object)
    for phase in Phase:
        phases[labels == phase] = phase.value
    columns = [
        np.tile(np.repeat(reprs(q1_axis), nb), ny).tolist(),
        np.repeat(reprs(q2_axis), nb * nx).tolist(),
        [nb // 2 - slot for slot in range(nb)] * (nx * ny),
        list(map(repr, w.real.ravel().tolist())),
        list(map(repr, w.imag.ravel().tolist())),
        np.repeat(phases, nb).tolist(),
    ]
    return write_rows(
        out, fmt, ["q1", "q2", "band", "re_energy", "im_energy", "phase"], columns
    )


@command(
    "chi-scan", FORMAT, *CHI_OPTIONS,
    click.option("--box", default="-1.5,1.5,0,2", show_default=True),
    click.option("--resolution", default="41,41", show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_chi_scan(family, out, fmt, band, workers, box, resolution, direction):
    """Fidelity susceptibility density scan over a (q1, q2) box."""
    boxv = parse_finite(box, 4, "--box")
    nx, ny = parse_numbers(resolution, 2, "--resolution", kind=int)
    if nx < 2 or ny < 2:
        raise click.UsageError(f"resolution must be at least 2x2, got {nx}x{ny}")
    dirv = parse_numbers(direction, 2, "--direction")
    sweep = grid_scan(family, tuple(boxv), (nx, ny), band, tuple(dirv))
    return write_chi(out, fmt, ["q1", "q2"], sweep)


@command(
    "line-cut", FORMAT, *CHI_OPTIONS,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", default="0,2", show_default=True),
    click.option("--n-points", type=click.IntRange(min=2), default=201, show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_line_cut(family, out, fmt, band, workers, q1, q2_range, n_points, direction):
    """Susceptibility along a q2 line at fixed q1."""
    if not math.isfinite(q1):
        raise click.UsageError(f"--q1 must be finite, got {q1}")
    q2lo, q2hi = parse_finite(q2_range, 2, "--q2-range")
    dirv = parse_numbers(direction, 2, "--direction")
    sweep = line_scan(family, q1, np.linspace(q2lo, q2hi, n_points), band, dirv)
    return write_chi(out, fmt, ["q1", "q2"], sweep)


@command(
    "straddle", FORMAT, BAND,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", default="1.2,1.45", show_default=True),
    click.option("--n-points", type=click.IntRange(min=1), default=51, show_default=True),
    click.option("--delta", type=float, default=0.05, show_default=True),
)
def cmd_straddle(family, out, fmt, band, q1, q2_range, n_points, delta):
    """Fidelity between (q1, q2) and (q1, q2 + delta) along a q2 ladder."""
    q2lo, q2hi = parse_finite(q2_range, 2, "--q2-range")
    if not math.isfinite(q1):
        raise click.UsageError(f"--q1 must be finite, got {q1}")
    if not 0 < delta < math.inf:
        raise click.UsageError(f"--delta must be positive and finite, got {delta}")
    sweep = straddle_fidelity(family, band, np.linspace(q2lo, q2hi, n_points), delta, q1=q1)
    return write_sweep(out, fmt, ["q1", "q2", "delta", "band", "re_f", "im_f", "status"],
                       sweep, [sweep.values.real, sweep.values.imag], constants=[fnum(delta)])


@command(
    "polar", FORMAT, *CHI_OPTIONS,
    click.option("--center", default="0,1", show_default=True),
    click.option("--radii", default="0.1,0.2,0.3", show_default=True),
    click.option("--n-angles", type=click.IntRange(min=1), default=64, show_default=True),
    click.option("--angles", default=None,
                 help="explicit comma-separated angles, overrides --n-angles"),
)
def cmd_polar(family, out, fmt, band, workers, center, radii, n_angles, angles):
    """Radial susceptibility versus polar angle around a center point."""
    centerv = parse_numbers(center, 2, "--center")
    radiiv = parse_numbers(radii, None, "--radii")
    if angles is not None:
        anglesv = parse_finite(angles, None, "--angles")
        if not anglesv:
            raise click.UsageError("--angles must be nonempty")
    else:
        anglesv = [2 * math.pi * k / n_angles for k in range(n_angles)]
    if not radiiv:
        raise click.UsageError("--radii must be nonempty")
    if not all(r > 0 for r in radiiv):
        raise click.UsageError(f"all radii must be positive, got {radii!r}")
    if not all(map(math.isfinite, radiiv)):
        raise click.UsageError(f"--radii must be finite, got {radii!r}")
    sweep = polar_sweep(family, tuple(centerv), radiiv, anglesv, band)
    return write_chi(out, fmt, ["r", "phi"], sweep)


@command(
    "ep-locate", FORMAT,
    click.option("--segment", required=True, help="q1a,q2a,q1b,q2b endpoints"),
)
def cmd_ep_locate(family, out, fmt, segment):
    """Locate and classify an exceptional point on a parameter segment."""
    a1, a2, b1, b2 = parse_numbers(segment, 4, "--segment")
    ep = find_ep_on_segment(family, (a1, a2), (b1, b2))
    try:
        kind = classify_ep(family, ep)
    except NhgeomError:
        kind = EPKind.UNCLASSIFIED
    evidence = {
        "residual_gap": ep.gap,
        "discriminant": abs(discriminant(family, ep.point)),
    }
    if fmt == "json":
        return evidence | write_record(out, {
            "point": [ep.point.q1, ep.point.q2],
            "energy": [ep.coalesced_energy.real, ep.coalesced_energy.imag],
            "kind": kind.value,
            "defect_measure": ep.defect_measure,
        })
    columns = ep_columns([ep])
    columns.insert(4, [kind.value])
    return evidence | write_rows(out, "csv", [*EP_HEADER[:4], "kind", *EP_HEADER[4:]], columns)


@command(
    "trace-line", FORMAT,
    click.option("--segment", required=True, help="seed search segment q1a,q2a,q1b,q2b"),
    click.option("--step", type=float, default=0.05, show_default=True),
    click.option("--max-points", type=click.IntRange(min=1), default=40, show_default=True),
    click.option("--box", default="-2,2,0,2", show_default=True),
)
def cmd_trace_line(family, out, fmt, segment, step, max_points, box):
    """Trace an exceptional line from a seed EP found on a segment."""
    a1, a2, b1, b2 = parse_numbers(segment, 4, "--segment")
    boxv = parse_finite(box, 4, "--box")
    if not (math.isfinite(step) and step != 0):
        raise click.UsageError(f"--step must be finite and nonzero, got {step}")
    seed = find_ep_on_segment(family, (a1, a2), (b1, b2))
    points = trace_exceptional_line(family, seed, step, max_points, box=tuple(boxv))
    q1, q2 = np.array([ep.point for ep in points]).T
    evidence = {
        "residual_gap": max(ep.gap for ep in points),
        "discriminant": float(np.abs(_discriminant(family, q1, q2)).max()),
    }
    return evidence | write_rows(out, fmt, EP_HEADER, ep_columns(points))


@command(
    "jordan",
    click.option("--point", required=True, help="parameter point q1,q2"),
    click.option("--energy", default=None, help="re[,im]; default: closest coalescing pair"),
    click.option("--n-angles", type=click.IntRange(min=4), default=8, show_default=True),
)
def cmd_jordan(family, out, point, energy, n_angles):
    """Jordan chain and dispersion diagnostics at a degenerate point."""
    q1, q2 = parse_numbers(point, 2, "--point")
    h = family.matrix((q1, q2))
    if energy is not None:
        parts = parse_numbers(energy, None, "--energy")
        if len(parts) not in (1, 2):
            raise click.UsageError("--energy takes 're' or 're,im'")
        ev = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    else:
        w = np.linalg.eigvals(h)
        _, i, j = closest_pair(w)
        ev = complex((w[i] + w[j]) / 2)
    chain = jordan_chain(h, ev)
    angles = [2 * math.pi * k / n_angles for k in range(n_angles)]
    diags = _dispersion(family, (q1, q2), chain, angles)
    kind = _classify(family, (q1, q2), chain)
    return write_record(out, {
        "point": [q1, q2],
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
