"""Command-line driver: parameter-space scans with reproducible outputs.

Every subcommand writes a CSV or JSON data file plus a manifest JSON
recording the fully resolved configuration, tool, python, numpy and click
versions, wall time and row count (and, for chi sweeps, the number of
cells of each status).
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
from collections import Counter

import click
import numpy as np

from . import __version__
from .errors import NhgeomError
from .geometry import grid_scan, line_scan, polar_sweep, straddle_fidelity
from .linalg import band_order, matrix_scale
from .model import ParameterPoint, get_family
from .jordan import classify_ep, jordan_chain, sqrt_coefficient
from .spectral import (
    EPKind,
    closest_pair,
    ep_at,
    find_ep_on_segment,
    phase_of,
    trace_exceptional_line,
)


def fnum(x):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def parse_floats(text, n=None, name="value"):
    try:
        vals = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise click.UsageError(f"could not parse {name} {text!r} as floats")
    if n is not None and len(vals) != n:
        raise click.UsageError(f"{name} needs {n} comma-separated floats, got {text!r}")
    return vals


def parse_ints(text, n=None, name="value"):
    try:
        vals = [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise click.UsageError(f"could not parse {name} {text!r} as integers")
    if n is not None and len(vals) != n:
        raise click.UsageError(f"{name} needs {n} comma-separated integers, got {text!r}")
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


def write_rows(out, fmt, header, rows):
    """Write a data table and return its manifest fields: the row count.

    None fields become empty CSV cells / JSON null.
    """
    if fmt == "csv":
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        data = buf.getvalue()
    else:
        records = [dict(zip(header, row)) for row in rows]
        data = json.dumps(records, indent=1) + "\n"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    return {"rows": len(rows)}


def write_record(out, record):
    """Write one JSON object and return its manifest fields: 1 row."""
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return {"rows": 1}


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


def write_chi(out, fmt, coord_names, cells):
    """Write chi sweep cells; a non-ok cell has no value fields.

    The manifest fields gain `status`, the number of cells of each status.
    """
    rows = []
    for c in cells:
        row = [fnum(c.coords[0]), fnum(c.coords[1]), c.band]
        if c.status == "ok":
            row += [fnum(c.value.real), fnum(c.value.imag), fnum(c.error_estimate)]
        else:
            row += [None, None, None]
        rows.append(row + [c.status])
    header = list(coord_names) + ["band", "re_chi", "im_chi", "error_estimate", "status"]
    fields = write_rows(out, fmt, header, rows)
    fields["status"] = dict(Counter(c.status for c in cells))
    return fields


MODEL = click.option("--model", default="nv-dirac", show_default=True)
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


def _family_or_usage(name):
    try:
        return get_family(name)
    except KeyError as err:
        raise click.UsageError(str(err))


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
            family = _family_or_usage(model)
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
    q1min, q1max, q2min, q2max = parse_floats(box, 4, "--box")
    nx, ny = parse_ints(resolution, 2, "--resolution")
    if nx < 1 or ny < 1:
        raise click.UsageError(f"resolution must be positive, got {nx}x{ny}")
    q2s, q1s = np.meshgrid(
        np.linspace(q2min, q2max, ny), np.linspace(q1min, q1max, nx), indexing="ij"
    )
    q1s, q2s = q1s.ravel().tolist(), q2s.ravel().tolist()
    h = np.array([family.matrix(p) for p in zip(q1s, q2s)])
    w = np.linalg.eigvals(h)
    labels = [label.value for label in phase_of(w, matrix_scale(h)).label]
    w = np.take_along_axis(w, band_order(w), axis=-1)
    bands = [1 - slot for slot in range(w.shape[-1])]
    rows = [
        [q1, q2, band, repr(re), repr(im), label]
        for q1, q2, res, ims, label in zip(
            map(repr, q1s), map(repr, q2s), w.real.tolist(), w.imag.tolist(), labels
        )
        for band, re, im in zip(bands, res, ims)
    ]
    return write_rows(out, fmt, ["q1", "q2", "band", "re_energy", "im_energy", "phase"], rows)


@command(
    "chi-scan", FORMAT, *CHI_OPTIONS,
    click.option("--box", default="-1.5,1.5,0,2", show_default=True),
    click.option("--resolution", default="41,41", show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_chi_scan(family, out, fmt, band, workers, box, resolution, direction):
    """Fidelity susceptibility density scan over a (q1, q2) box."""
    boxv = parse_floats(box, 4, "--box")
    nx, ny = parse_ints(resolution, 2, "--resolution")
    if nx < 2 or ny < 2:
        raise click.UsageError(f"resolution must be at least 2x2, got {nx}x{ny}")
    dirv = parse_floats(direction, 2, "--direction")
    cells = grid_scan(family, tuple(boxv), (nx, ny), band, tuple(dirv))
    return write_chi(out, fmt, ["q1", "q2"], cells)


@command(
    "line-cut", FORMAT, *CHI_OPTIONS,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", default="0,2", show_default=True),
    click.option("--n-points", type=click.IntRange(min=2), default=201, show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_line_cut(family, out, fmt, band, workers, q1, q2_range, n_points, direction):
    """Susceptibility along a q2 line at fixed q1."""
    q2lo, q2hi = parse_floats(q2_range, 2, "--q2-range")
    dirv = parse_floats(direction, 2, "--direction")
    cells = line_scan(family, q1, np.linspace(q2lo, q2hi, n_points), band, dirv)
    return write_chi(out, fmt, ["q1", "q2"], cells)


@command(
    "straddle", FORMAT, BAND,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", default="1.2,1.45", show_default=True),
    click.option("--n-points", type=click.IntRange(min=1), default=51, show_default=True),
    click.option("--delta", type=float, default=0.05, show_default=True),
)
def cmd_straddle(family, out, fmt, band, q1, q2_range, n_points, delta):
    """Fidelity between (q1, q2) and (q1, q2 + delta) along a q2 ladder."""
    q2lo, q2hi = parse_floats(q2_range, 2, "--q2-range")
    if delta <= 0:
        raise click.UsageError("--delta must be positive")
    cells = straddle_fidelity(family, band, np.linspace(q2lo, q2hi, n_points), delta, q1=q1)
    rows = []
    for c in cells:
        base = [fnum(c.coords[0]), fnum(c.coords[1]), fnum(delta), c.band]
        if c.status == "ok":
            rows.append(base + [fnum(c.value.real), fnum(c.value.imag), c.status])
        else:
            rows.append(base + [None, None, c.status])
    return write_rows(out, fmt, ["q1", "q2", "delta", "band", "re_f", "im_f", "status"], rows)


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
    centerv = parse_floats(center, 2, "--center")
    radiiv = parse_floats(radii, None, "--radii")
    if angles is not None:
        anglesv = parse_floats(angles, None, "--angles")
    else:
        anglesv = [2 * math.pi * k / n_angles for k in range(n_angles)]
    if not radiiv:
        raise click.UsageError("--radii must be nonempty")
    if not all(r > 0 for r in radiiv):
        raise click.UsageError(f"all radii must be positive, got {radii!r}")
    cells = polar_sweep(family, tuple(centerv), radiiv, anglesv, band)
    return write_chi(out, fmt, ["r", "phi"], cells)


@command(
    "ep-locate", FORMAT,
    click.option("--segment", required=True, help="q1a,q2a,q1b,q2b endpoints"),
)
def cmd_ep_locate(family, out, fmt, segment):
    """Locate and classify an exceptional point on a parameter segment."""
    a1, a2, b1, b2 = parse_floats(segment, 4, "--segment")
    ep = find_ep_on_segment(family, (a1, a2), (b1, b2))
    try:
        kind = classify_ep(family, ep)
    except NhgeomError:
        kind = EPKind.UNCLASSIFIED
    if fmt == "json":
        return write_record(out, {
            "point": [ep.point.q1, ep.point.q2],
            "energy": [ep.coalesced_energy.real, ep.coalesced_energy.imag],
            "kind": kind.value,
            "defect_measure": ep.defect_measure,
        })
    row = [
        fnum(ep.point.q1),
        fnum(ep.point.q2),
        fnum(ep.coalesced_energy.real),
        fnum(ep.coalesced_energy.imag),
        kind.value,
        fnum(ep.defect_measure),
    ]
    return write_rows(
        out, "csv", ["q1", "q2", "re_energy", "im_energy", "kind", "defect_measure"], [row]
    )


@command(
    "trace-line", FORMAT,
    click.option("--segment", required=True, help="seed search segment q1a,q2a,q1b,q2b"),
    click.option("--step", type=float, default=0.05, show_default=True),
    click.option("--max-points", type=click.IntRange(min=1), default=40, show_default=True),
    click.option("--box", default="-2,2,0,2", show_default=True),
)
def cmd_trace_line(family, out, fmt, segment, step, max_points, box):
    """Trace an exceptional line from a seed EP found on a segment."""
    a1, a2, b1, b2 = parse_floats(segment, 4, "--segment")
    boxv = parse_floats(box, 4, "--box")
    seed = find_ep_on_segment(family, (a1, a2), (b1, b2))
    points = trace_exceptional_line(family, seed, step, max_points, box=tuple(boxv))
    rows = [
        [
            fnum(ep.point.q1),
            fnum(ep.point.q2),
            fnum(ep.coalesced_energy.real),
            fnum(ep.coalesced_energy.imag),
            fnum(ep.defect_measure),
        ]
        for ep in points
    ]
    return write_rows(out, fmt, ["q1", "q2", "re_energy", "im_energy", "defect_measure"], rows)


@command(
    "jordan",
    click.option("--point", required=True, help="parameter point q1,q2"),
    click.option("--energy", default=None, help="re[,im]; default: closest coalescing pair"),
    click.option("--n-angles", type=click.IntRange(min=4), default=8, show_default=True),
)
def cmd_jordan(family, out, point, energy, n_angles):
    """Jordan chain and dispersion diagnostics at a degenerate point."""
    q1, q2 = parse_floats(point, 2, "--point")
    h = family.matrix((q1, q2))
    if energy is not None:
        parts = parse_floats(energy, None, "--energy")
        if len(parts) not in (1, 2):
            raise click.UsageError("--energy takes 're' or 're,im'")
        ev = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    else:
        w = np.linalg.eigvals(h)
        _, i, j = closest_pair(w)
        ev = complex((w[i] + w[j]) / 2)
    chain = jordan_chain(h, ev)
    ep = ep_at(family, ParameterPoint(q1, q2), ev)
    diags = [sqrt_coefficient(family, ep, 2 * math.pi * k / n_angles) for k in range(n_angles)]
    kind = classify_ep(family, ep, angle_samples=n_angles)
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
