"""Command-line driver: parameter-space scans with reproducible outputs.

Every subcommand writes a CSV or JSON data file plus a manifest JSON
recording the fully resolved configuration, tool version, and wall time.
Option precedence is defaults < config file (flat ``key = value`` lines,
``#`` comments) < command-line flags.  Exit codes: 0 ok, 2 usage/config
error, 3 whole-run computation failure (per-cell failures are data).
"""

import csv
import functools
import io
import json
import math
import sys
import time

import click
import numpy as np

from . import __version__
from .errors import NhgeomError
from .geometry import (
    DEFAULT_STEP_H,
    grid_scan,
    line_scan,
    polar_sweep,
    straddle_fidelity,
)
from .linalg import matrix_scale
from .model import ParameterPoint, get_family
from .jordan import classify_ep, jordan_chain, sqrt_coefficient
from .spectral import (
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
    """Make the config file's values the defaults of the options not given."""
    if path:
        ctx.default_map = read_config_file(path)


def write_rows(out, fmt, header, rows):
    """Write a data table and return its row count.

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
    return len(rows)


def write_record(out, record):
    """Write one JSON object and return its row count, 1."""
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1


def write_manifest(out, subcommand, config, started, n_rows):
    manifest = {
        "tool": "nhgeom",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "wall_time_s": time.monotonic() - started,
        "rows": n_rows,
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_chi(out, fmt, coord_names, cells):
    """Write chi sweep cells; a non-ok cell has no value fields."""
    rows = []
    for c in cells:
        row = [fnum(c.coords[0]), fnum(c.coords[1]), c.band]
        if c.status == "ok":
            row += [fnum(c.value.real), fnum(c.value.imag), fnum(c.error_estimate)]
        else:
            row += [None, None, None]
        rows.append(row + [c.status])
    header = list(coord_names) + ["band", "re_chi", "im_chi", "error_estimate", "status"]
    return write_rows(out, fmt, header, rows)


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
# The chi sweeps' band, process count and finite-difference ladder step.
CHI_OPTIONS = (
    BAND,
    click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True),
    click.option("--step-h", type=float, default=DEFAULT_STEP_H, show_default=True),
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
    writes the data file and returns its row count.  This wrapper writes
    the manifest, and turns a computation error (NhgeomError, ValueError)
    into exit code 3, with no data file written.
    """

    def register(body):
        @functools.wraps(body)
        def run(model, out, **params):
            started = time.monotonic()
            family = _family_or_usage(model)
            try:
                n_rows = body(family, out, **params)
            except (NhgeomError, ValueError) as err:
                click.echo(f"computation failed: {err}", err=True)
                sys.exit(3)
            config = {"model": model, "out": out, **params}
            config = {k: str(v) for k, v in config.items() if v is not None}
            write_manifest(out, name, config, started, n_rows)

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
    rows = []
    for q2 in np.linspace(q2min, q2max, ny):
        for q1 in np.linspace(q1min, q1max, nx):
            h = family.matrix((q1, q2))
            w = np.linalg.eigvals(h)
            label = phase_of(w, matrix_scale(h)).label.value
            order = sorted(range(len(w)), key=lambda i: (-w[i].real, -w[i].imag))
            for slot, i in enumerate(order):
                rows.append(
                    [fnum(q1), fnum(q2), 1 - slot, fnum(w[i].real), fnum(w[i].imag), label]
                )
    return write_rows(out, fmt, ["q1", "q2", "band", "re_energy", "im_energy", "phase"], rows)


@command(
    "chi-scan", FORMAT, *CHI_OPTIONS,
    click.option("--box", default="-1.5,1.5,0,2", show_default=True),
    click.option("--resolution", default="41,41", show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_chi_scan(family, out, fmt, band, workers, step_h, box, resolution, direction):
    """Fidelity susceptibility density scan over a (q1, q2) box."""
    boxv = parse_floats(box, 4, "--box")
    nx, ny = parse_ints(resolution, 2, "--resolution")
    if nx < 2 or ny < 2:
        raise click.UsageError(f"resolution must be at least 2x2, got {nx}x{ny}")
    dirv = parse_floats(direction, 2, "--direction")
    cells = grid_scan(
        family, tuple(boxv), (nx, ny), band, tuple(dirv), h=step_h, workers=workers
    )
    return write_chi(out, fmt, ["q1", "q2"], cells)


@command(
    "line-cut", FORMAT, *CHI_OPTIONS,
    click.option("--q1", type=float, default=0.0, show_default=True),
    click.option("--q2-range", default="0,2", show_default=True),
    click.option("--n-points", type=click.IntRange(min=2), default=201, show_default=True),
    click.option("--direction", default="0,1", show_default=True),
)
def cmd_line_cut(family, out, fmt, band, workers, step_h, q1, q2_range, n_points, direction):
    """Susceptibility along a q2 line at fixed q1."""
    q2lo, q2hi = parse_floats(q2_range, 2, "--q2-range")
    dirv = parse_floats(direction, 2, "--direction")
    cells = line_scan(
        family, q1, np.linspace(q2lo, q2hi, n_points), band, dirv, h=step_h, workers=workers
    )
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
def cmd_polar(family, out, fmt, band, workers, step_h, center, radii, n_angles, angles):
    """Radial susceptibility versus polar angle around a center point."""
    centerv = parse_floats(center, 2, "--center")
    radiiv = parse_floats(radii, None, "--radii")
    if angles is not None:
        anglesv = parse_floats(angles, None, "--angles")
    else:
        anglesv = [2 * math.pi * k / n_angles for k in range(n_angles)]
    if not radiiv:
        raise click.UsageError("--radii must be nonempty")
    if min(radiiv) <= step_h:
        raise click.UsageError(f"all radii must exceed the step ladder h={step_h:g}")
    cells = polar_sweep(
        family, tuple(centerv), radiiv, anglesv, band, h=step_h, workers=workers
    )
    return write_chi(out, fmt, ["r", "phi"], cells)


@command(
    "ep-locate", FORMAT,
    click.option("--segment", required=True, help="q1a,q2a,q1b,q2b endpoints"),
)
def cmd_ep_locate(family, out, fmt, segment):
    """Locate and classify an exceptional point on a parameter segment."""
    a1, a2, b1, b2 = parse_floats(segment, 4, "--segment")
    ep = find_ep_on_segment(family, (a1, a2), (b1, b2))
    if fmt == "json":
        return write_record(out, {
            "point": [ep.point.q1, ep.point.q2],
            "energy": [ep.coalesced_energy.real, ep.coalesced_energy.imag],
            "kind": ep.kind.value,
            "defect_measure": ep.defect_measure,
        })
    row = [
        fnum(ep.point.q1),
        fnum(ep.point.q2),
        fnum(ep.coalesced_energy.real),
        fnum(ep.coalesced_energy.imag),
        ep.kind.value,
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
    seed = find_ep_on_segment(family, (a1, a2), (b1, b2), classify=False)
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
