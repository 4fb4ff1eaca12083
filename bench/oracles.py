"""Correctness oracles for the benchmark, independent of the code under test.

Nothing here imports ``nhgeom``.  The oracles rebuild the NV model from the
spin-1 formula in PAPER.md,

    H(q1, q2) = 3 Sz^2 + 2 q1 Sz + sqrt(2) (Sx - i q2 Sy),

and judge the CLI's data files against closed forms and a separate
eigensolve:

* chi_F of every ``ok`` cell against the exact sum-over-states value of
  biorthogonal first-order perturbation theory (Brody, J. Phys. A 47,
  035305, 2014),
      chi_n = sum_{m != n} <L_n|dH|R_m><L_m|dH|R_n> / (E_n - E_m)^2,
  with dH the directional derivative of H;
* spectrum energies against ``eigvals`` of the oracle's own matrix, and the
  phase label wherever the spectrum is clearly real or clearly complex;
* located Dirac points against (0, 1) and the double root 3 of
  x (x - 3)^2, conventional and traced points against the model's own cubic
  discriminant, and the EP kind;
* the Jordan chain at (0, 1) against the oracle's matrix.

A chi cell with a non-``ok`` status is data, not a failure, but only where
the oracle itself sees an EP within reach of the ladder; elsewhere the
status is a problem, so a kernel that gives up on every cell cannot pass.

Each ``check_*`` function returns ``(units, problems, info)``: the work
units the output holds that pass the check, a list of human-readable
problems (empty when the output is correct) and a dict of data such as the
chi status histogram.  Manifests are never read.
"""

import csv
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
_S = 1.0 / SQRT2
SX = np.array([[0, _S, 0], [_S, 0, _S], [0, _S, 0]], dtype=complex)
SY = np.array([[0, -1j * _S, 0], [1j * _S, 0, -1j * _S], [0, 1j * _S, 0]], dtype=complex)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
DH_DQ1 = 2.0 * SZ
DH_DQ2 = -1j * SQRT2 * SY

DIRAC_POINT = (0.0, 1.0)
DIRAC_ENERGY = 3.0

# Two eigenvalues whose real parts agree within this share of |H| form a
# conjugate pair.  The CLI orders bands by (Re E desc, Im E desc), so which
# member of a pair carries a band label is fixed by round-off; chi of either
# member is accepted.
TIE_RTOL = 1e-9
# An ok chi cell passes when |chi - chi_sos| <= CHI_RTOL * M + CHI_ERR_FACTOR *
# error_estimate, M being the sum of the magnitudes of the sum-over-states
# terms.  CHI_RTOL covers the Richardson ladder's truncation far from EPs
# (median 1.6e-7 of M on the default chi-scan); near an EP the cell must
# carry an error bar within CHI_ERR_FACTOR of its actual error.
CHI_RTOL = 1e-4
CHI_ERR_FACTOR = 10.0
# Within NON_OK_REACH of an EP (the Dirac point or the zero set of the
# discriminant), twice the CLI's default ladder step LADDER_H, the ladder
# need not resolve chi: a cell there may carry a non-ok status or any error
# bar.  Beyond it a non-ok status is a problem, and an ok cell's error bar
# must stay below
#     M * (CHI_ERR_FLOOR + CHI_ERR_NEAR * (LADDER_H / distance)^2) + CHI_ERR_ABS,
# the ladder's truncation error growing as the EP comes near and its
# round-off floor.  On the chi-map outputs of parent seeds 0-59 (124,380 ok
# cells) no error bar beyond NON_OK_REACH exceeds 0.23 of this bound; the
# only non-ok cells seen, those of grids that hit an EP exactly, sit on it.
LADDER_H = 1e-3
NON_OK_REACH = 2 * LADDER_H
CHI_ERR_FLOOR = 1e-4
CHI_ERR_NEAR = 2.0
CHI_ERR_ABS = 1e-6
CHI_STATUSES = ("ok", "ep_breakdown", "band_ambiguous", "step_too_large")
# Eigenvalues near an EP are accurate to about sqrt(machine eps) * |H|.
ENERGY_ATOL = 1e-6
# Phase labels are checked only where the spectrum is far from the CLI's
# thresholds: max |Im E| and the smallest gap, both relative to |H|.
PHASE_CLEAR = 1e-4
PHASE_REAL = 1e-12
DIRAC_POINT_TOL = 1e-6
# Distance of a located point from the exceptional line, estimated as
# |disc| / |grad disc| of the oracle's own cubic discriminant.
LINE_DIST_TOL = 1e-8
EP_ENERGY_TOL = 1e-5
JORDAN_RTOL = 1e-6
COORD_TOL = 1e-12


def nv_matrix(q1, q2):
    """H(q1, q2) from the spin operators; q1 and q2 may be arrays."""
    q1 = np.asarray(q1, dtype=float)[..., None, None]
    q2 = np.asarray(q2, dtype=float)[..., None, None]
    return 3.0 * (SZ @ SZ) + 2.0 * q1 * SZ + SQRT2 * (SX - 1j * q2 * SY)


def scale_of(h):
    """Frobenius norm of each matrix, floored at 1."""
    return np.maximum(np.linalg.norm(h, axis=(-2, -1)), 1.0)


def cubic(q1, q2):
    """(c, d) of det(x - H) = x^3 - 6 x^2 + c x + d, worked out by hand."""
    c = 7.0 - 4.0 * q1 * q1 + 2.0 * q2 * q2
    d = 6.0 * (1.0 - q2 * q2)
    return c, d


def discriminant(q1, q2):
    """Discriminant of the characteristic cubic; zero exactly at EPs."""
    b = -6.0
    c, d = cubic(q1, q2)
    return 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 - 27 * d * d


def discriminant_gradient(q1, q2):
    b = -6.0
    c, d = cubic(q1, q2)
    dc = 18 * b * d + 2 * b * b * c - 12 * c * c
    dd = 18 * b * c - 4 * b ** 3 - 54 * d
    return dc * (-8.0 * q1), dc * (4.0 * q2) + dd * (-12.0 * q2)


def line_distance(q1, q2):
    """First-order distance of (q1, q2) from the zero set of the discriminant."""
    g1, g2 = discriminant_gradient(q1, q2)
    return abs(discriminant(q1, q2)) / max(math.hypot(g1, g2), 1e-300)


def ep_distance(q1, q2):
    """Distance of (q1, q2) from the nearest EP, to first order off (0, 1)."""
    return min(math.hypot(q1 - DIRAC_POINT[0], q2 - DIRAC_POINT[1]),
               line_distance(q1, q2))


def double_root(q1, q2, near):
    """The root of the cubic's derivative closest to `near`."""
    c, _ = cubic(q1, q2)
    s = np.sqrt(complex(4.0 - c / 3.0))
    return min((2.0 + s, 2.0 - s), key=lambda x: abs(x - near))


def exceptional_q2(q1, lo=1.0005, hi=1.5):
    """q2 of the conventional exceptional line above (q1, 1), |q1| < 1.5."""
    fa = discriminant(q1, lo)
    if fa * discriminant(q1, hi) > 0:
        raise ValueError(f"no exceptional-line crossing at q1={q1}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = discriminant(q1, mid)
        if fa * fm <= 0:
            hi = mid
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


def sos_candidates(q1, q2, band, direction):
    """Sum-over-states chi_F, as (value, M), for each member of band's tie group.

    Bands are labelled +1, 0, -1 in order of descending Re E.  The lefts are
    the rows of R^-1, biorthonormal by construction.
    """
    h = nv_matrix(q1, q2)
    w, r = np.linalg.eig(h)
    order = sorted(range(3), key=lambda i: (-w[i].real, -w[i].imag))
    w, r = w[order], r[:, order]
    left = np.linalg.inv(r)
    n = 1 - band
    dh = direction[0] * DH_DQ1 + direction[1] * DH_DQ2
    a = left @ dh @ r
    tie = TIE_RTOL * float(scale_of(h))
    out = []
    for k in range(3):
        if abs(w[k].real - w[n].real) > tie:
            continue
        terms = [a[k, m] * a[m, k] / (w[k] - w[m]) ** 2 for m in range(3) if m != k]
        out.append((complex(sum(terms)), float(sum(abs(t) for t in terms))))
    return out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, tol=COORD_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _unit(v):
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def _check_chi_rows(rows, expected, band, problems):
    """expected: list of (coord_a, coord_b, point, direction) per row.

    Returns (cells that pass, status histogram).
    """
    statuses = dict.fromkeys(CHI_STATUSES, 0)
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
        return 0, statuses
    keys = list(rows[0].keys())[:2] if rows else []
    passed = 0
    for row, (ca, cb, point, direction) in zip(rows, expected):
        where = f"cell ({row.get(keys[0])}, {row.get(keys[1])})"
        if not (_close(float(row[keys[0]]), ca) and _close(float(row[keys[1]]), cb)):
            problems.append(f"{where}: expected coordinates ({ca!r}, {cb!r})")
            continue
        if int(row["band"]) != band:
            problems.append(f"{where}: band {row['band']}, expected {band}")
            continue
        status = row["status"]
        if status not in statuses:
            problems.append(f"{where}: unknown status {status!r}")
            continue
        statuses[status] += 1
        values = (row["re_chi"], row["im_chi"], row["error_estimate"])
        dist = ep_distance(*point)
        if status != "ok":
            if any(v != "" for v in values):
                problems.append(f"{where}: status {status} with non-empty values")
                continue
            if dist > NON_OK_REACH:
                problems.append(f"{where}: status {status}, but the nearest EP is "
                                f"{dist:.3g} away")
                continue
            passed += 1
            continue
        chi = complex(float(values[0]), float(values[1]))
        err = float(values[2])
        if not (math.isfinite(chi.real) and math.isfinite(chi.imag) and err >= 0):
            problems.append(f"{where}: non-finite value or bad error estimate")
            continue
        err_share = (math.inf if dist <= NON_OK_REACH
                     else CHI_ERR_FLOOR + CHI_ERR_NEAR * (LADDER_H / dist) ** 2)
        cands = sos_candidates(point[0], point[1], band, direction)
        if not any(abs(chi - s) <= CHI_RTOL * m + CHI_ERR_FACTOR * err
                   and err <= err_share * m + CHI_ERR_ABS for s, m in cands):
            best = min(cands, key=lambda c: abs(chi - c[0]))
            problems.append(
                f"{where}: chi {chi:.10g} +/- {err:.3g} vs sum-over-states "
                f"{best[0]:.10g} (M = {best[1]:.3g})"
            )
            continue
        passed += 1
    return passed, statuses


def check_chi_scan(path, spec):
    q1min, q1max, q2min, q2max = spec["box"]
    nx, ny = spec["resolution"]
    direction = _unit(spec["direction"])
    expected = [
        (q1, q2, (q1, q2), direction)
        for q2 in np.linspace(q2min, q2max, ny).tolist()
        for q1 in np.linspace(q1min, q1max, nx).tolist()
    ]
    problems = []
    units, statuses = _check_chi_rows(read_csv(path), expected, spec["band"], problems)
    return units, problems, {"status": statuses}


def check_polar(path, spec):
    c1, c2 = spec["center"]
    expected = []
    for r in spec["radii"]:
        for phi in spec["angles"]:
            point = (c1 + r * math.cos(phi), c2 + r * math.sin(phi))
            expected.append((r, phi, point, _unit((-math.cos(phi), -math.sin(phi)))))
    problems = []
    units, statuses = _check_chi_rows(read_csv(path), expected, spec["band"], problems)
    return units, problems, {"status": statuses}


def check_line_cut(path, spec):
    q1 = spec["q1"]
    lo, hi = spec["q2_range"]
    direction = _unit(spec["direction"])
    expected = [
        (q1, q2, (q1, q2), direction)
        for q2 in np.linspace(lo, hi, spec["n_points"]).tolist()
    ]
    problems = []
    units, statuses = _check_chi_rows(read_csv(path), expected, spec["band"], problems)
    return units, problems, {"status": statuses}


def check_spectrum_scan(path, spec):
    q1min, q1max, q2min, q2max = spec["box"]
    nx, ny = spec["resolution"]
    g2, g1 = np.meshgrid(np.linspace(q2min, q2max, ny), np.linspace(q1min, q1max, nx),
                         indexing="ij")
    q1s, q2s = g1.ravel(), g2.ravel()
    h = nv_matrix(q1s, q2s)
    w = np.linalg.eigvals(h)
    scale = scale_of(h)
    rows = read_csv(path)
    problems = []
    ncell = nx * ny
    if len(rows) != 3 * ncell:
        return 0, [f"{len(rows)} rows, expected {3 * ncell}"], {}
    passed = 0
    for i in range(ncell):
        before = len(problems)
        cell = rows[3 * i: 3 * i + 3]
        where = f"cell ({cell[0]['q1']}, {cell[0]['q2']})"
        if not all(_close(float(r["q1"]), q1s[i]) and _close(float(r["q2"]), q2s[i])
                   for r in cell):
            problems.append(f"{where}: expected coordinates ({q1s[i]!r}, {q2s[i]!r})")
            continue
        if [int(r["band"]) for r in cell] != [1, 0, -1]:
            problems.append(f"{where}: bands {[r['band'] for r in cell]}")
        got = np.array([complex(float(r["re_energy"]), float(r["im_energy"])) for r in cell])
        tol = ENERGY_ATOL * scale[i]
        if any(got[k].real < got[k + 1].real - tol for k in range(2)):
            problems.append(f"{where}: energies not in descending Re order")
        own = w[i]
        # Match as multisets: pick each reported energy's nearest own eigenvalue.
        dist = max(min(abs(e - own[j]) for j in range(3)) for e in got)
        if dist > tol or max(min(abs(got - x)) for x in own) > tol:
            problems.append(f"{where}: energies {got} vs eigvals {own}")
        labels = {r["phase"] for r in cell}
        if len(labels) != 1:
            problems.append(f"{where}: mixed phase labels {sorted(labels)}")
            continue
        label = labels.pop()
        gap = min(abs(own[a] - own[b]) for a in range(3) for b in range(a + 1, 3))
        max_imag = float(np.max(np.abs(own.imag)))
        if gap > PHASE_CLEAR * scale[i]:
            if max_imag > PHASE_CLEAR * scale[i] and label != "broken":
                problems.append(f"{where}: complex spectrum labelled {label}")
            if max_imag <= PHASE_REAL * scale[i] and label != "unbroken":
                problems.append(f"{where}: real spectrum labelled {label}")
        elif label not in ("unbroken", "broken", "near_ep"):
            problems.append(f"{where}: unknown phase {label!r}")
        passed += len(problems) == before
    return passed, problems, {}


def _check_ep(q1, q2, energy, dirac, problems, where):
    """A Dirac EP must sit at (0, 1), any other on the exceptional line."""
    if dirac:
        dist = math.hypot(q1 - DIRAC_POINT[0], q2 - DIRAC_POINT[1])
        if dist > DIRAC_POINT_TOL:
            problems.append(f"{where}: point ({q1!r}, {q2!r}) is {dist:.3g} from (0, 1)")
        target = DIRAC_ENERGY
    else:
        dist = line_distance(q1, q2)
        if dist > LINE_DIST_TOL:
            problems.append(f"{where}: point ({q1!r}, {q2!r}) is {dist:.3g} off the "
                            "exceptional line")
        target = double_root(q1, q2, energy)
    if abs(energy - target) > EP_ENERGY_TOL:
        problems.append(f"{where}: energy {energy} vs double root {target}")


def _check_kind(kind, expected, problems, where):
    if kind != expected:
        problems.append(f"{where}: kind {kind!r}, expected {expected!r}")


def _on_segment(q1, q2, seg, tol=1e-9):
    a1, a2, b1, b2 = seg
    d1, d2 = b1 - a1, b2 - a2
    length2 = d1 * d1 + d2 * d2
    t = ((q1 - a1) * d1 + (q2 - a2) * d2) / length2
    off = abs((q1 - a1) * d2 - (q2 - a2) * d1) / math.sqrt(length2)
    return -tol <= t <= 1 + tol and off <= tol


def check_ep_locate(path, spec):
    rows = read_csv(path)
    problems = []
    if len(rows) != 1:
        return 0, [f"{len(rows)} rows, expected 1"], {}
    row = rows[0]
    q1, q2 = float(row["q1"]), float(row["q2"])
    if not _on_segment(q1, q2, spec["segment"]):
        problems.append(f"point ({q1!r}, {q2!r}) is not on the segment")
    energy = complex(float(row["re_energy"]), float(row["im_energy"]))
    dirac = spec["expect_kind"] == "Dirac"
    _check_ep(q1, q2, energy, dirac, problems, "located EP")
    _check_kind(row["kind"], spec["expect_kind"], problems, "located EP")
    return int(not problems), problems, {}


def check_trace_line(path, spec):
    rows = read_csv(path)
    problems = []
    if not 2 <= len(rows) <= spec["max_points"]:
        problems.append(f"{len(rows)} traced points, expected 2..{spec['max_points']}")
    q1min, q1max, q2min, q2max = spec["box"]
    prev = None
    passed = 0
    for k, row in enumerate(rows):
        before = len(problems)
        q1, q2 = float(row["q1"]), float(row["q2"])
        energy = complex(float(row["re_energy"]), float(row["im_energy"]))
        where = f"traced point {k}"
        _check_ep(q1, q2, energy, False, problems, where)
        if not (q1min <= q1 <= q1max and q2min <= q2 <= q2max):
            problems.append(f"{where}: ({q1!r}, {q2!r}) outside the box")
        if prev is not None:
            hop = math.hypot(q1 - prev[0], q2 - prev[1])
            if not 0 < hop <= 3 * abs(spec["step"]):
                problems.append(f"{where}: hop {hop:.3g} for step {spec['step']}")
        prev = (q1, q2)
        passed += len(problems) == before
    return passed, problems, {}


def _vec(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def check_jordan(path, spec):
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    problems = []
    q1, q2 = spec["point"]
    energy = complex(*rec["energy"])
    _check_ep(q1, q2, energy, spec["expect_kind"] == "Dirac", problems, "jordan")
    _check_kind(rec["kind"], spec["expect_kind"], problems, "jordan")
    h = nv_matrix(q1, q2)
    a = h - energy * np.eye(3)
    scale = float(scale_of(h))
    psi0, chi, phi0, eta = (_vec(rec[k]) for k in ("psi0", "chi", "phi0", "eta"))
    tol = JORDAN_RTOL * scale
    checks = {
        "(H - E) psi0": np.linalg.norm(a @ psi0) / np.linalg.norm(psi0),
        "(H - E) chi - psi0": np.linalg.norm(a @ chi - psi0) / np.linalg.norm(psi0),
        "phi0 (H - E)": np.linalg.norm(phi0 @ a) / np.linalg.norm(phi0),
        "eta (H - E) - phi0": np.linalg.norm(eta @ a - phi0) / np.linalg.norm(phi0),
        "<eta|psi0> - 1": abs(eta @ psi0 - 1.0),
    }
    for name, value in checks.items():
        if not value <= tol:
            problems.append(f"jordan: |{name}| = {value:.3g} > {tol:.3g}")
    return int(not problems), problems, {}


CHECKS = {
    "chi-scan": check_chi_scan,
    "polar": check_polar,
    "line-cut": check_line_cut,
    "spectrum-scan": check_spectrum_scan,
    "ep-locate": check_ep_locate,
    "trace-line": check_trace_line,
    "jordan": check_jordan,
}


def check(kind, path, spec):
    """Judge one CLI data file; returns (units, problems, info)."""
    return CHECKS[kind](path, spec)
