"""Output checker for benchmark jobs.

Every check here is computed by the benchmark itself from the job's
inputs, never taken from the package: the capacity bound comes from its
closed form, channel entries from a direct numpy evaluation of the
wavefront model, validity regimes from the L_t*L_r < 4*lambda*D rule, and
phase samples from the scan geometry.  ``check_job`` returns the row count
and a fingerprint of the numbers and labels in the output, which the
harness compares with the reference outputs of the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from workloads import SPEED_OF_LIGHT_M_S

SE_SLACK = 1e-9
BOUND_RTOL = 1e-9
ALLOC_TOL = 1e-9
CHANNEL_ATOL = 1e-8
GRID_RTOL = 1e-12
PHASE_ATOL = 1e-6
FINGERPRINT_RTOL = 1e-6

_SWEEP_HEADER = ["x_value", "snr_db", "se_bpshz", "ub_bpshz", "active_rank", "config_descriptor"]


class CheckError(Exception):
    """A job's output broke an invariant or disagreed with its reference."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- closed-form capacity bound --------------------------------------------

def _polarization_point():
    # root of ln(1 + x) = 2x / (1 + x), where r*log2(1 + a/r^2) peaks in r
    x = 4.0
    for _ in range(60):
        g = math.log1p(x) - 2 * x / (1 + x)
        dg = 1 / (1 + x) - 2 / (1 + x) ** 2
        x -= g / dg
    return x


_X_STAR = _polarization_point()


def capacity_bound(n_t: int, n_r: int, snr_db: float) -> float:
    """max over real r in [1, min(n_t, n_r)] of r*log2(1 + snr*n_t*n_r/r^2)."""
    a = 10.0 ** (snr_db / 10.0) * n_t * n_r
    r = min(max(math.sqrt(a / _X_STAR), 1.0), float(min(n_t, n_r)))
    return r * math.log2(1.0 + a / (r * r))


# -- parsing -----------------------------------------------------------------

def _read_text(path):
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == header, f"bad header {rows[0] if rows else None}")
    return rows[1:]


class _Digest:
    """Numbers and labels of one output, in order, for the fingerprint."""

    def __init__(self):
        self.numbers = []
        self.labels = []

    def add(self, values):
        self.numbers.append(np.asarray(values, dtype=float).ravel())

    def label(self, text):
        self.labels.append(str(text))

    def fingerprint(self) -> dict:
        x = np.concatenate(self.numbers) if self.numbers else np.zeros(0)
        w = 1.0 + (np.arange(x.size) % 7) / 7.0  # makes the sum order-sensitive
        return {
            "count": int(x.size),
            "sum": float(x.sum()),
            "abs": float(np.abs(x).sum()),
            "sq": float((x * x).sum()),
            "wsum": float((w * x).sum()),
            "labels": hashlib.sha256("\x00".join(self.labels).encode()).hexdigest(),
        }


def fingerprints_match(got: dict, want: dict) -> bool:
    if got["count"] != want["count"] or got["labels"] != want["labels"]:
        return False
    scale = max(got["abs"], want["abs"], 1e-300)
    for key in ("sum", "abs", "wsum"):
        if abs(got[key] - want[key]) > FINGERPRINT_RTOL * scale * 2:
            return False
    return _close(got["sq"], want["sq"], FINGERPRINT_RTOL)


def _descriptor(d: _Digest, text: str, prefix: str):
    key, sep, value = text.partition("=")
    _require(sep and key == prefix, f"descriptor {text!r} is not {prefix}=<value>")
    d.label(key)
    d.add([float(value)])
    return float(value)


# -- rate rows ---------------------------------------------------------------

def _rate_row(d, n_t, n_r, snr_db, se, ub, rank, where):
    d.add([snr_db, se, ub, rank])
    _require(math.isfinite(se) and math.isfinite(ub), f"{where}: non-finite rate")
    _require(se <= ub + SE_SLACK, f"{where}: SE {se!r} exceeds UB {ub!r}")
    want = capacity_bound(n_t, n_r, snr_db)
    _require(_close(ub, want, BOUND_RTOL), f"{where}: UB {ub!r} != closed form {want!r}")
    _require(1 <= rank <= min(n_t, n_r), f"{where}: active_rank {rank} out of range")


def _allocation(d, fractions, rank, n_modes, where):
    p = np.asarray(fractions, dtype=float)
    d.add(p)
    _require(p.size == n_modes, f"{where}: {p.size} fractions for {n_modes} modes")
    _require(np.all(p >= 0) and abs(p.sum() - 1.0) <= ALLOC_TOL,
             f"{where}: allocation does not sum to 1")
    _require(int(np.count_nonzero(p > 0)) == rank,
             f"{where}: active_rank {rank} != {int(np.count_nonzero(p > 0))} powered modes")


def _check_capacity(job, d):
    s = job.spec
    text = _read_text(job.outputs[0])
    n_modes = min(s["n_t"], s["n_r"])
    if job.fmt == "json":
        recs = json.loads(text)
        rows = [(r["snr_db"], r["se_bpshz"], r["ub_bpshz"], r["active_rank"], r["allocation"])
                for r in recs]
    else:
        rows = [(float(a), float(b), float(c), int(e), [float(v) for v in f.split(";")])
                for a, b, c, e, f in _csv_rows(text, ["snr_db", "se_bpshz", "ub_bpshz",
                                                      "active_rank", "allocation"])]
    _require(len(rows) == len(s["snr_db"]), f"{len(rows)} rows for {len(s['snr_db'])} SNRs")
    for i, (snr, se, ub, rank, alloc) in enumerate(rows):
        where = f"row {i + 1}"
        _require(abs(snr - s["snr_db"][i]) <= 1e-9, f"{where}: SNR {snr} != {s['snr_db'][i]}")
        _rate_row(d, s["n_t"], s["n_r"], snr, se, ub, rank, where)
        _allocation(d, alloc, rank, n_modes, where)
    return len(rows)


def _plan_rows(job, text):
    if job.fmt == "json":
        recs = json.loads(text)
        if job.kind == "optimize_angles":
            recs = recs["plan"]
        return [(r["x_value"], r["snr_db"], r["se_bpshz"], r["ub_bpshz"], r["active_rank"],
                 r["config_descriptor"], r.get("error")) for r in recs]
    return [(float(a), float(b), float(c), float(e), int(f), g, None)
            for a, b, c, e, f, g in _csv_rows(text, _SWEEP_HEADER)]


def _check_plan(job, d):
    s = job.spec
    text = _read_text(job.outputs[0])
    rows = _plan_rows(job, text)
    snrs = s["snr_db"]
    _require(len(rows) == len(snrs), f"{len(rows)} rows for {len(snrs)} SNRs")
    prefix = "aosa_r" if job.kind == "optimize_aosa" else "rotation_rad"
    chosen = set()
    for i, (x, snr, se, ub, rank, desc, _) in enumerate(rows):
        where = f"row {i + 1}"
        _require(abs(snr - snrs[i]) <= 1e-9 and x == snr, f"{where}: SNR {snr} != {snrs[i]}")
        _rate_row(d, s["n_t"], s["n_r"], snr, se, ub, rank, where)
        value = _descriptor(d, desc, prefix)
        chosen.add(value)
        if prefix == "aosa_r":
            _require(value == int(value) and value >= 1 and s["n_t"] % int(value) == 0,
                     f"{where}: {desc} is not a subarray count dividing n")
        else:
            _require(0.0 <= value <= math.pi / 2 + 1e-12, f"{where}: angle {value} outside [0, pi/2]")
    if job.kind == "optimize_angles":
        _require(len(chosen) <= 3, f"plan uses {len(chosen)} angles, more than k = 3")
        if job.fmt == "json":
            doc = json.loads(text)
            angles = doc["angles_rad"]
            d.add(angles)
            d.add([doc["worst_case_gap"]])
            _require(len(angles) == 3, "expected k = 3 angles")
            _require(all(any(_close(a, b, 1e-11) for b in angles) for a in chosen),
                     "plan uses an angle outside angles_rad")
            _require(0.0 <= doc["worst_case_gap"] <= 1.0, "worst-case gap outside [0, 1]")
    return len(rows)


def _check_rotation(job, d):
    s = job.spec
    text = _read_text(job.outputs[0])
    n_t, n_r, snr_want = s["n_t"], s["n_r"], s["snr_db"][0]
    if job.fmt == "json":
        doc = json.loads(text)
        angle, rep = doc["angle_rad"], doc["report"]
        snr, se, ub, rank = rep["snr_db"], rep["se_bpshz"], rep["ub_bpshz"], rep["active_rank"]
        _allocation(d, rep["allocation"], rank, min(n_t, n_r), "report")
    else:
        rows = _csv_rows(text, _SWEEP_HEADER)
        _require(len(rows) == 1, f"{len(rows)} rows, expected 1")
        a, b, c, e, f, g = rows[0]
        angle, snr, se, ub, rank = float(a), float(b), float(c), float(e), int(f)
        _require(_close(_descriptor(d, g, "rotation_rad"), angle, 1e-11),
                 "descriptor angle differs from x_value")
    d.add([angle])
    _require(0.0 <= angle <= math.pi / 2 + 1e-12, f"angle {angle} outside [0, pi/2]")
    _require(abs(snr - snr_want) <= 1e-9, f"SNR {snr} != {snr_want}")
    _rate_row(d, n_t, n_r, snr, se, ub, rank, "rotation")
    return 1


def _check_sweep(job, d):
    s = job.spec
    text = _read_text(job.outputs[0])
    label = {"snr": "snr_db", "eta": "eta", "freq": "freq_hz"}[s["var"]]
    if job.fmt == "json":
        recs = json.loads(text)
        rows = [(r["x_value"], r["snr_db"], r["se_bpshz"], r["ub_bpshz"], r["active_rank"],
                 r["config_descriptor"], r.get("error")) for r in recs]
    else:
        rows = []
        for a, b, c, e, f, g in _csv_rows(text, _SWEEP_HEADER):
            _require(c != "nan", f"error row at x = {a}: {g}")
            rows.append((float(a), float(b), float(c), float(e), int(f), g, None))
    grid = s["grid"]
    _require(len(rows) == len(grid), f"{len(rows)} rows for a {len(grid)}-point grid")
    for i, (x, snr, se, ub, rank, desc, err) in enumerate(rows):
        where = f"row {i + 1}"
        _require(err is None and se is not None, f"{where}: error {err}")
        _require(_close(x, grid[i], GRID_RTOL), f"{where}: x {x} != grid {grid[i]}")
        snr_want = x if s["var"] == "snr" else s["snr_db"]
        _require(abs(snr - snr_want) <= 1e-9, f"{where}: SNR {snr} != {snr_want}")
        _rate_row(d, s["n_t"], s["n_r"], snr, se, ub, rank, where)
        _require(_close(_descriptor(d, desc, label), x, 1e-11), f"{where}: descriptor {desc}")
    return len(rows)


# -- channel -----------------------------------------------------------------

def _positions(block):
    n = block["n"]  # per side for a URA
    spacing = block["spacing_m"] if "spacing_m" in block else block["aperture_m"] / n
    c = (np.arange(n) - (n - 1) / 2) * spacing
    if block["type"] == "ula":
        pts = np.column_stack([c, np.zeros(n), np.zeros(n)])
    elif block["type"] == "ura":
        # element order: x runs fastest along each row of the square
        pts = np.column_stack([np.tile(c, n), np.repeat(c, n), np.zeros(n * n)])
    else:
        raise CheckError(f"no reference layout for {block['type']}")
    angle = math.radians(block.get("rotation_deg", 0.0))
    cos, sin = math.cos(angle), math.sin(angle)
    rot = np.array([[cos, 0.0, -sin], [0.0, 1.0, 0.0], [sin, 0.0, cos]])
    return pts @ rot.T


def reference_channel(doc) -> np.ndarray:
    """Channel entries H[n, m] from rx n to tx m by direct evaluation."""
    lam = SPEED_OF_LIGHT_M_S / doc["carrier_hz"]
    k = 2 * math.pi / lam
    tx = _positions(doc["tx"])
    rx = _positions(doc["rx"]) + np.array([0.0, 0.0, doc["distance_m"]])
    delta = rx[:, None, :] - tx[None, :, :]
    if doc["model"] == "spherical":
        dist = np.sqrt((delta ** 2).sum(axis=-1))
    elif doc["model"] == "fresnel":
        dist = delta[..., 2] + (delta[..., 0] ** 2 + delta[..., 1] ** 2) / (2 * doc["distance_m"])
    else:
        raise CheckError(f"no reference for model {doc['model']}")
    return np.exp(-1j * k * dist)


def _check_channel(job, d):
    doc = job.spec["doc"]
    want = reference_channel(doc)
    n_r, n_t = want.shape
    if job.fmt == "json":
        out = json.loads(_read_text(job.outputs[0]))
        meta = out
        got = np.asarray(out["re"], dtype=float) + 1j * np.asarray(out["im"], dtype=float)
        _require(got.shape == want.shape, f"matrix shape {got.shape} != {want.shape}")
    else:
        text = _read_text(job.outputs[0])
        _require(text.startswith("n,m,re,im\n"), "bad channel CSV header")
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        _require(table.shape == (n_r * n_t, 4), f"{table.shape[0]} rows for {n_r * n_t} entries")
        idx = np.indices((n_r, n_t)).reshape(2, -1).T + 1
        _require(np.array_equal(table[:, :2], idx), "entry indices are not 1-based row-major")
        got = (table[:, 2] + 1j * table[:, 3]).reshape(n_r, n_t)
        meta = json.loads(_read_text(job.outputs[1]))
    err = float(np.abs(got - want).max())
    _require(err <= CHANNEL_ATOL, f"entries differ from exp(-jk*dist) by {err:.3g}")
    lam = SPEED_OF_LIGHT_M_S / doc["carrier_hz"]
    _require(meta["n_r"] == n_r and meta["n_t"] == n_t and meta["model"] == doc["model"]
             and _close(meta["wavelength_m"], lam, 1e-15), f"bad channel metadata {meta}")
    d.add(got.real)
    d.add(got.imag)
    d.label(meta["model"])
    return n_r * n_t


# -- phase profile and validity ----------------------------------------------

def _check_phase(job, d):
    s = job.spec
    lam = SPEED_OF_LIGHT_M_S / s["freq"]
    n, step, dist0 = s["steps"], s["step"], s["distance"]
    if job.fmt == "json":
        doc = json.loads(_read_text(job.outputs[0]))
        summary = doc
        x = np.asarray(doc["samples"]["displacement_m"])
        phase = np.asarray(doc["samples"]["phase_rad"])
        fits = [np.asarray(doc["samples"][k]) for k in ("quadratic_fit_rad", "linear_fit_rad")]
    else:
        text = _read_text(job.outputs[0])
        _require(text.startswith("displacement_m,phase_rad,quadratic_fit_rad,linear_fit_rad\n"),
                 "bad phase profile header")
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        x, phase, fits = table[:, 0], table[:, 1], [table[:, 2], table[:, 3]]
        summary = json.loads(_read_text(job.outputs[1]))
    _require(x.size == n and phase.size == n and all(f.size == n for f in fits),
             f"{x.size} samples for {n} steps")
    _require(np.allclose(x, np.arange(n) * step, rtol=GRID_RTOL, atol=0.0),
             "displacements are not i * step")
    if s["direction"] == "transverse":
        pts = np.column_stack([x - (n - 1) / 2 * step, np.zeros(n), np.full(n, dist0)])
        c2_want = -math.pi / (lam * dist0)
    else:
        pts = np.column_stack([np.zeros(n), np.zeros(n), dist0 + x])
        c2_want = 0.0
    raw = -2 * math.pi * np.sqrt((pts ** 2).sum(axis=1)) / lam
    # unwrapping keeps the raw phase up to one constant multiple of 2*pi
    shift = phase - raw
    turns = shift[0] / (2 * math.pi)
    _require(abs(turns - round(turns)) <= PHASE_ATOL
             and np.abs(shift - shift[0]).max() <= PHASE_ATOL,
             "phase is not the unwrapped -2*pi*dist/lambda")
    _require(_close(summary["c2_predicted"], c2_want, 1e-12, 1e-300), "wrong c2_predicted")
    # least-squares fits, recomputed
    scale = max(1.0, float(np.abs(phase).max()))
    c2, c1, c0 = np.polyfit(x, phase, 2)
    b1, b0 = np.polyfit(x, phase, 1)
    curves = (c0 + c1 * x + c2 * x * x, b0 + b1 * x)
    ss_tot = float(((phase - phase.mean()) ** 2).sum())
    for got, want, key in zip(fits, curves, ("r2_quadratic", "r2_linear")):
        _require(np.abs(got - want).max() <= PHASE_ATOL * scale, f"{key[3:]} fit differs")
        ss_res = float(((phase - want) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
        _require(abs(summary[key] - r2) <= PHASE_ATOL, f"{key} {summary[key]} != {r2}")
    _require(abs(summary["c2_fitted"] - c2) <= PHASE_ATOL * scale / float(x[-1]) ** 2,
             f"c2_fitted {summary['c2_fitted']} != {c2}")
    d.add(x)
    d.add(phase)
    for f in fits:
        d.add(f)
    d.add([summary[k] for k in ("c2_fitted", "c2_predicted", "r2_quadratic", "r2_linear")])
    return n


def _check_validity(job, d):
    s = job.spec
    text = _read_text(job.outputs[0])
    if job.fmt == "json":
        rows = [(r["freq_hz"], r["dist_m"], r["regime"]) for r in json.loads(text)]
    else:
        rows = [(float(f), float(m), g) for f, m, g in
                _csv_rows(text, ["freq_hz", "dist_m", "regime"])]
    cells = [(f, m) for f in s["freqs"] for m in s["dists"]]
    _require(len(rows) == len(cells), f"{len(rows)} rows for {len(cells)} cells")
    product = s["tx_aperture"] * s["rx_aperture"]
    values = np.empty((len(rows), 2))
    for i, ((f, m, regime), (f_want, m_want)) in enumerate(zip(rows, cells)):
        _require(_close(f, f_want, GRID_RTOL) and _close(m, m_want, GRID_RTOL),
                 f"row {i + 1}: cell ({f}, {m}) != ({f_want}, {m_want})")
        planar = product < 4 * (SPEED_OF_LIGHT_M_S / f) * m
        _require(regime == ("planar" if planar else "spherical"),
                 f"row {i + 1}: regime {regime!r} at f={f}, d={m}")
        values[i] = f, m
        d.label(regime)
    d.add(values)
    return len(rows)


_CHECKERS = {
    "optimize_angles": _check_plan,
    "optimize_aosa": _check_plan,
    "optimize_rotation": _check_rotation,
    "capacity": _check_capacity,
    "sweep": _check_sweep,
    "channel": _check_channel,
    "phase_profile": _check_phase,
    "validity": _check_validity,
}


def check_job(job):
    """Check a finished job's outputs; returns (rows, fingerprint).

    Raises CheckError when an output is missing, malformed or breaks an
    invariant.
    """
    d = _Digest()
    try:
        rows = _CHECKERS[job.kind](job, d)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc
    return rows, d.fingerprint()
