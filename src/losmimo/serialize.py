"""Deterministic CSV/JSON encodings of channel matrices, reports, and sweeps.

Every float prints with 17 significant digits so written values survive a
round trip through text exactly; identical inputs always produce byte
identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .channel import ChannelMatrix, PhaseProfile, WavefrontModel
from .capacity import RateReport
from .errors import InvalidArgumentError
from .optimize import SweepPoint


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def channel_csv(h: ChannelMatrix) -> str:
    lines = ["n,m,re,im"]
    e = h.entries
    for n in range(e.shape[0]):
        for m in range(e.shape[1]):
            lines.append(f"{n + 1},{m + 1},{fmt(e[n, m].real)},{fmt(e[n, m].imag)}")
    return "\n".join(lines) + "\n"


def channel_meta(h: ChannelMatrix) -> dict:
    return {
        "n_r": h.n_r,
        "n_t": h.n_t,
        "wavelength_m": float(h.wavelength_m),
        "model": h.model.value,
    }


def channel_json_doc(h: ChannelMatrix) -> dict:
    doc = channel_meta(h)
    doc["re"] = h.entries.real.tolist()
    doc["im"] = h.entries.imag.tolist()
    return doc


def parse_channel_json(doc: dict) -> ChannelMatrix:
    try:
        entries = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(
            doc["im"], dtype=float
        )
        return ChannelMatrix(
            entries, float(doc["wavelength_m"]), WavefrontModel(doc["model"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed channel document: {exc}") from exc


def _phase_columns(profile: PhaseProfile) -> dict:
    """Scan samples with both fits evaluated at each displacement, by column name."""
    x = profile.displacements_m
    c0, c1, c2 = profile.quadratic_fit
    b0, b1 = profile.linear_fit
    return {
        "displacement_m": x,
        "phase_rad": profile.phase_rad,
        "quadratic_fit_rad": c0 + c1 * x + c2 * x * x,
        "linear_fit_rad": b0 + b1 * x,
    }


def phase_profile_csv(profile: PhaseProfile) -> str:
    cols = _phase_columns(profile)
    lines = [",".join(cols)]
    for x, phase, quad, lin in zip(*cols.values()):
        lines.append(f"{fmt(x)},{fmt(phase)},{fmt(quad)},{fmt(lin)}")
    return "\n".join(lines) + "\n"


def phase_summary_dict(profile: PhaseProfile, c2_predicted: float) -> dict:
    return {
        "c2_fitted": profile.quadratic_fit[2],
        "c2_predicted": float(c2_predicted),
        "r2_quadratic": profile.r2_quadratic,
        "r2_linear": profile.r2_linear,
    }


def rate_report_dict(report: RateReport) -> dict:
    return {
        "snr_db": report.snr_db,
        "se_bpshz": report.spectral_efficiency_bpshz,
        "ub_bpshz": report.upper_bound_bpshz,
        "active_rank": report.active_rank,
        "allocation": [float(p) for p in report.allocation.fractions],
    }


def rate_reports_csv(reports) -> str:
    lines = ["snr_db,se_bpshz,ub_bpshz,active_rank,allocation"]
    for r in reports:
        alloc = ";".join(fmt(p) for p in r.allocation.fractions)
        lines.append(
            f"{fmt(r.snr_db)},{fmt(r.spectral_efficiency_bpshz)},"
            f"{fmt(r.upper_bound_bpshz)},{r.active_rank},{alloc}"
        )
    return "\n".join(lines) + "\n"


_SWEEP_HEADER = "x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"


def _sanitize(descriptor: str) -> str:
    return descriptor.replace(",", ";").replace("\n", " ")


def sweep_points_csv(points) -> str:
    lines = [_SWEEP_HEADER]
    for p in points:
        desc = p.config_descriptor
        if p.report is None:
            err = p.error or "error"
            lines.append(
                f"{fmt(p.x_value)},{fmt(p.snr_db)},nan,nan,0,{_sanitize(desc + ' ' + err)}"
            )
        else:
            r = p.report
            lines.append(
                f"{fmt(p.x_value)},{fmt(p.snr_db)},{fmt(r.spectral_efficiency_bpshz)},"
                f"{fmt(r.upper_bound_bpshz)},{r.active_rank},{_sanitize(desc)}"
            )
    return "\n".join(lines) + "\n"


def sweep_point_dict(p: SweepPoint) -> dict:
    rec = {
        "x_value": float(p.x_value),
        "snr_db": float(p.snr_db),
        "se_bpshz": None,
        "ub_bpshz": None,
        "active_rank": None,
        "config_descriptor": p.config_descriptor,
    }
    if p.report is not None:
        rec["se_bpshz"] = p.report.spectral_efficiency_bpshz
        rec["ub_bpshz"] = p.report.upper_bound_bpshz
        rec["active_rank"] = p.report.active_rank
    if p.error is not None:
        rec["error"] = p.error
    return rec


def sweep_points_json(points) -> list:
    return [sweep_point_dict(p) for p in points]


def validity_csv(rows) -> str:
    lines = ["freq_hz,dist_m,regime"]
    for freq_hz, dist_m, regime in rows:
        lines.append(f"{fmt(freq_hz)},{fmt(dist_m)},{regime}")
    return "\n".join(lines) + "\n"
