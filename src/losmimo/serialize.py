"""Deterministic CSV/JSON encodings of channel matrices, reports, and sweeps.

Every float prints with 17 significant digits so written values survive a
round trip through text exactly; identical inputs always produce byte
identical output.  JSON text is that of ``json.dumps(obj, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .channel import ChannelMatrix, PhaseProfile, WavefrontModel
from .capacity import RateReport
from .errors import InvalidArgumentError
from .optimize import SweepPoint


_SCALARS = {str, int, float, bool, type(None)}  # flat-dict values the C encoder writes alike


def _indented(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as written ``depth`` levels deep.

    The stdlib indents in pure Python, so dicts and lists of lists or of flat dicts
    are laid out here; other values keep the stdlib text (no encoded string holds a newline).
    """
    close = "\n" + "  " * depth
    pad = close + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = (encode_basestring_ascii(k) + ": " + _indented(v, depth + 1)
                 for k, v in sorted(obj.items()))
        return "{" + pad + ("," + pad).join(items) + close + "}"
    kinds = set(map(type, obj)) if type(obj) is list else set()
    if kinds and kinds <= {float, int}:  # one C-encoder call; its item separator indents
        body = json.JSONEncoder(separators=("," + pad, ": ")).encode(obj)[1:-1]
    elif kinds == {dict} and all(obj) and set(map(type, chain.from_iterable(obj))) == {str} \
            and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _SCALARS:
        inner = pad + "  "  # one C-encoder call; "}," + inner + "{" only sits between rows
        rows = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode(obj)
        body = "{" + inner + rows[2:-2].replace(
            "}," + inner + "{", pad + "}," + pad + "{" + inner) + pad + "}"
    elif kinds == {list}:
        body = ("," + pad).join(_indented(x, depth + 1) for x in obj)
    else:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", close)
    return "[" + pad + body + close + "]"


def json_dumps(obj) -> str:
    return _indented(obj, 0) + "\n"


def _table(header: str, row_template: str, rows) -> str:
    """CSV text: the header, then ``row_template % row`` for each row tuple."""
    return header + "\n" + "".join(map(row_template.__mod__, rows))


def channel_csv(h: ChannelMatrix) -> str:
    n, m = (np.indices(h.entries.shape).reshape(2, -1) + 1).tolist()  # 1-based, row-major
    rows = zip(n, m, h.entries.real.ravel().tolist(), h.entries.imag.ravel().tolist())
    return _table("n,m,re,im", "%d,%d,%.17g,%.17g\n", rows)


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
    """Scan samples with both fits evaluated at each displacement, as lists by column name."""
    x = profile.displacements_m
    c0, c1, c2 = profile.quadratic_fit
    b0, b1 = profile.linear_fit
    return {
        "displacement_m": x.tolist(),
        "phase_rad": profile.phase_rad.tolist(),
        "quadratic_fit_rad": (c0 + c1 * x + c2 * x * x).tolist(),
        "linear_fit_rad": (b0 + b1 * x).tolist(),
    }


def phase_profile_csv(profile: PhaseProfile) -> str:
    cols = _phase_columns(profile)
    return _table(",".join(cols), "%.17g,%.17g,%.17g,%.17g\n", zip(*cols.values()))


def phase_profile_json_doc(profile: PhaseProfile, c2_predicted: float) -> dict:
    return {**phase_summary_dict(profile, c2_predicted), "samples": _phase_columns(profile)}


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
        "allocation": report.allocation.fractions.tolist(),
    }


def rate_reports_json(reports) -> list:
    return [rate_report_dict(r) for r in reports]


def rate_reports_csv(reports) -> str:
    rows = ((r.snr_db, r.spectral_efficiency_bpshz, r.upper_bound_bpshz, r.active_rank,
             ";".join(map("%.17g".__mod__, r.allocation.fractions.tolist()))) for r in reports)
    header = "snr_db,se_bpshz,ub_bpshz,active_rank,allocation"
    return _table(header, "%.17g,%.17g,%.17g,%s,%s\n", rows)


_SWEEP_HEADER = "x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"


def _sanitize(descriptor: str) -> str:
    return descriptor.replace(",", ";").replace("\n", " ")


def _sweep_row(p: SweepPoint) -> tuple:
    r = p.report
    if r is None:  # nan bounds, rank 0, and the error text after the descriptor
        return (p.x_value, p.snr_db, np.nan, np.nan, 0,
                _sanitize(p.config_descriptor + " " + (p.error or "error")))
    return (p.x_value, p.snr_db, r.spectral_efficiency_bpshz, r.upper_bound_bpshz,
            r.active_rank, _sanitize(p.config_descriptor))


def sweep_points_csv(points) -> str:
    return _table(_SWEEP_HEADER, "%.17g,%.17g,%.17g,%.17g,%s,%s\n", map(_sweep_row, points))


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


def rotation_json_doc(plan) -> dict:
    [row] = plan  # a rotation plan has one row
    return {"angle_rad": row.x_value, "report": rate_report_dict(row.report)}


def angles_json_doc(angles, worst_case_gap: float, plan) -> dict:
    return {"angles_rad": angles, "worst_case_gap": worst_case_gap,
            "plan": sweep_points_json(plan)}


def validity_json(rows) -> list:
    return [{"freq_hz": f, "dist_m": d, "regime": r} for f, d, r in rows]


def validity_csv(rows) -> str:
    return _table("freq_hz,dist_m,regime", "%.17g,%.17g,%s\n", rows)
