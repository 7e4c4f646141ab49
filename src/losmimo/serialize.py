"""Deterministic CSV/JSON encodings of channel matrices, reports, and sweeps.

Every float prints with 17 significant digits so written values survive a
round trip through text exactly; identical inputs always produce byte
identical output.  JSON text is that of ``json.dumps(obj, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .channel import ChannelMatrix, PhaseProfile, WavefrontModel
from .capacity import RateReport
from .errors import InvalidArgumentError
from .optimize import SweepPoint


_BLOCK = 4096  # list items per C-encoder call, and CSV rows per chunk
_NUMBERS = {float, int}
_SCALARS = _NUMBERS | {str, bool, type(None)}  # values the C encoder writes as the stdlib does


def _joined(chunks):
    """A writer of the whole text of the generator function ``chunks``, kept as ``.chunks``."""
    text = functools.wraps(chunks)(lambda *args: "".join(chunks(*args)))
    text.chunks = chunks
    return text


@functools.cache  # one per indent
def _encoder(item_separator: str):
    """The C encoder (sorted keys, no indent), its item separator carrying the indent."""
    std = json.JSONEncoder(sort_keys=True, separators=(item_separator, ": "))
    if c_make_encoder is None:
        return std.encode
    encode = c_make_encoder(None, std.default, encode_basestring_ascii, None, ": ",
                            item_separator, True, False, True)
    return lambda obj: "".join(encode(obj, 0))


def _chunks(obj, depth: int):
    """``json.dumps(obj, indent=2, sort_keys=True)`` as written ``depth`` levels deep, in chunks.

    The stdlib indents in pure Python, so dicts and lists are laid out here, with blocks of
    numbers and rows going to the C encoder (no encoded string holds a newline).
    """
    close = "\n" + "  " * depth
    pad = close + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        opening, ending = "{", "}"
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
    elif type(obj) is list and obj:
        opening, ending = "[", "]"
        block = _block_text(obj, pad)
        if block:
            for i in range(0, len(obj), _BLOCK):
                yield ("," if i else "[") + pad + block(obj[i:i + _BLOCK])
            yield close + "]"
            return
        items = [("", x) for x in obj]
    elif type(obj) in (dict, tuple) and obj:  # other keys, or a tuple: the stdlib's text
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", close)
        return
    else:  # a scalar or an empty container: nothing to indent
        yield _encoder(",")(obj)
        return
    for i, (key, value) in enumerate(items):
        yield ("," if i else opening) + pad + key
        yield from _chunks(value, depth + 1)
    yield close + ending


def _block_text(items: list, pad: str):
    """The text of a block of ``items`` laid out as list items at ``pad``, for numbers and
    for rows of scalars and number lists; None for other items."""
    kinds, inner = set(map(type, items)), pad + "  "
    if kinds <= _NUMBERS:
        encode = _encoder("," + pad)
        return lambda block: encode(block)[1:-1]
    if kinds != {dict} or not all(items) or set(map(type, chain.from_iterable(items))) != {str}:
        return None
    values = set(map(type, chain.from_iterable(map(dict.values, items))))
    if values <= _SCALARS:  # one call a block; "}," + inner + "{" only sits between rows
        encode = _encoder("," + inner)
        return lambda block: "{" + inner + encode(block)[2:-2].replace(
            "}," + inner + "{", pad + "}," + pad + "{" + inner) + pad + "}"
    lists = chain.from_iterable(v for row in items for v in row.values() if type(v) is list)
    if not (values <= _SCALARS | {list} and set(map(type, lists)) <= _NUMBERS):
        return None
    deeper = inner + "  "  # one row at a time, one call a value
    encode = _encoder("," + deeper)
    return lambda block: ("," + pad).join(["{" + inner + ("," + inner).join([
        encode_basestring_ascii(k) + ": " + ("[" + deeper + encode(v)[1:-1] + inner + "]"
                                             if type(v) is list and v else encode(v))
        for k, v in sorted(row.items())]) + pad + "}" for row in block])


@_joined
def json_dumps(obj):
    yield from _chunks(obj, 0)
    yield "\n"


def _table(header: str, row_template: str, rows):
    """CSV text, ``_BLOCK`` lines a chunk: the header, then ``row_template % row`` per row tuple."""
    lines = map(row_template.__mod__, rows)
    block = header + "\n" + "".join(islice(lines, _BLOCK))
    while block:
        yield block
        block = "".join(islice(lines, _BLOCK))


@_joined
def channel_csv(h: ChannelMatrix):
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


@_joined
def phase_profile_csv(profile: PhaseProfile):
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


@_joined
def rate_reports_csv(reports):
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


@_joined
def sweep_points_csv(points):
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


@_joined
def validity_csv(rows):
    return _table("freq_hz,dist_m,regime", "%.17g,%.17g,%s\n", rows)
