"""Deterministic CSV/JSON encodings of channel matrices, reports, and sweeps.

Every float prints with 17 significant digits so written values survive a
round trip through text exactly; identical inputs always produce byte
identical output.  JSON text is that of ``json.dumps(obj, indent=2, sort_keys=True)``.
Rate reports and sweep rows are written from the columns of a table, a block
of rows at a time.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .channel import ChannelMatrix, PhaseProfile, WavefrontModel
from .capacity import RateTable
from .errors import InvalidArgumentError
from .optimize import SweepTable


_BLOCK = 4096  # list items or rows per chunk, and per C-encoder call
_NUMBERS = {float, int}


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


def _list(values) -> list:
    """``values``, an array or a list, as a list."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _numbers(values) -> list[str]:
    """The JSON text of each number of ``values`` (an array or a list), in one C-encoder call."""
    values = _list(values)
    return _encoder(",")(values)[1:-1].split(",") if values else []


def _items(count: int, block_text, depth: int, step: int = _BLOCK):
    """A JSON list of ``count`` items ``depth`` levels deep, a chunk a block of ``step`` items:
    ``block_text(s, pad)`` is the text of the items in slice ``s``, laid out at ``pad``."""
    if not count:
        yield "[]"
        return
    close = "\n" + "  " * depth
    pad = close + "  "
    for i in range(0, count, step):
        yield ("," if i else "[") + pad + block_text(slice(i, i + step), pad)
    yield close + "]"


def _chunks(obj, depth: int):
    """``json.dumps(obj, indent=2, sort_keys=True)`` as written ``depth`` levels deep, in chunks.

    The stdlib indents in pure Python, so dicts and lists are laid out here, with blocks of
    numbers going to the C encoder (no encoded string holds a newline).  A 1-D float array is
    written as the list of its numbers.
    """
    close = "\n" + "  " * depth
    pad = close + "  "
    if type(obj) is np.ndarray or type(obj) is list and obj and set(map(type, obj)) <= _NUMBERS:
        yield from _items(len(obj), lambda s, pad: _encoder("," + pad)(_list(obj[s]))[1:-1], depth)
        return
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        opening, ending = "{", "}"
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
    elif type(obj) is list and obj:
        opening, ending = "[", "]"
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


@_joined
def json_dumps(obj):
    yield from _chunks(obj, 0)
    yield "\n"


def _table(header: str, row_template: str, count: int, rows):
    """CSV text, a chunk a block of ``_BLOCK`` rows: the header, then ``row_template % row``
    for each of the ``count`` row tuples, ``rows(s)`` giving those in slice ``s``."""
    text = header + "\n"
    for i in range(0, count, _BLOCK):
        yield text + "".join(map(row_template.__mod__, rows(slice(i, i + _BLOCK))))
        text = ""
    if text:
        yield text


def _columns(*columns):
    """``rows`` for :func:`_table`: the row tuples of the columns (arrays or lists) in a slice."""
    return lambda s: zip(*(_list(c[s]) for c in columns))


@_joined
def channel_csv(h: ChannelMatrix):
    n, m = np.indices(h.entries.shape).reshape(2, -1) + 1  # 1-based, row-major
    return _table("n,m,re,im", "%d,%d,%.17g,%.17g\n", n.size,
                  _columns(n, m, h.entries.real.ravel(), h.entries.imag.ravel()))


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
    """Scan samples with both fits evaluated at each displacement, as arrays by column name."""
    x = profile.displacements_m
    c0, c1, c2 = profile.quadratic_fit
    b0, b1 = profile.linear_fit
    return {
        "displacement_m": x,
        "phase_rad": profile.phase_rad,
        "quadratic_fit_rad": c0 + c1 * x + c2 * x * x,
        "linear_fit_rad": b0 + b1 * x,
    }


@_joined
def phase_profile_csv(profile: PhaseProfile):
    cols = _phase_columns(profile)
    return _table(",".join(cols), "%.17g,%.17g,%.17g,%.17g\n", len(profile.displacements_m),
                  _columns(*cols.values()))


def phase_profile_json_doc(profile: PhaseProfile, c2_predicted: float) -> dict:
    return {**phase_summary_dict(profile, c2_predicted), "samples": _phase_columns(profile)}


def phase_summary_dict(profile: PhaseProfile, c2_predicted: float) -> dict:
    return {
        "c2_fitted": profile.quadratic_fit[2],
        "c2_predicted": float(c2_predicted),
        "r2_quadratic": profile.r2_quadratic,
        "r2_linear": profile.r2_linear,
    }


_RATE_KEYS = ("active_rank", "allocation", "se_bpshz", "snr_db", "ub_bpshz")
_SWEEP_KEYS = ("active_rank", "config_descriptor", "se_bpshz", "snr_db", "ub_bpshz", "x_value")


def _rows_text(pad: str, keys, *columns) -> str:
    """Flat JSON rows as list items at ``pad``, row i holding "keys[k]": columns[k][i] (text)."""
    inner = pad + "  "
    row = "{" + inner + ("," + inner).join(f'"{k}": %s' for k in keys) + pad + "}"
    return ("," + pad).join(map(row.__mod__, zip(*columns)))


def _snr_db(snrs: np.ndarray) -> np.ndarray:
    """The linear SNRs in dB, each as :attr:`RateReport.snr_db` computes it."""
    return 10.0 * np.fromiter(map(math.log10, snrs), float, snrs.size)


def _rate_rows(snr_db, t: RateTable):
    """The ``block_text`` (see :func:`_items`) of the rows of ``t`` as report objects."""
    n = t.fractions.shape[1]

    def block_text(s, pad):
        inner, deeper = pad + "  ", pad + "    "
        f = _numbers(t.fractions[s].ravel())  # one call a block
        allocation = ["[" + deeper + ("," + deeper).join(f[i:i + n]) + inner + "]"
                      for i in range(0, len(f), n)]
        return _rows_text(pad, _RATE_KEYS, _numbers(t.ranks[s]), allocation,
                          _numbers(t.ses[s]), _numbers(snr_db[s]), _numbers(t.ubs[s]))
    return block_text


@_joined
def rate_table_csv(t: RateTable):
    snr_db = _snr_db(t.snrs)

    def rows(s):
        allocation = (";".join(map("%.17g".__mod__, f)) for f in t.fractions[s].tolist())
        return zip(snr_db[s].tolist(), t.ses[s].tolist(), t.ubs[s].tolist(),
                   t.ranks[s].tolist(), allocation)
    return _table("snr_db,se_bpshz,ub_bpshz,active_rank,allocation",
                  "%.17g,%.17g,%.17g,%s,%s\n", len(t.ses), rows)


@_joined
def rate_table_json(t: RateTable):  # a block holds about _BLOCK allocation numbers
    step = max(1, _BLOCK // t.fractions.shape[1])
    yield from _items(len(t.ses), _rate_rows(_snr_db(t.snrs), t), 0, step)
    yield "\n"


@_joined
def sweep_table_csv(t: SweepTable):
    def rows(s):  # an error row: NaN SE and bound, rank 0, its text after the descriptor
        text = (d if i not in t.errors else d + " " + t.errors[i]
                for i, d in enumerate(t.descriptors[s], s.start))
        return zip(t.x[s].tolist(), t.snr_db[s].tolist(), t.rates.ses[s].tolist(),
                   t.rates.ubs[s].tolist(), t.rates.ranks[s].tolist(),
                   (d.replace(",", ";").replace("\n", " ") for d in text))
    return _table("x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor",
                  "%.17g,%.17g,%.17g,%.17g,%s,%s\n", len(t.descriptors), rows)


def _sweep_rows(t: SweepTable):
    """The ``block_text`` (see :func:`_items`) of the rows of ``t`` as sweep-point objects."""
    def block_text(s, pad):
        rank, ses, ubs = (_numbers(c[s]) for c in (t.rates.ranks, t.rates.ses, t.rates.ubs))
        desc = list(map(encode_basestring_ascii, t.descriptors[s]))
        for j, i in enumerate(range(s.start, s.start + len(desc)) if t.errors else ()):
            if i in t.errors:  # null SE, bound and rank, and the text under "error"
                rank[j] = ses[j] = ubs[j] = "null"
                desc[j] += "," + pad + '  "error": ' + encode_basestring_ascii(t.errors[i])
        return _rows_text(pad, _SWEEP_KEYS, rank, desc, ses, _numbers(t.snr_db[s]), ubs,
                          _numbers(t.x[s]))
    return block_text


@_joined
def sweep_table_json(t: SweepTable):
    yield from _items(len(t.descriptors), _sweep_rows(t), 0)
    yield "\n"


@_joined
def rotation_json(angle: float, rates: RateTable):
    """The document of a rotation: its angle and the report of the one row of ``rates``."""
    yield '{\n  "angle_rad": ' + _encoder(",")(angle) + ',\n  "report": '
    yield _rate_rows(_snr_db(rates.snrs), rates)(slice(0, 1), "\n  ") + "\n}\n"


@_joined
def angles_json(angles, worst_case_gap: float, plan: SweepTable):
    """The document of a fixed-angle selection: its angles, its plan and their worst gap."""
    yield '{\n  "angles_rad": '
    yield from _chunks(angles, 1)
    yield ',\n  "plan": '
    yield from _items(len(plan.descriptors), _sweep_rows(plan), 1)
    yield ',\n  "worst_case_gap": ' + _encoder(",")(worst_case_gap) + "\n}\n"


@_joined
def validity_json(rows):
    def block_text(s, pad):
        f, d, r = zip(*rows[s])
        return _rows_text(pad, ("dist_m", "freq_hz", "regime"), _numbers(list(d)),
                          _numbers(list(f)), map(encode_basestring_ascii, r))
    yield from _items(len(rows), block_text, 0)
    yield "\n"


@_joined
def validity_csv(rows):
    return _table("freq_hz,dist_m,regime", "%.17g,%.17g,%s\n", len(rows), lambda s: rows[s])
