"""Deterministic CSV/JSON encodings of channel matrices, reports, and sweeps.

Every float prints with 17 significant digits so written values survive a
round trip through text exactly; identical inputs always produce byte
identical output.  JSON text is that of ``json.dumps(obj, indent=2, sort_keys=True)``.
Rate reports, sweep rows and validity maps are written from table columns, a block of rows at a
time: rows of texts alone in one join, rows with numbers to format by a ``%`` template.  Each
writer is a generator function of the text chunks that :func:`write` writes.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .channel import ChannelMatrix, PhaseProfile
from .capacity import RateTable
from .errors import ConfigError
from .optimize import SweepTable


_BLOCK = 4096  # list items or rows per chunk, and per C-encoder call
_NUMBERS = {float, int}


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


def _by_value(values, encode):
    """The texts of the 1-D float array ``values`` in a slice, ``encode`` (array to texts) run
    once per distinct bit pattern, so -0.0 and NaN payloads keep theirs.  None for other dtypes,
    or when over a third of the values are distinct: then the lookups cost more than they save."""
    values = np.ascontiguousarray(values)
    if values.dtype != np.float64:
        return None
    bits = values.view(np.int64)
    keys = np.sort(bits)  # a sort and an adjacent compare: np.unique of 4,096 costs ~20 times more
    new = keys[1:] != keys[:-1]
    if 3 * (np.count_nonzero(new) + 1) > keys.size:
        return None
    distinct = np.concatenate((keys[:1], keys[1:][new]))
    texts = np.array(encode(distinct.view(np.float64)), dtype=object)

    def lookup(s):  # a slice's bits searched in sorted order hit the cache; random ones miss
        order = bits[s].argsort()
        at = np.empty_like(order)
        at[order] = np.searchsorted(distinct, bits[s][order])
        return texts[at]
    return lookup


def _csv_column(values):
    """(row-template field, cells in a slice) of a float column: texts if values repeat."""
    texts = _by_value(values, lambda v: list(map("%.17g".__mod__, v.tolist())))
    return ("%.17g", lambda s: values[s]) if texts is None else ("%s", texts)


def _json_column(values):
    """The JSON texts of the numbers of the 1-D array ``values`` in a slice."""
    return _by_value(values, _numbers) or (lambda s: _numbers(values[s]))


def _joined(count: int, *fields) -> str:
    """``count`` rows, each the texts of ``fields`` in turn (a field is one text, or one a row)."""
    cells = np.empty((count, len(fields)), dtype=object)
    for j, field in enumerate(fields):
        cells[:, j] = field
    return "".join(cells.ravel().tolist())


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
    written as the list of its numbers, a 2-D one (with columns) as the list of its rows.
    """
    close = "\n" + "  " * depth
    pad = close + "  "
    if type(obj) is np.ndarray and obj.ndim == 2 and obj.shape[1]:  # rows, ~a block a chunk
        n, texts = obj.shape[1], _json_column(obj.ravel())

        def block_text(s, pad):
            t, inner = _list(texts(slice(s.start * n, s.stop * n))), pad + "  "
            return ("," + pad).join("[" + inner + ("," + inner).join(t[i:i + n]) + pad + "]"
                                    for i in range(0, len(t), n))
        yield from _items(len(obj), block_text, depth, max(1, _BLOCK // n))
        return
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


def write(out_path, chunks):
    """Write the text ``chunks`` of a writer to ``out_path`` (stdout when empty) as they come."""
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    try:  # a 64 KiB buffer: few writes for a large document, little memory for a small one
        with open(out_path, "w", encoding="utf-8", buffering=1 << 16) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def json_dumps(obj):
    yield from _chunks(obj, 0)
    yield "\n"


def _table(header: str, row_template: str, count: int, rows):
    """CSV text, a chunk a block of ``_BLOCK`` rows: the header, then ``row_template`` filled by
    each of ``count`` rows, ``rows(s)`` giving the cells in slice ``s`` by column."""
    between, text = row_template.split("%s"), header + "\n"
    for i in range(0, max(count, 1), _BLOCK):  # no rows: one empty block, so the header alone
        cells = rows(slice(i, i + _BLOCK))
        if "%" in "".join(between):  # a %.17g cell formats faster so than joined
            yield text + "".join(map(row_template.__mod__, zip(*map(_list, cells))))
        else:  # texts alone, in one join (less the empty texts between fields)
            fields = [f for pair in zip(between, cells) for f in pair if len(f)]
            yield text + _joined(len(cells[0]), *fields, between[-1])
        text = ""


def channel_csv(h: ChannelMatrix):
    n_t, re = h.entries.shape[1], h.entries.real.ravel()
    (f_re, texts_re), (f_im, texts_im) = _csv_column(re), _csv_column(h.entries.imag.ravel())
    n, m = (np.array([f"{i}," for i in range(1, k + 1)], dtype=object) for k in h.entries.shape)

    def rows(s):  # "n," and "m," formatted once per matrix row and column, 1-based
        k = np.arange(s.start, min(s.stop, re.size))  # row-major
        return n[k // n_t], m[k % n_t], texts_re(s), texts_im(s)
    return _table("n,m,re,im", f"%s%s{f_re},{f_im}\n", re.size, rows)


def channel_meta(h: ChannelMatrix) -> dict:
    return {
        "n_r": h.n_r,
        "n_t": h.n_t,
        "wavelength_m": float(h.wavelength_m),
        "model": h.model.value,
    }


def channel_json(h: ChannelMatrix):
    """The channel document: its meta, and the rows of the entries' parts as "re" and "im"."""
    return json_dumps({**channel_meta(h), "re": h.entries.real, "im": h.entries.imag})


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


def phase_profile_csv(profile: PhaseProfile):
    cols = _phase_columns(profile)
    return _table(",".join(cols), "%.17g,%.17g,%.17g,%.17g\n", len(profile.displacements_m),
                  lambda s: [c[s] for c in cols.values()])


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
    inner, sep = pad + "  ", "," + pad
    fields = [f for key, column in zip(keys, columns) for f in ("," + inner + f'"{key}": ', column)]
    return _joined(len(columns[0]), sep + "{" + fields[0][1:], *fields[1:], pad + "}")[len(sep):]


def _snr_db(snrs: np.ndarray) -> np.ndarray:
    """The linear SNRs in dB, each as the scalar ``10.0 * math.log10(snr)`` computes it."""
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


def rate_table_csv(t: RateTable):
    snr_db = _snr_db(t.snrs)
    return _table("snr_db,se_bpshz,ub_bpshz,active_rank,allocation", "%.17g,%.17g,%.17g,%s,%s\n",
                  len(t.ses), lambda s: (snr_db[s], t.ses[s], t.ubs[s], t.ranks[s], (
                      ";".join(map("%.17g".__mod__, f)) for f in t.fractions[s].tolist())))


def rate_table_json(t: RateTable):  # a block holds about _BLOCK allocation numbers
    step = max(1, _BLOCK // t.fractions.shape[1])
    yield from _items(len(t.ses), _rate_rows(_snr_db(t.snrs), t), 0, step)
    yield "\n"


def sweep_table_csv(t: SweepTable):
    def rows(s):  # an error row: NaN SE and bound, rank 0, its text after the descriptor
        text = ((d + " " + t.errors[i] if i in t.errors else d).replace(",", ";").replace("\n", " ")
                for i, d in enumerate(t.descriptors[s], s.start))
        return t.x[s], t.snr_db[s], t.rates.ses[s], t.rates.ubs[s], t.rates.ranks[s], text
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


def sweep_table_json(t: SweepTable):
    yield from _items(len(t.descriptors), _sweep_rows(t), 0)
    yield "\n"


def rotation_json(angle: float, rates: RateTable):
    """The document of a rotation: its angle and the report of the one row of ``rates``."""
    yield '{\n  "angle_rad": ' + _encoder(",")(angle) + ',\n  "report": '
    yield _rate_rows(_snr_db(rates.snrs), rates)(slice(0, 1), "\n  ") + "\n}\n"


def angles_json(angles, worst_case_gap: float, plan: SweepTable):
    """The document of a fixed-angle selection: its angles, its plan and their worst gap."""
    yield '{\n  "angles_rad": '
    yield from _chunks(angles, 1)
    yield ',\n  "plan": '
    yield from _items(len(plan.descriptors), _sweep_rows(plan), 1)
    yield ',\n  "worst_case_gap": ' + _encoder(",")(worst_case_gap) + "\n}\n"


def validity_json(freqs, dists, regimes):
    dist, freq = _json_column(dists), _json_column(freqs)
    texts = {r: encode_basestring_ascii(r) for r in set(regimes)}  # each distinct regime once
    yield from _items(len(freqs), lambda s, pad: _rows_text(pad, ("dist_m", "freq_hz", "regime"),
                      dist(s), freq(s), list(map(texts.__getitem__, _list(regimes[s])))), 0)
    yield "\n"


def validity_csv(freqs, dists, regimes):
    (f_freq, freq), (f_dist, dist) = _csv_column(freqs), _csv_column(dists)
    return _table("freq_hz,dist_m,regime", f"{f_freq},{f_dist},%s\n", len(freqs),
                  lambda s: (freq(s), dist(s), regimes[s]))
