import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    Archetype,
    ConfigError,
    RateTable,
    SweepTable,
    SweepVariable,
    WavefrontModel,
    build_ula,
    channel_matrix,
    link_scene,
    load_scene_config,
    parse_scene_config,
    sweep,
)
from losmimo.serialize import (
    _BLOCK,
    _RATE_KEYS,
    _SWEEP_KEYS,
    _by_value,
    _rows_text,
    _snr_db,
    angles_json,
    channel_csv,
    channel_json,
    json_dumps,
    phase_profile_csv,
    phase_profile_json_doc,
    rate_table_csv,
    rate_table_json,
    rotation_json,
    sweep_table_csv,
    sweep_table_json,
    validity_csv,
    validity_json,
)

LAM = 1e-3


def _written(writer, *args) -> str:
    """The whole text of a writer: its chunks, joined."""
    return "".join(writer(*args))


def _assert_same_text(got: str, want: str):
    """``got == want``, failing with the first differing line (pytest's diff of two long
    texts takes minutes)."""
    if got != want:
        pairs = enumerate(zip(got.split("\n"), want.split("\n")), 1)
        line = next((i for i, (a, b) in pairs if a != b), None)
        pytest.fail(f"line {line} differs" if line else f"lengths {len(got)} and {len(want)}")


def _validity_columns(rows):
    """The (freqs, dists, regimes) columns of validity-map rows (freq, dist, regime)."""
    f, d, r = zip(*rows) if rows else ((), (), ())
    return np.array(f, dtype=float), np.array(d, dtype=float), np.array(r, dtype=object)


def _channel():
    sc = link_scene(build_ula(3, 0.01), build_ula(2, 0.01), 5.0, LAM)
    return channel_matrix(sc, WavefrontModel.SPHERICAL)


def test_channel_csv_round_trips_exactly():
    h = _channel()
    lines = _written(channel_csv, h).strip().splitlines()
    assert lines[0] == "n,m,re,im"
    assert len(lines) == 1 + h.n_r * h.n_t
    for line in lines[1:]:
        n, m, re, im = line.split(",")
        value = h.entries[int(n) - 1, int(m) - 1]
        # %.17g preserves doubles bit for bit
        assert float(re) == value.real
        assert float(im) == value.imag


def test_channel_csv_is_row_major_one_based():
    h = _channel()
    first = _written(channel_csv, h).splitlines()[1]
    assert first.startswith("1,1,")
    last = _written(channel_csv, h).strip().splitlines()[-1]
    assert last.startswith(f"{h.n_r},{h.n_t},")


def test_channel_json_round_trip():
    h = _channel()
    doc = json.loads(_written(channel_json, h))
    assert np.array_equal(np.array(doc["re"]) + 1j * np.array(doc["im"]), h.entries)
    assert doc["wavelength_m"] == h.wavelength_m
    assert WavefrontModel(doc["model"]) is h.model


def test_json_dumps_is_deterministic():
    doc = {"b": 1.0, "a": [1, 2]}
    text = _written(json_dumps, doc)
    assert text == _written(json_dumps, {"a": [1, 2], "b": 1.0})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_rate_table_csv_layout():
    sc = link_scene(build_ula(3, 0.01), build_ula(2, 0.01), 5.0, LAM)
    plan = sweep(sc, SweepVariable.SNR_DB, np.array([0.0, 10.0]), WavefrontModel.SPHERICAL)
    text = _written(rate_table_csv, plan.rates)
    lines = text.strip().splitlines()
    assert lines[0] == "snr_db,se_bpshz,ub_bpshz,active_rank,allocation"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert len(fields) == 5
    assert ";" in fields[4] or fields[4].count(";") == 0


def _error_row(descriptor, error):
    """A one-row sweep table whose row failed, with the rates a sweep leaves it."""
    nan = np.full(1, np.nan)
    return SweepTable(np.ones(1), np.zeros(1), [descriptor], RateTable(
        np.ones(1), nan, nan, np.full((1, 1), np.nan), np.zeros(1, dtype=int)), {0: error})


def test_sweep_table_csv_sanitizes_and_marks_errors():
    text = _written(sweep_table_csv, _error_row("a,b", "boom, really"))
    lines = text.strip().splitlines()
    assert lines[0] == "x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"
    row = lines[1].split(",")
    assert row[2] == "nan" and row[3] == "nan" and row[4] == "0"
    assert "," not in lines[1].split(",", 5)[5]


def test_sweep_table_json_uses_null_for_failed_points():
    (doc,) = json.loads(_written(sweep_table_json, _error_row("x", "bad geometry")))
    assert doc["se_bpshz"] is None
    assert doc["error"] == "bad geometry"


def _stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_validity_json_is_the_stdlib_layout_of_its_rows():
    rows = [(1e9 * f, d / 3, "planar" if d % 2 else "spherical")
            for f in range(1, 3) for d in range(1, _BLOCK // 2 + 2)]
    for some in (rows[:0], rows[:1], rows):
        want = [{"freq_hz": f, "dist_m": d, "regime": r} for f, d, r in some]
        _assert_same_text(_written(validity_json, *_validity_columns(some)), _stdlib(want))


def test_validity_csv_layout():
    rows = [(1e9, 2.0, "planar"), (3e9, 5.0, "spherical")]
    text = _written(validity_csv, *_validity_columns(rows))
    lines = text.strip().splitlines()
    assert lines[0] == "freq_hz,dist_m,regime"
    assert lines[1].endswith(",planar")
    assert lines[2].endswith(",spherical")


# -- the writers against the stdlib layout and per-cell formatting ------------

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-308, 1e16, 1.8e308]
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIAL)
_text = st.text(st.characters() | st.sampled_from(',\n"\\é€😀'))
_numbers = st.lists(_floats | st.integers(), max_size=8)
_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _floats.map(np.float64) | _text
    | _numbers | st.lists(_numbers, max_size=4),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_json_dumps_matches_the_stdlib_layout(doc):
    _assert_same_text(_written(json_dumps, doc), json.dumps(doc, indent=2, sort_keys=True) + "\n")


# rows as the writers make them (validity maps, sweep and plan rows), with text
# that looks like the row separator, and rows that are not flat
_row_text = _text | st.sampled_from(["}", ",", "{", "\n", "},\n  {", "}, {", '"},\n{"'])
_row_value = st.none() | st.booleans() | st.integers() | _floats | _row_text
_rows = st.lists(
    st.dictionaries(_row_text, _row_value, min_size=1, max_size=4)
    | st.dictionaries(_row_text, _row_value | _floats.map(np.float64) | _numbers, max_size=3),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(_rows, st.integers(0, 2))
def test_json_dumps_lays_out_lists_of_flat_dicts_as_the_stdlib(rows, depth):
    doc = rows
    for _ in range(depth):
        doc = {"rows": doc, "n": len(rows)}
    assert _written(json_dumps, doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_dumps_of_a_validity_map_matches_the_stdlib():
    rows = [{"freq_hz": 1e9 * f, "dist_m": d / 3, "regime": "planar" if d % 2 else "spherical"}
            for f in range(1, 21) for d in range(1, 11)]
    assert _written(json_dumps, rows) == json.dumps(rows, indent=2, sort_keys=True) + "\n"


# documents whose lists sit at the block boundaries of the chunked writers
_LENGTHS = st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])


def _long(items):
    """Lists of a block-boundary length, cycling through a few drawn items."""
    return st.tuples(_LENGTHS, st.lists(items, min_size=1, max_size=4)).map(
        lambda t: [t[1][i % len(t[1])] for i in range(t[0])])


_report_rows = st.fixed_dictionaries({  # rate reports: scalars and a number list
    "snr_db": _floats, "se_bpshz": _floats, "ub_bpshz": _floats,
    "active_rank": st.integers(0, 64), "allocation": _numbers})
_blocks = (_long(_floats | st.integers()) | _long(_report_rows)
           | _long(st.dictionaries(_row_text, _row_value, min_size=1, max_size=3)))
_block_documents = (_blocks | st.lists(_blocks, min_size=1, max_size=2)
                    | st.dictionaries(_text, _blocks | _floats | _report_rows, max_size=3))


@settings(max_examples=40, deadline=None)
@given(_block_documents)
def test_json_chunks_join_to_the_stdlib_layout_at_block_boundaries(doc):
    chunks = list(json_dumps(doc))
    _assert_same_text("".join(chunks), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_json_chunks_hold_at_most_a_block_of_list_items():
    count = 2 * _BLOCK + 1
    for doc, lines in (([0.1] * count, 1), ([{"a": 1.5, "b": "x"}] * count, 4),
                       ([{"a": 1, "b": [0.25, 0.5]}] * count, 7)):
        chunks = list(json_dumps(doc))
        assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert len(chunks) >= 3
        assert max(c.count("\n") for c in chunks) <= _BLOCK * lines + 1


@settings(max_examples=30, deadline=None)
@given(_long(st.tuples(_floats, _floats, st.sampled_from(["planar", "spherical"]))))
def test_csv_chunks_join_to_the_one_string_table_at_block_boundaries(rows):
    chunks = list(validity_csv(*_validity_columns(rows)))
    want = "freq_hz,dist_m,regime\n" + "".join(f"{_fmt(f)},{_fmt(d)},{r}\n"
                                                for f, d, r in rows)
    _assert_same_text("".join(chunks), want)
    _assert_same_text(_written(validity_csv, *_validity_columns(rows)), want)
    assert len(chunks) == max(1, -(-len(rows) // _BLOCK))  # one block: one chunk
    assert max(c.count("\n") for c in chunks) <= _BLOCK + 1


def _fmt(x) -> str:
    """The per-cell reference formatting the CSV writers must reproduce."""
    return format(float(x), ".17g")


def _columns(count):
    return st.lists(_floats, min_size=count, max_size=count).map(np.array)


@st.composite
def _matrices(draw):
    n_r, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    e = np.empty((n_r, n_t), dtype=complex)
    e.real = draw(_columns(n_r * n_t)).reshape(n_r, n_t)
    e.imag = draw(_columns(n_r * n_t)).reshape(n_r, n_t)
    return e


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_channel_csv_matches_per_cell_formatting(e):
    lines = ["n,m,re,im"]
    for n in range(e.shape[0]):
        for m in range(e.shape[1]):
            lines.append(f"{n + 1},{m + 1},{_fmt(e[n, m].real)},{_fmt(e[n, m].imag)}")
    _assert_same_text(_written(channel_csv, SimpleNamespace(entries=e)), "\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(_columns(k), _columns(k))),
       st.tuples(_floats, _floats, _floats), st.tuples(_floats, _floats))
def test_phase_profile_csv_matches_per_cell_formatting(samples, quadratic, linear):
    x, phase = samples
    profile = SimpleNamespace(displacements_m=x, phase_rad=phase,
                              quadratic_fit=quadratic, linear_fit=linear)
    (c0, c1, c2), (b0, b1) = quadratic, linear
    lines = ["displacement_m,phase_rad,quadratic_fit_rad,linear_fit_rad"]
    with np.errstate(all="ignore"):
        for row in zip(x, phase, c0 + c1 * x + c2 * x * x, b0 + b1 * x):
            lines.append(",".join(map(_fmt, row)))
        assert _written(phase_profile_csv, profile) == "\n".join(lines) + "\n"


def _rate_csv(t):
    """A rate table's CSV, cell by cell."""
    lines = ["snr_db,se_bpshz,ub_bpshz,active_rank,allocation"]
    for snr, se, ub, fractions, rank in zip(*(c.tolist() for c in t)):
        alloc = ";".join(_fmt(p) for p in fractions)
        lines.append(f"{_fmt(10.0 * math.log10(snr))},{_fmt(se)},{_fmt(ub)},{rank},{alloc}")
    return "\n".join(lines) + "\n"


def _sweep_csv(t):
    """A sweep table's CSV, cell by cell: an error row has nan SE and bound, rank 0 and its
    error text after the descriptor."""
    lines = ["x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"]
    for i, (x, snr_db, desc, se, ub, rank) in enumerate(zip(
            t.x.tolist(), t.snr_db.tolist(), t.descriptors, t.rates.ses.tolist(),
            t.rates.ubs.tolist(), t.rates.ranks.tolist())):
        if i in t.errors:
            desc = (desc + " " + t.errors[i]).replace(",", ";").replace("\n", " ")
            lines.append(f"{_fmt(x)},{_fmt(snr_db)},nan,nan,0,{desc}")
        else:
            desc = desc.replace(",", ";").replace("\n", " ")
            lines.append(f"{_fmt(x)},{_fmt(snr_db)},{_fmt(se)},{_fmt(ub)},{rank},{desc}")
    return "\n".join(lines) + "\n"


@st.composite
def _drawn_rate_tables(draw):
    """Rate tables of up to 4 rows whose cells are drawn: positive SNRs, any SEs, bounds and
    fractions (1 to 4 modes), ranks 0 to 64."""
    rows, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    snrs = draw(st.lists(st.floats(min_value=5e-324, allow_infinity=False),
                         min_size=rows, max_size=rows))
    ranks = draw(st.lists(st.integers(0, 64), min_size=rows, max_size=rows))
    return RateTable(np.array(snrs, dtype=float), draw(_columns(rows)), draw(_columns(rows)),
                     draw(_columns(rows * n)).reshape(rows, n), np.array(ranks, dtype=int))


@st.composite
def _drawn_sweep_tables(draw):
    """Sweep tables of drawn cells; an error row holds the rates a sweep leaves it."""
    t = draw(_drawn_rate_tables())
    rows = len(t.ses)
    texts = draw(st.lists(st.none() | _text, min_size=rows, max_size=rows))
    errors = {i: e for i, e in enumerate(texts) if e is not None}
    for i in errors:
        t.ses[i], t.ubs[i], t.ranks[i] = np.nan, np.nan, 0
    return SweepTable(draw(_columns(rows)), draw(_columns(rows)),
                      draw(st.lists(_text, min_size=rows, max_size=rows)), t, errors)


@settings(max_examples=100, deadline=None)
@given(_drawn_rate_tables())
def test_rate_table_csv_matches_per_cell_formatting(t):
    assert _written(rate_table_csv, t) == _rate_csv(t)


@settings(max_examples=100, deadline=None)
@given(_drawn_sweep_tables())
def test_sweep_table_csv_matches_per_cell_formatting(t):
    assert _written(sweep_table_csv, t) == _sweep_csv(t)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_floats, _floats, st.sampled_from(["planar", "spherical"])),
                max_size=6))
def test_validity_csv_matches_per_cell_formatting(rows):
    lines = ["freq_hz,dist_m,regime"] + [f"{_fmt(f)},{_fmt(d)},{r}" for f, d, r in rows]
    _assert_same_text(_written(validity_csv, *_validity_columns(rows)), "\n".join(lines) + "\n")


CONFIG = {
    "carrier_hz": 300e9,
    "distance_m": 5.0,
    "model": "fresnel",
    "snr_db": [0.0, 10.0],
    "tx": {"type": "ula", "n": 4, "spacing_m": 0.01},
    "rx": {"type": "ura", "n": 2, "spacing_m": 0.02},
}


def test_parse_scene_config_basics():
    cfg = parse_scene_config(CONFIG)
    assert cfg.model is WavefrontModel.FRESNEL
    assert cfg.snr_db == (0.0, 10.0)
    assert cfg.scene.tx.archetype is Archetype.ULA
    assert cfg.scene.rx.archetype is Archetype.URA
    assert cfg.scene.rx.element_count == 4  # n is the per-side count
    assert cfg.scene.wavelength_m == pytest.approx(299792458.0 / 300e9)


def test_parse_scene_config_scalar_snr_and_aperture_sizing():
    doc = dict(CONFIG)
    doc["snr_db"] = 7.5
    doc["tx"] = {"type": "ula", "n": 4, "aperture_m": 0.04}
    cfg = parse_scene_config(doc)
    assert cfg.snr_db == (7.5,)
    assert cfg.scene.tx.aperture_m == pytest.approx(0.04)


def test_parse_scene_config_rejects_unknown_keys_with_hint():
    doc = dict(CONFIG)
    doc["tx"] = {"type": "ula", "n": 4, "spacin_m": 0.01}
    with pytest.raises(ConfigError, match="spacing_m"):
        parse_scene_config(doc)
    doc = dict(CONFIG)
    doc["distancem"] = 3.0
    with pytest.raises(ConfigError, match="distance_m"):
        parse_scene_config(doc)


def test_parse_scene_config_requires_exactly_one_sizing():
    doc = dict(CONFIG)
    doc["tx"] = {"type": "ula", "n": 4, "spacing_m": 0.01, "aperture_m": 0.04}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_scene_config(doc)
    doc["tx"] = {"type": "ula", "n": 4}
    with pytest.raises(ConfigError):
        parse_scene_config(doc)


def test_parse_scene_config_rejects_bad_model_and_types():
    doc = dict(CONFIG)
    doc["model"] = "parabolic"
    with pytest.raises(ConfigError):
        parse_scene_config(doc)
    doc = dict(CONFIG)
    doc["snr_db"] = []
    with pytest.raises(ConfigError):
        parse_scene_config(doc)
    doc = dict(CONFIG)
    doc["carrier_hz"] = True  # bools are not numbers here
    with pytest.raises(ConfigError):
        parse_scene_config(doc)


def test_parse_scene_config_aosa_block():
    doc = dict(CONFIG)
    doc["tx"] = {
        "type": "aosa",
        "n": 8,
        "n_subarrays": 2,
        "aperture_m": 0.2,
        "element_spacing_m": 1e-4,
    }
    cfg = parse_scene_config(doc)
    assert cfg.scene.tx.archetype is Archetype.AOSA
    assert cfg.scene.tx.subarray_count == 2
    assert cfg.scene.tx.aperture_m == pytest.approx(0.2)
    doc["tx"] = {"type": "aosa", "n": 7, "n_subarrays": 2, "aperture_m": 0.2}
    with pytest.raises(ConfigError):
        parse_scene_config(doc)


def test_parse_scene_config_custom_block_and_rotation():
    doc = dict(CONFIG)
    doc["tx"] = {
        "type": "custom",
        "positions": [[-0.01, 0, 0], [0.01, 0, 0]],
        "rotation_deg": 90.0,
    }
    cfg = parse_scene_config(doc)
    # rotated custom pair points down the link axis
    pts = cfg.scene.tx_positions()
    np.testing.assert_allclose(pts[:, 2], [-0.01, 0.01], atol=1e-12)
    doc["tx"] = {"type": "custom", "positions": [[-0.5, 0, 0], [0.5, 0, 0]], "n": 3}
    with pytest.raises(ConfigError, match="disagrees"):
        parse_scene_config(doc)


def test_parse_scene_config_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_scene_config([1, 2, 3])


def test_load_scene_config_reports_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "carrier_hz": 300e9,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_scene_config(path)
    with pytest.raises(ConfigError):
        load_scene_config(tmp_path / "absent.json")


def test_load_scene_config_round_trip(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(CONFIG))
    cfg = load_scene_config(path)
    assert cfg.scene.separation_m == 5.0


def test_plan_csv_uses_snr_as_x(tmp_path):
    import losmimo

    lam, dist = 1e-3, 10.0
    d = math.sqrt(lam * dist / 4)
    sc = link_scene(build_ula(4, d), build_ula(4, d), dist, lam)
    plan = losmimo.fixed_angle_plan(sc, [0.0], [0.0, 5.0], WavefrontModel.FRESNEL)
    lines = _written(sweep_table_csv, plan).strip().splitlines()
    assert lines[0] == "x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("5,5,")


# -- the column writers against the documents of per-row report and point objects

def _rate_dict(snr_db, se, ub, rank, fractions):
    """A rate report's document as written from report objects."""
    return {"snr_db": snr_db, "se_bpshz": se, "ub_bpshz": ub, "active_rank": rank,
            "allocation": fractions}


def _point_dict(x, snr_db, descriptor, se, ub, rank, error):
    """A sweep point's document as written from point objects: an error row has null rates."""
    rec = {"x_value": x, "snr_db": snr_db, "se_bpshz": se, "ub_bpshz": ub, "active_rank": rank,
           "config_descriptor": descriptor}
    if error is not None:
        rec.update(se_bpshz=None, ub_bpshz=None, active_rank=None, error=error)
    return rec


# row counts at the block boundaries, with few modes; and 1 and 256 modes on few rows (a
# rate-report JSON block holds _BLOCK // 256 = 16 rows of 256 modes)
_SHAPES = st.sampled_from([(0, 2), (1, 1), (1, 256), (17, 256), (_BLOCK - 1, 2), (_BLOCK, 1),
                           (_BLOCK + 1, 3), (7, 4)])
_texts = st.text(st.characters() | st.sampled_from('"\\é€😀\n,'), max_size=12)


@st.composite
def _rate_tables(draw):
    rows, n = draw(_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.lists(_floats, min_size=1, max_size=4))

    def column(*shape):  # random floats, some of them drawn (NaN, inf, -0.0, ...)
        c = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        c.ravel()[rng.integers(0, max(c.size, 1), min(c.size, 3))] = rng.choice(special)
        return c

    snrs = 10.0 ** (rng.uniform(-200.0, 300.0, rows) / 10.0)
    return RateTable(snrs, column(rows), column(rows), column(rows, n),
                     rng.integers(0, n + 1, rows))


def _rate_dicts(t):
    return [_rate_dict(10.0 * math.log10(s), se, ub, rank, f) for s, se, ub, rank, f in zip(
        t.snrs.tolist(), t.ses.tolist(), t.ubs.tolist(), t.ranks.tolist(), t.fractions.tolist())]


@settings(max_examples=40, deadline=None)
@given(_rate_tables())
def test_rate_table_json_is_the_stdlib_layout_of_the_report_documents(t):
    docs = _rate_dicts(t)
    assert _written(rate_table_json, t) == _stdlib(docs)
    assert _written(rate_table_csv, t) == _rate_csv(t)
    if len(docs) == 1:
        angle = float(t.ses[0])
        assert _written(rotation_json, angle, t) == _stdlib(
            {"angle_rad": angle, "report": docs[0]})


@st.composite
def _sweep_tables(draw):
    t = draw(_rate_tables())
    rows = len(t.ses)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = draw(st.lists(_texts, min_size=1, max_size=4))
    descriptors = [texts[i] for i in rng.integers(0, len(texts), rows)]
    errors = {int(i): texts[int(i) % len(texts)] for i in
              rng.choice(rows, rng.integers(0, min(rows, 5) + 1), replace=False)}
    with np.errstate(over="ignore"):  # a drawn value near the float limit overflows to inf
        x, snr_db = t.ses * 3.0, t.ubs.copy()
    for i in errors:  # an error row's rates, as the sweep leaves them
        t.ses[i], t.ubs[i], t.ranks[i] = np.nan, np.nan, 0
    return SweepTable(x, snr_db, descriptors, t, errors)


def _point_dicts(t):
    return [_point_dict(x, s, d, se, ub, rank, t.errors.get(i))
            for i, (x, s, d, se, ub, rank) in enumerate(zip(
                t.x.tolist(), t.snr_db.tolist(), t.descriptors, t.rates.ses.tolist(),
                t.rates.ubs.tolist(), t.rates.ranks.tolist()))]


@settings(max_examples=40, deadline=None)
@given(_sweep_tables(), st.lists(_floats, max_size=4), _floats)
def test_sweep_table_json_is_the_stdlib_layout_of_the_point_documents(t, angles, gap):
    docs = _point_dicts(t)
    assert _written(sweep_table_json, t) == _stdlib(docs)
    assert _written(angles_json, angles, gap, t) == _stdlib(
        {"angles_rad": angles, "plan": docs, "worst_case_gap": gap})
    assert _written(sweep_table_csv, t) == _sweep_csv(t)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-200.0, 300.0), max_size=50))
def test_table_snr_db_is_the_report_snr_db_bit_for_bit(snr_db):
    snrs = np.array([10.0 ** (s / 10.0) for s in snr_db])
    assert _snr_db(snrs).tolist() == [10.0 * math.log10(s) for s in snrs.tolist()]


@pytest.mark.parametrize("steps", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_phase_profile_json_writes_its_array_columns_as_lists(steps):
    x = np.linspace(-1e-3, 1e-3, steps)
    profile = SimpleNamespace(displacements_m=x, phase_rad=np.sin(x * 1e3) * 7.0,
                              quadratic_fit=(0.5, -1.5, 3e5), linear_fit=(0.25, 1e-2),
                              r2_quadratic=0.9, r2_linear=0.1)
    doc = phase_profile_json_doc(profile, -2.5)
    want = {k: v for k, v in doc.items() if k != "samples"}
    want["samples"] = {k: v.tolist() for k, v in doc["samples"].items()}
    assert _written(json_dumps, doc) == _stdlib(want)


# -- the writers' distinct-value path: each bit pattern encoded once -----------

def _float_of(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# -0.0 beside 0.0 and NaNs of three payloads (one negative): equal or unordered as floats,
# distinct as bits; each must keep its own text
_POOL = [0.0, -0.0, math.nan, _float_of(0x7FF8000000000001), _float_of(0xFFF8000000000002),
         math.inf, -math.inf, 5e-324, -5e-324, 1.8e308, 0.1, -1.0 / 3.0, 1e16]
_pooled = st.sampled_from(_POOL)
_distinct = st.lists(_floats, unique_by=lambda x: np.float64(x).view(np.int64).item())
# columns of block-boundary lengths from a few pool values, short ones with a few values
# from anywhere, columns with no repeat, and empty ones
_repeating = (_long(_pooled) | st.lists(_pooled | _floats, max_size=40)
              | _distinct | st.just([]))


def _pair(draw, count):
    """Two columns of ``count`` values each, of ``_repeating``'s kinds."""
    cols = []
    for _ in range(2):
        col = draw(_repeating)
        cols.append(np.array([col[i % len(col)] for i in range(count)] if col else [0.0] * count,
                             dtype=float))
    return cols


def test_a_column_takes_the_lookup_path_when_values_repeat():
    values = np.array(_POOL * 3)
    texts = _by_value(values, lambda v: list(map("%.17g".__mod__, v.tolist())))
    assert texts(slice(1, None)).tolist() == [_fmt(x) for x in values[1:]]
    assert _by_value(np.arange(4.0), str) is None  # no repeat: the per-cell path
    assert _by_value(np.zeros(0), str) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validity_writers_match_per_cell_texts_with_repeated_values(data):
    count = data.draw(st.sampled_from([0, 1, 2, 7, 40, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    freqs, dists = _pair(data.draw, count)
    regimes = np.array(["planar", "spherical"] * count, dtype=object)[:count]
    rows = list(zip(freqs.tolist(), dists.tolist(), regimes.tolist()))
    csv = ["freq_hz,dist_m,regime"] + [f"{_fmt(f)},{_fmt(d)},{r}" for f, d, r in rows]
    _assert_same_text(_written(validity_csv, freqs, dists, regimes), "\n".join(csv) + "\n")
    want = [{"freq_hz": f, "dist_m": d, "regime": r} for f, d, r in rows]
    _assert_same_text(_written(validity_json, freqs, dists, regimes), _stdlib(want))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 5), st.sampled_from([0, 1, 3, 64, _BLOCK + 1]))
def test_channel_writers_match_per_cell_texts_with_repeated_values(data, n_r, n_t):
    re, im = _pair(data.draw, n_r * n_t)
    e = np.empty((n_r, n_t), dtype=complex)
    e.real, e.imag = re.reshape(n_r, n_t), im.reshape(n_r, n_t)
    h = SimpleNamespace(entries=e, n_r=n_r, n_t=n_t, wavelength_m=1e-3,
                        model=WavefrontModel.SPHERICAL)
    lines = ["n,m,re,im"] + [f"{n + 1},{m + 1},{_fmt(e[n, m].real)},{_fmt(e[n, m].imag)}"
                             for n in range(n_r) for m in range(n_t)]
    _assert_same_text(_written(channel_csv, h), "\n".join(lines) + "\n")
    want = {"n_r": n_r, "n_t": n_t, "wavelength_m": 1e-3, "model": "spherical",
            "re": e.real.tolist(), "im": e.imag.tolist()}
    _assert_same_text(_written(channel_json, h), _stdlib(want))


@pytest.mark.parametrize("n_r, n_t", [(1, 1), (130, 100), (3, _BLOCK + 5), (2 * _BLOCK + 1, 2)])
@pytest.mark.parametrize("repeating", [False, True])
def test_channel_json_chunks_hold_about_a_block_of_numbers(n_r, n_t, repeating):
    k = np.arange(n_r * n_t) % 7 if repeating else np.arange(n_r * n_t)
    e = np.exp(1j * (0.1 + 1e-3 * k)).reshape(n_r, n_t)
    h = SimpleNamespace(entries=e, n_r=n_r, n_t=n_t, wavelength_m=1e-3,
                        model=WavefrontModel.SPHERICAL)
    chunks = list(channel_json(h))
    _assert_same_text("".join(chunks), _stdlib({"n_r": n_r, "n_t": n_t, "wavelength_m": 1e-3,
                                                "model": "spherical", "re": e.real.tolist(),
                                                "im": e.imag.tolist()}))
    numbers = [sum(line.strip(" ,[]{}") != "" and '"' not in line
                   for line in c.split("\n")) for c in chunks]
    assert sum(numbers) == 2 * e.size + 3  # the entries' parts, n_r, n_t and wavelength_m
    assert max(numbers) <= max(_BLOCK, n_t)  # whole rows, one when a row is longer


@pytest.mark.parametrize("n_r, n_t", [(1, 1), (130, 100), (3, _BLOCK + 5), (2 * _BLOCK + 1, 2)])
@pytest.mark.parametrize("repeating", [(True, True), (False, False), (True, False)])
def test_channel_csv_chunks_hold_at_most_a_block_of_rows(n_r, n_t, repeating):
    k = np.arange(n_r * n_t)
    e = np.empty((n_r, n_t), dtype=complex)  # a part of 7 values (the lookup path) or all distinct
    e.real, e.imag = (np.cos(0.1 + 1e-3 * (k % 7 if r else k)).reshape(n_r, n_t) for r in repeating)
    chunks = list(channel_csv(SimpleNamespace(entries=e)))
    lines = ["n,m,re,im"] + [f"{i // n_t + 1},{i % n_t + 1},{_fmt(re)},{_fmt(im)}" for i, (re, im)
                             in enumerate(zip(e.real.ravel().tolist(), e.imag.ravel().tolist()))]
    _assert_same_text("".join(chunks), "\n".join(lines) + "\n")
    rows = [c.count("\n") for c in chunks]
    rows[0] -= 1  # the header rides with the first block
    assert sum(rows) == e.size and max(rows) <= _BLOCK


def test_lookups_are_per_block_and_do_not_depend_on_their_order():
    # -0.0 and NaNs of three payloads among values spread over many blocks, looked up by
    # slices taken back to front, across block boundaries and over the whole column
    special = [-0.0, 0.0, math.nan, _float_of(0x7FF8000000000001), _float_of(0xFFF8000000000002)]
    values = np.array([special[i % 5] if i % 3 else (i % 97) / 7 for i in range(3 * _BLOCK + 11)])
    slices = [slice(i, i + 1000) for i in range(0, values.size, 1000)]
    slices += [slice(_BLOCK - 5, 2 * _BLOCK + 5), slice(0, None), slice(7, 8)]
    for encode, each in ((lambda v: list(map("%.17g".__mod__, v.tolist())), _fmt),
                         (lambda v: [json.dumps(x) for x in v.tolist()], json.dumps)):
        texts = _by_value(values, encode)
        for s in reversed(slices):
            assert texts(s).tolist() == [each(x) for x in values[s].tolist()], s


@pytest.mark.parametrize("count", [0, 1, 2, _BLOCK + 1])
def test_rows_text_is_a_per_row_template_of_its_columns(count):
    # the one-row report of a rotation document (pad "\n  ") and the rows of sweep and rate
    # tables, with texts that look like template fields and row separators
    cells = ["0", "null", "%s", "%d", '"a,\\n"', "}", "[\n    1.5\n  ]"]
    for pad in ("\n  ", "\n    "):
        for keys in (_RATE_KEYS, _SWEEP_KEYS, ("dist_m", "freq_hz", "regime")):
            columns = [[cells[(i + j) % len(cells)] for i in range(count)] for j in range(len(keys))]
            columns[0] = np.array(columns[0], dtype=object)  # a column may be an array of texts
            inner = pad + "  "
            row = "{" + inner + ("," + inner).join(f'"{k}": %s' for k in keys) + pad + "}"
            want = ("," + pad).join(row % tuple(c[i] for c in columns) for i in range(count))
            _assert_same_text(_rows_text(pad, keys, *columns), want)
