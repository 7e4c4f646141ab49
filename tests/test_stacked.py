"""Stacked kernels against the one-variant code they replace, bit for bit, plus
the model identities they must keep (KKT waterfilling, rigid-motion and
reciprocity invariance of the spectrum).  The per-axis pair offsets of the
channel kernel and of the CUSTOM diameter are held to the (..., 3) offset
tensor they replace, bit for bit, and stacked sweeps to the per-point loop.  The
golden-section lookahead is held to the scalar search's steps, results and errors."""

import math
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losmimo import (
    Archetype,
    DegenerateGeometryError,
    NoSignalError,
    IncompatibleModeError,
    InvalidArgumentError,
    LosMimoError,
    RigidPose,
    SPEED_OF_LIGHT_M_S,
    SweepVariable,
    UnsupportedArchetypeError,
    WavefrontModel,
    aosa_schedule,
    build_aosa,
    build_uca,
    build_ula,
    build_ura,
    channel_matrix,
    custom_layout,
    fixed_angle_plan,
    gain_spectrum,
    link_scene,
    optimize_rotation,
    rotate_in_link_plane,
    select_fixed_angles,
    sweep,
    transpose_scene,
)
from losmimo import _search, geometry, optimize
from losmimo import capacity
from losmimo.capacity import (
    _LN2,
    _ZERO_GAIN_RTOL,
    _bound,
    _check_rows,
    _prefix_table,
    _rate_table,
    _squared_singular_values,
    _waterfill,
    capacity_upper_bound,
)
from losmimo.channel import _MIN_PAIR_DISTANCE_M, _channel_entries, _pair_distances
from losmimo.geometry import (
    _check_axial,
    _link_plane_rotation,
    _posed_points,
    recompute_aperture,
)

MODELS = list(WavefrontModel)


# -- references: the one-variant bodies the stacked kernels replaced ----------

def _waterfill_alone(g, snr_linear):
    """Waterfilling of one row of descending gains, as written before stacking."""
    n_active = int(np.count_nonzero(g > _ZERO_GAIN_RTOL * g[0]))
    inv = 1.0 / (snr_linear * g[:n_active])
    fractions = np.zeros(g.size)
    for k in range(n_active, 0, -1):
        mu = (1.0 + inv[:k].sum()) / k
        if mu - inv[k - 1] > 0:
            fractions[:k] = mu - inv[:k]
            break
    else:
        fractions[0] = 1.0
    fractions /= fractions.sum()
    se = float(np.log1p(snr_linear * fractions[:n_active] * g[:n_active]).sum() / _LN2)
    return fractions, se


def _report_alone(g, n_t, n_r, snr_linear):
    """The rate row of one row of gains at one SNR: the bound checks the SNR first, then the
    row is waterfilled alone."""
    ub = capacity_upper_bound(n_t, n_r, snr_linear)
    fractions, se = _waterfill_alone(g, snr_linear)
    return _checked_row(snr_linear, se, ub, fractions)


def _checked_row(snr, se, ub, f):
    """One rate row as a tuple in the order of the rate table's columns (the fractions as a
    list, the active rank counted), or the first failing check of :func:`_row_error_alone`
    raised."""
    if error := _row_error_alone(f, se, ub):
        raise InvalidArgumentError(error)
    return snr, se, ub, f.tolist(), int(np.count_nonzero(f > 0))


def _pair_offsets_alone(tx, rx):
    """Pair offsets as one (..., n_r, n_t, 3) tensor and their lengths, as written
    before the per-axis planes."""
    delta = rx[..., :, None, :] - tx[..., None, :, :]
    dist = np.sqrt((delta**2).sum(axis=-1))
    if dist.min() <= _MIN_PAIR_DISTANCE_M:
        raise DegenerateGeometryError(
            f"arrays intersect: minimum pair distance {dist.min():.3e} m"
        )
    return delta, dist


def _pair_distances_alone(tx, rx):
    """What the Fresnel model read from the offset tensor: the squared transverse
    offset, the axial offset, and the pair lengths."""
    delta, dist = _pair_offsets_alone(tx, rx)
    return delta[..., 0] ** 2 + delta[..., 1] ** 2, delta[..., 2], dist


def _channel_entries_alone(tx, rx, wavelength_m, model):
    """The channel kernel on the offset tensor, as written before the per-axis planes."""
    k = 2 * np.pi / wavelength_m
    delta, dist = _pair_offsets_alone(tx, rx)
    c_t, c_r = tx.mean(axis=-2), rx.mean(axis=-2)
    if model is WavefrontModel.SPHERICAL:
        if not np.all(np.isfinite(dist)) or np.any(dist <= 0):
            raise InvalidArgumentError("distances must be finite and positive")
        entries = np.exp(-1j * k * dist)
    elif model is WavefrontModel.FRESNEL:
        sign = np.where(c_r[..., 2] >= c_t[..., 2], 1.0, -1.0)[..., None, None]
        zeta = delta[..., 2] * sign
        if zeta.min() <= 0:
            raise DegenerateGeometryError(
                "Fresnel expansion needs every pair separated along the link axis"
            )
        d_axial = (c_r[..., 2] - c_t[..., 2])[..., None, None] * sign
        transverse = delta[..., 0] ** 2 + delta[..., 1] ** 2
        entries = np.exp(-1j * k * (zeta + transverse / (2 * d_axial)))
    else:
        axis = c_r - c_t
        d_hat = np.sqrt((axis**2).sum(axis=-1))
        if d_hat.min() <= _MIN_PAIR_DISTANCE_M:
            raise DegenerateGeometryError("array centroids coincide")
        u = (axis / d_hat[..., None])[..., :, None]
        proj_r = ((rx - c_r[..., None, :]) @ u)[..., 0]
        proj_t = ((tx - c_t[..., None, :]) @ u)[..., 0]
        if ((d_hat + proj_r.min(axis=-1)) - proj_t.max(axis=-1)).min() <= 0:
            raise DegenerateGeometryError(
                "planar expansion needs every pair separated along the link axis"
            )
        outer = np.exp(-1j * k * proj_r)[..., :, None] * np.exp(1j * k * proj_t)[..., None, :]
        entries = np.exp(-1j * k * d_hat)[..., None, None] * outer
    if not np.all(np.isfinite(entries)):
        raise InvalidArgumentError("channel entries must be finite")
    return entries


def _diameter_alone(positions):
    """CUSTOM diameter from the (n, n, d) offset tensor in one block."""
    delta = positions[:, None, :] - positions[None, :, :]
    return float(np.sqrt((delta**2).sum(-1)).max())


def _outcome(fn, *args):
    """The arrays ``fn`` returns, as bytes, or the class and message it raises."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except (DegenerateGeometryError, InvalidArgumentError) as exc:
            return type(exc), str(exc)
    return [(a.shape, a.dtype, a.tobytes()) for a in (out if isinstance(out, tuple) else [out])]


def _golden_alone(f, a, b, tol, brackets=None):
    """Scalar golden section, as written before stacking; also returns its iterates, and
    appends to ``brackets`` the bracket (a, b) that each of them was taken in."""
    seen = []

    def g(x):
        seen.append(x)
        if brackets is not None:
            brackets.append((a, b))
        return f(x)

    if b < a:
        a, b = b, a
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = g(c), g(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = g(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = g(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f, seen


def _posed_alone(points, rotation, anchor):
    """One variant's points turned about their centroid onto ``anchor``, as posed before
    stacking."""
    return points @ rotation.T + (anchor - rotation @ points.mean(axis=0))


def _gains_alone(scene, model, rotations=None, rx_offset_m=0.0, points=None, lam=None):
    """Gains of one variant of ``scene``, as the evaluation path read before stacking."""
    lam = scene.wavelength_m if lam is None else lam
    if rotations is None:
        return _squared_singular_values(_channel_entries_alone(
            scene.tx_positions(), scene.rx_positions(), lam, model))
    tx, rx = points or (scene.tx.positions, scene.rx.positions)
    tx = _posed_alone(tx, rotations[0], np.zeros(3))
    rx = _posed_alone(rx, rotations[1], np.array([rx_offset_m, 0.0, scene.separation_m]))
    _check_axial(tx, rx, scene.separation_m)
    return _squared_singular_values(_channel_entries_alone(tx, rx, lam, model))


def _sweep_gains_alone(scene, model, variable, x):
    """Gains at one grid point, as the per-point sweep computed them."""
    base = (scene.tx_pose.rotation, scene.rx_pose.rotation)
    if variable is SweepVariable.FREQUENCY_HZ:
        if not 0 < x < math.inf:
            raise InvalidArgumentError(f"freq_hz must be positive and finite, got {x!r}")
        lam = SPEED_OF_LIGHT_M_S / x
        if not 0 < lam < math.inf:
            raise InvalidArgumentError(f"wavelength_m must be positive and finite, got {lam!r}")
        return _gains_alone(scene, model, lam=lam)
    if variable is SweepVariable.ETA:
        if x < 0:
            raise InvalidArgumentError("eta must be non-negative")
        if min(scene.tx.aperture_m, scene.rx.aperture_m) <= 0:
            raise IncompatibleModeError("eta sweep needs layouts with positive aperture")
        target = math.sqrt(x * scene.wavelength_m * scene.separation_m * scene.n_min)
        points = []
        for lay in (scene.tx, scene.rx):
            factor = target / lay.aperture_m
            if not 0 < factor < math.inf:
                raise InvalidArgumentError(f"factor must be positive and finite, got {factor!r}")
            points.append(lay.positions * factor)
        return _gains_alone(scene, model, base, points=points)
    if variable is SweepVariable.ROTATION_RAD:
        return _gains_alone(scene, model, (_link_plane_rotation(x),) * 2)
    if variable is SweepVariable.TILT_RAD:
        return _gains_alone(scene, model, (base[0], _link_plane_rotation(x)))
    return _gains_alone(scene, model, base, rx_offset_m=x)


class _Row(NamedTuple):
    """One row of a sweep or plan, as the per-point reference loops build it: the rate row
    (see :func:`_checked_row`), or the error text when the point failed."""

    x_value: float
    snr_db: float
    report: tuple | None
    config_descriptor: str
    error: str | None = None


def _sweep_alone(scene, var, grid, model, snr_db=0.0):
    """A non-SNR sweep as the per-point loop ran it: each grid point evaluated alone."""
    if var is SweepVariable.ROTATION_RAD and not (
            scene.tx.archetype is scene.rx.archetype is Archetype.ULA):
        raise UnsupportedArchetypeError(
            f"rotation sweep requires ULA layouts at both ends, got "
            f"{scene.tx.archetype.value}/{scene.rx.archetype.value}")
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise InvalidArgumentError(
            f"snr_db {snr_db!r} overflows a float in linear scale") from None
    capacity._check_snr(snr, n_t * n_r)  # once, before any point
    label = optimize._LABELS[var.value]
    points = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x in np.asarray(grid, dtype=float).tolist():
            descriptor = f"{label}={x:.12g}"
            try:
                if var is SweepVariable.ETA and x == 0.0:  # a single beam, full array gain
                    fractions = np.zeros(min(n_t, n_r))
                    fractions[0] = 1.0
                    se = float(np.log1p(snr * n_t * n_r) / math.log(2.0))
                    report = _checked_row(snr, se, capacity_upper_bound(n_t, n_r, snr),
                                          fractions)
                else:
                    report = _report_alone(_sweep_gains_alone(scene, model, var, x), n_t, n_r, snr)
            except LosMimoError as exc:
                points.append(_Row(x, snr_db, None, descriptor,
                                   error=f"{type(exc).__name__}: {exc}"))
                continue
            points.append(_Row(x, snr_db, report, descriptor))
    return points


def _rows(value):
    """The fields of each row of a sweep or plan: x, SNR (dB), descriptor, error text and the
    rate row (None for an error row), read column by column from a table or from the
    reference loops' records."""
    if isinstance(value, optimize.SweepTable):
        rates = zip(*(c.tolist() for c in value.rates))
        return [(x, snr_db, d, value.errors.get(i), None if i in value.errors else r)
                for i, (x, snr_db, d, r) in enumerate(zip(
                    value.x.tolist(), value.snr_db.tolist(), value.descriptors, rates))]
    return [(p.x_value, p.snr_db, p.config_descriptor, p.error,
             p.report) for p in value]


def _sweep_rows(value):
    """Every field of sweep rows, floats by repr (so -0.0 differs from 0.0)."""
    return list(map(repr, _rows(value)))


def _sweep_outcome(fn, *args):
    """The rows of ``fn(*args)``, or the class and message of what it raises."""
    try:
        return _sweep_rows(fn(*args))
    except LosMimoError as exc:
        return type(exc), str(exc)


def _gain_rows(rng, rows, n):
    """Descending gains whose rows differ in active rank (tails of exact or
    numerical zeros) and in spread."""
    g = -np.sort(-(rng.random((rows, n)) ** rng.uniform(0.5, 20.0, (rows, 1))), axis=1)
    g *= n * rng.uniform(0.5, 4.0, (rows, 1))
    for row, cut in zip(g, rng.integers(1, n + 1, rows)):
        row[cut:] *= rng.choice([0.0, 1e-14, 1e-13, 1.0])
    return g


# -- waterfilling -------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 64),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.lists(st.floats(-200.0, 300.0), min_size=1, max_size=12),
)
def test_stacked_waterfill_matches_each_row_alone_bit_for_bit(n, rows, seed, snr_db):
    g = _gain_rows(np.random.default_rng(seed), rows, n)
    snrs = 10.0 ** (np.resize(snr_db, rows) / 10.0)
    fractions, ses = _waterfill(g, snrs)
    for i in range(rows):
        want_fractions, want_se = _waterfill_alone(g[i], snrs[i])
        assert fractions[i].tolist() == want_fractions.tolist()
        assert ses[i] == want_se


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 64),
    rows=st.sampled_from([1, 7]),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.floats(-30.0, 60.0),
)
def test_waterfilling_meets_the_kkt_conditions(n, rows, seed, snr_db):
    g = _gain_rows(np.random.default_rng(seed), rows, n)
    snr = 10.0 ** (snr_db / 10.0)
    fractions, _ = _waterfill(g, np.full(rows, snr))
    for p, gains in zip(fractions, g):
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # modes above the zero-gain threshold: p_i = max(0, mu - 1/(snr g_i))
        usable = gains > _ZERO_GAIN_RTOL * gains[0]
        inv = 1.0 / (snr * gains[usable])
        on = p[usable] > 0
        mu = p[0] + inv[0]
        tol = 1e-9 * mu
        assert np.all(np.abs(p[usable][on] + inv[on] - mu) <= tol)  # one water level
        assert np.all(inv[~on] >= mu - tol)  # dry modes sit above it
        assert np.all(p[~usable] == 0)


def _sums_per_count(a, top):
    """The prefix sums as the waterfill fallback took them before the table: one sum call per
    count, column j holding a[:, :j].sum(axis=1)."""
    return np.column_stack([np.zeros(len(a))] + [a[:, :j].sum(axis=1) for j in range(1, top + 1)])


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 300),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    top=st.floats(0.0, 1.0),
)
@example(n=256, rows=2, seed=1, top=1.0)
@example(n=129, rows=1, seed=2, top=1.0)
def test_prefix_table_is_the_per_count_sums_bit_for_bit(n, rows, seed, top):
    rng = np.random.default_rng(seed)
    # non-negative rows of any spread, with exact zeros as in a rank-deficient 1/(snr g) row
    a = rng.random((rows, n)) ** rng.uniform(0.5, 30.0, (rows, 1))
    a *= 10.0 ** rng.uniform(-300.0, 300.0, (rows, 1))
    a[rng.random((rows, n)) < 0.2] = 0.0
    top = int(top * n)
    want = _sums_per_count(a, top)
    assert _prefix_table(a, top).tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 256),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.lists(st.floats(-200.0, 300.0), min_size=1, max_size=6),
)
@example(n=64, rows=3, seed=0, snr_db=[-30.0, -10.0, 3.0])
@example(n=256, rows=2, seed=3, snr_db=[-200.0, -20.0])
def test_waterfill_fallback_is_the_per_count_loop_bit_for_bit(n, rows, seed, snr_db):
    g = _gain_rows(np.random.default_rng(seed), rows, n)
    snrs = 10.0 ** (np.resize(snr_db, rows) / 10.0)
    got = _waterfill(g, snrs)
    with mock.patch.object(capacity, "_prefix_table", _sums_per_count):
        want = _waterfill(g, snrs)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


# -- the rate table -------------------------------------------------------------

def _rate_reports_alone(gains, n_t, n_r, snrs):
    """Rate rows as built before the rate table: one waterfill and one bound expression, then
    one checked row per SNR, in row order."""
    fractions, ses = _waterfill(np.broadcast_to(gains, (snrs.size, gains.shape[-1])), snrs)
    return [_checked_row(snr, se, ub, f)
            for f, se, snr, ub in zip(fractions, ses.tolist(), snrs.tolist(),
                                      capacity._bound(n_t, n_r, snrs).tolist())]


def _first_error(fn, *args):
    try:
        fn(*args)
    except LosMimoError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 256),
    extra=st.sampled_from([0, 1, 7]),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.lists(st.floats(-200.0, 300.0), min_size=1, max_size=6),
)
@example(n=1, extra=0, rows=1, seed=0, snr_db=[-200.0])
@example(n=256, extra=0, rows=3, seed=4, snr_db=[-200.0, 0.0, 40.0])
def test_table_rows_are_the_report_objects_bit_for_bit(n, extra, rows, seed, snr_db):
    n_t, n_r = n, n + extra
    rng = np.random.default_rng(seed)
    g = _gain_rows(rng, rows, n)
    g *= n_t * n_r / g.sum(axis=1, keepdims=True) * rng.uniform(0.3, 1.0, (rows, 1))
    snrs = 10.0 ** (np.resize(snr_db, rows) / 10.0)
    snrs = snrs[np.isfinite(snrs * n_t * n_r)]  # checked where they enter: no overflow
    g = g[:snrs.size]
    want = _first_error(_rate_reports_alone, g, n_t, n_r, snrs)
    assert _first_error(_rate_table, g, n_t, n_r, snrs) == want
    if want:
        return
    table = _rate_table(g, n_t, n_r, snrs)
    reports = _rate_reports_alone(g, n_t, n_r, snrs)
    assert [v.tolist() for v in table] == [[r[j] for r in reports] for j in range(5)]
    assert table.ranks.dtype.kind == "i"
    assert _bits(list(zip(*(c.tolist() for c in table)))) == _bits(reports)


def _row_error_alone(f, se, ub):
    """The message of a row's first failing check, as the per-row report objects wrote their
    checks before the table; None when the row passes."""
    if not np.isfinite(f).all():
        return "fractions must be a finite 1-D array"
    if f.size and (f.min() < 0 or f.max() > 1):
        return "fractions must lie in [0, 1]"
    if abs(f.sum() - 1.0) > 1e-12:
        return "fractions must sum to 1 within 1e-12"
    if se > ub + 1e-9:
        return "spectral efficiency exceeds the capacity upper bound"
    return None


_BAD_FRACTIONS = [
    [0.5, np.nan], [np.inf, 0.0], [-1.0, np.nan], [1.25, -0.25], [-0.5, 1.5], [1.0 + 1e-11, 0.0],
    [0.5, 0.5 + 1e-11], [0.5, 0.5 - 1e-11], [1e308, 1e308], [np.inf, -np.inf],
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6),
    bad=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(range(len(_BAD_FRACTIONS))),
                           st.booleans()), max_size=4),
    over=st.lists(st.tuples(st.integers(0, 5), st.floats(1e-12, 1e-6) | st.just(np.inf)),
                  max_size=3),
)
@example(rows=3, bad=[(2, 0, False), (1, 3, True)], over=[(1, 1e-8)])
def test_the_table_check_raises_as_the_per_row_loop(rows, bad, over):
    fractions = np.tile([0.75, 0.25], (rows, 1))
    ses, ubs = np.full(rows, 2.0), np.full(rows, 2.0)
    for row, which, flip in bad:
        if row < rows:
            fractions[row] = _BAD_FRACTIONS[which][::-1] if flip else _BAD_FRACTIONS[which]
    for row, excess in over:  # SE above its bound by excess (within 1e-9 is kept)
        if row < rows:
            ses[row] = ubs[row] + excess
    with np.errstate(all="ignore"):
        want = next(((InvalidArgumentError, e) for e in map(_row_error_alone, fractions, ses, ubs)
                     if e), None)
    assert _first_error(_check_rows, fractions, ses, ubs) == want


@pytest.mark.parametrize("row", [0, 2, 4])
def test_a_bound_below_row_k_raises_as_its_report_would(row, monkeypatch):
    g = _gain_rows(np.random.default_rng(row), 5, 4)
    snrs = np.full(5, 10.0)
    low = _bound(4, 4, snrs)
    low[row:] = 0.0  # row k is the first whose SE exceeds its bound
    monkeypatch.setattr(capacity, "_bound", lambda n_t, n_r, s: low)
    want = _first_error(_rate_reports_alone, g, 4, 4, snrs)
    assert want == (InvalidArgumentError, "spectral efficiency exceeds the capacity upper bound")
    assert _first_error(_rate_table, g, 4, 4, snrs) == want


@pytest.mark.parametrize("variable, grid", [
    (SweepVariable.ETA, [-1.0, 0.0, 0.5, 1.0, 1e300]),
    (SweepVariable.OFFSET_M, [-1e300, 0.0, 0.5, 1e300]),
])
def test_a_failing_report_step_gives_every_pending_point_its_error(variable, grid, monkeypatch):
    scene = _sweep_scene("ula", 4, 4, 1.0, 1.0, SPEED_OF_LIGHT_M_S / 300e9, (0.0, 0.0), 0.0)
    args = (scene, variable, np.array(grid), WavefrontModel.SPHERICAL, 10.0)
    before = sweep(*args)

    def fail(*args):
        raise NoSignalError("all channel gains are zero")

    monkeypatch.setattr(optimize, "_rate_table", fail)
    after = sweep(*args)
    pending = [i not in before.errors and not (variable is SweepVariable.ETA and x == 0.0)
               for i, x in enumerate(before.x.tolist())]
    assert any(pending) and not all(pending)
    for b, a, waiting in zip(_sweep_rows(before), _rows(after), pending):
        if waiting:  # every point that reached the report step
            assert a[3:] == ("NoSignalError: all channel gains are zero", None)
        else:  # its own error, or the eta-0 beam, as before
            assert repr(a) == b


# -- golden section -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    peaks=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=8),
    widths=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=8),
    tol=st.sampled_from([1e-4, 1e-2]),
    cap=st.sampled_from([2.0, 0.999, 0.5]),
)
def test_row_wise_golden_section_reproduces_the_scalar_iterates(peaks, widths, tol, cap):
    rows = len(peaks)
    lo = np.asarray(peaks) - np.resize(widths, rows)
    hi = np.asarray(peaks) + np.resize(widths, rows)[::-1] * 0.7

    def value(i, x):  # a cap below the peak makes plateaus, so ties
        return min(math.cos(x - peaks[i]) + 0.1 * math.sin(3.0 * x), cap)

    seen, calls = [[] for _ in range(rows)], []

    def f(x, which, errors=None):
        calls.append(which.tolist())
        for xi, i in zip(x.tolist(), which.tolist()):
            seen[i].append(xi)
        return np.array([value(i, xi) for xi, i in zip(x.tolist(), which.tolist())])

    # the row-wise search also swaps a reversed bracket
    best_x, best_f = _search.golden_max(f, hi.copy(), lo.copy(), tol)
    steps = []
    for i in range(rows):
        want_x, want_f, want_seen = _golden_alone(lambda x: value(i, x), lo[i], hi[i], tol)
        assert (best_x[i], best_f[i]) == (want_x, want_f)
        assert seen[i] == want_seen
        steps.append(len(want_seen) - 2)
    # one call takes the opening pair of every row, then call k step k of each row it has
    assert calls[0] == list(range(rows)) * 2
    assert calls[1:] == [[i for i in range(rows) if steps[i] >= k]
                         for k in range(1, 1 + max(steps))]


def _golden_rows(peaks, widths, cap):
    """Brackets (reversed) and per-row functions of a row-wise search with plateaus."""
    rows = len(peaks)
    lo = np.asarray(peaks) - np.resize(widths, rows)
    hi = np.asarray(peaks) + np.resize(widths, rows)[::-1] * 0.7

    def value(i, x):
        return min(math.cos(x - peaks[i]) + 0.1 * math.sin(3.0 * x), cap)

    return lo, hi, value


_GOLDEN_ROWS = dict(
    peaks=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=8),
    widths=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=8),
    tol=st.sampled_from([1e-4, 1e-2]),
    cap=st.sampled_from([2.0, 0.999, 0.5]),
    depth=st.integers(1, 5),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_GOLDEN_ROWS)
def test_lookahead_golden_section_walks_the_scalar_iterates(peaks, widths, tol, cap, depth):
    lo, hi, value = _golden_rows(peaks, widths, cap)
    calls = []

    def f(x, which, errors=None):
        calls.append((x, which))
        return np.array([value(i, xi) for xi, i in zip(x.tolist(), which.tolist())])

    best_x, best_f = _search.golden_max(f, hi.copy(), lo.copy(), tol, depth)
    steps = []
    for i in range(len(peaks)):
        brackets = []
        want_x, want_f, seen = _golden_alone(lambda x: value(i, x), lo[i], hi[i], tol,
                                             brackets)
        assert (best_x[i], best_f[i]) == (want_x, want_f)
        walked = 0  # scalar iterates covered so far
        for x, which in calls:
            probes = x[which == i].tolist()
            if not probes:
                continue
            first = walked == 0  # the opening pair, then the next steps' probes below a root
            if first:  # that holds no probe
                assert probes[:2] == seen[:2]
                walked, probes = 2, [None] + probes[2:]
            assert len(probes) == 2 ** (len(probes).bit_length()) - 1 <= 2 ** depth - 1
            a, b = brackets[walked - first]  # the bracket of this call's first step
            assert all(a <= p <= b for p in probes[first:])  # the extra probes lie inside it
            for level in range(first, len(probes).bit_length()):  # one scalar step per level
                if walked < len(seen):
                    assert seen[walked] in probes[2**level - 1:2 ** (level + 1) - 1]
                    walked += 1
        assert walked == len(seen)
        steps.append(len(seen) - 2)
    # one call per `depth` steps of the longest search, the first one also opening it
    assert len(calls) == max(-(-(k + 1) // depth) for k in steps)


def _failing(value, seen, fail_at):
    """An f whose probe fails when a row's scalar search never takes it, or when it is
    that row's iterate fail_at[i]; the error names the row and the step."""
    def fails(i, x):
        if x not in seen[i]:
            return "off the path"
        return f"step {seen[i].index(x)}" if seen[i].index(x) == fail_at[i] else None

    def f(x, which, errors=None):
        out = []
        for j, (xi, i) in enumerate(zip(x.tolist(), which.tolist())):
            why = fails(i, xi)
            if why is None:
                out.append(value(i, xi))
                continue
            exc = DegenerateGeometryError(f"row {i} fails {why}")
            if errors is None:
                raise exc
            errors[j] = exc
            out.append(math.nan)
        return np.array(out)

    return f


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_GOLDEN_ROWS, picks=st.lists(st.integers(-8, 40), min_size=1, max_size=8))
def test_lookahead_raises_only_the_errors_of_the_probes_it_walks(peaks, widths, tol, cap,
                                                                  depth, picks):
    lo, hi, value = _golden_rows(peaks, widths, cap)
    rows = len(peaks)
    searches = [_golden_alone(lambda x: value(i, x), lo[i], hi[i], tol) for i in range(rows)]
    seen = [s[2] for s in searches]
    # off the path only: the lookahead evaluates such probes, the search never takes them
    no_fail = [None] * rows
    best = _search.golden_max(_failing(value, seen, no_fail), hi.copy(), lo.copy(), tol, depth)
    assert [(x, fx) for x, fx in zip(*best)] == [(s[0], s[1]) for s in searches]
    # on the path: a step that takes a failing probe raises the first failing row's error
    # at the first such step, as one call per step would
    fail_at = [seen[i].index(seen[i][2 + k % (len(seen[i]) - 2)])  # its first occurrence
               if k >= 0 and len(seen[i]) > 2 else None
               for i, k in enumerate(np.resize(picks, rows).tolist())]
    outcomes = []
    for d in (1, depth):
        try:
            _search.golden_max(_failing(value, seen, fail_at), hi.copy(), lo.copy(), tol, d)
            outcomes.append(None)
        except DegenerateGeometryError as exc:
            outcomes.append(str(exc))
    first = min(((k, i) for i, k in enumerate(fail_at) if k is not None), default=None)
    want = None if first is None else f"row {first[1]} fails step {first[0]}"
    assert outcomes == [want, want]


def _bits(value):
    """Every float of a search result, tables and rate rows included, as exact bits."""
    if isinstance(value, optimize.SweepTable):  # a plan: its rows, field by field
        return _bits(_rows(value))
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if value is None or isinstance(value, str):  # an error text, or its absence; a descriptor
        return value
    return float(value).hex()


@pytest.mark.parametrize("snr_points", [1, 31])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_rotation_searches_give_the_same_bits_at_every_lookahead_depth(n, model, snr_points):
    lam, dist = 1e-3, 10.0
    spacing = math.sqrt(1.7 * lam * dist / n)
    scene = link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)
    snr_db = np.linspace(-10.0, 20.0, snr_points) if snr_points > 1 else np.array([3.0])
    snrs = 10.0 ** (snr_db / 10.0)
    depths, golden_max = [], optimize.golden_max

    def rule(searches):  # the largest L <= 4 whose first call, 2**L probes per search, holds
        # at most 1,024 channel entries of distinct searches and 16,384 gains of all rows
        return max(depth for depth in range(1, optimize._LOOKAHEAD_DEPTH + 1) if depth == 1 or (
            searches * n * n << depth <= 1024 and snr_points * n << depth <= 16384))

    def spy(f, a, b, tol, depth=1):
        # a search is its bracket and the angle it holds: at least as many as the brackets
        brackets = len(set(zip(a.tolist(), b.tolist())))
        assert rule(a.size) <= depth <= rule(brackets)
        depths.append(depth)
        return golden_max(f, a, b, tol, depth)

    def searches():
        out = [optimize._best_rotation(scene, snrs, model, independent)
               for independent in (False, True)]
        if snr_points == 1:
            out += [optimize_rotation(scene, float(snrs[0]), model),
                    optimize_rotation(scene, float(snrs[0]), model, independent=True)]
        return _bits(out + [select_fixed_angles(scene, 3, snr_db.tolist(), model)])

    with mock.patch.object(optimize, "golden_max", spy):
        picked = searches()
        # lockstep searches that start alike count once: 31 SNRs look ahead on small arrays
        assert set(depths) == {4} if snr_points == 1 else n == 8 or min(depths) > 1
        depths.clear()
        with mock.patch.object(optimize, "_LOOKAHEAD_DEPTH", 1):
            one_step = searches()
        assert set(depths) == {1}
    assert picked == one_step


@pytest.mark.parametrize("snr_points", [1, 31])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_angles_mode_plan_is_the_fixed_angle_plan_of_its_angles(n, model, snr_points):
    lam, dist = 1e-3, 10.0
    spacing = math.sqrt(1.3 * lam * dist / n)
    scene = link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)
    grid = np.linspace(-10.0, 20.0, snr_points).tolist() if snr_points > 1 else [3.0]
    candidates = np.linspace(0.0, math.pi / 2, optimize._ANGLE_CANDIDATES).tolist()
    calls, found, best_rotation = [], [], optimize._best_rotation

    def search(*args):  # the search runs once: every k selects from its result
        calls.append(args)
        found[:] = found or [best_rotation(*args)]
        return found[0]

    for searched, k in enumerate((1, 3, 4), 1):
        with mock.patch.object(optimize, "_best_rotation", search):
            angles, plan, worst_gap = select_fixed_angles(scene, k, grid, model)
        assert len(calls) == searched  # one search per selection
        assert len(set(angles)) == k and angles == sorted(angles)
        assert set(angles) <= set(candidates)
        # the reference: the plan re-evaluated from the angles, and the gap formula that the
        # CLI applied to it, against the rotation optima of the search
        want = fixed_angle_plan(scene, angles, grid, model)
        ses = want.rates.ses.tolist()
        ref = found[0][1].tolist()
        gap = max([0.0] + [1.0 - se / r for se, r in zip(ses, ref) if r > 0])
        assert _bits([plan, worst_gap]) == _bits([want, gap])


def _subsets_alone(table, ref, k):
    """The candidate choice as written before pruning: every subset scored over every SNR,
    np.argmin of the gaps; returns the chosen indices and each step's least gap."""
    def worst_gaps(subsets):
        return (1.0 - table[:, subsets].max(axis=2) / ref[:, None]).max(axis=0)

    subsets = np.array(list(combinations(range(table.shape[1]), min(k, 3))))
    gaps = worst_gaps(subsets)
    chosen, least = subsets[gaps.argmin()].tolist(), [gaps.min()]
    while len(chosen) < k:
        rest = [c for c in range(table.shape[1]) if c not in chosen]
        gaps = worst_gaps(np.array([chosen + [c] for c in rest]))
        chosen.append(rest[gaps.argmin()])
        least.append(gaps.min())
    return chosen, least


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    snrs=st.sampled_from([1, 2, 7, 31, 200]),
    candidates=st.sampled_from([5, 12, 33]),
    k=st.integers(1, 5),
    levels=st.sampled_from([2, 3, 6, 0]),  # few SE levels make ties; 0 draws continuous SEs
    twins=st.booleans(),  # candidates that copy another one's SEs tie on every subset
)
def test_pruned_subset_search_picks_the_exhaustive_subsets(seed, snrs, candidates, k, levels,
                                                           twins):
    rng = np.random.default_rng(seed)
    k = min(k, candidates)
    table = rng.integers(0, levels, (snrs, candidates)) * 0.5 if levels else rng.random(
        (snrs, candidates))
    if twins:
        table[:, rng.integers(0, candidates, candidates // 2)] = table[:, :candidates // 2]
    # the optima: at least every candidate's SE, sometimes above all of them
    ref = table.max(axis=1) + rng.integers(0, 2, snrs) * 0.25 + 0.125
    assert optimize._combinations(candidates, min(k, 3)).tolist() == [
        list(c) for c in combinations(range(candidates), min(k, 3))]
    want, least = _subsets_alone(table, ref, k)
    chosen = optimize._least_gap_candidates(table, ref, k)
    assert chosen == want
    # each step's chosen set has the exhaustive least gap, bit for bit
    for step, gap in zip(range(min(k, 3), k + 1), least):
        got = (1.0 - table[:, chosen[:step]].max(axis=1) / ref).max()
        assert got.hex() == gap.hex()


# -- poses, channels and spectra ----------------------------------------------

@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_t, n_r", [(1, 1), (4, 4), (3, 8), (16, 5)])
def test_stacked_channels_and_spectra_match_the_per_variant_loop(model, n_t, n_r):
    rng = np.random.default_rng(n_t * 100 + n_r)
    lam, dist = 1e-3, 5.0
    tx = build_ula(n_t, 0.004).positions
    rx = build_ura(2, 0.003).positions if n_r == 4 else build_uca(n_r, 0.02).positions
    angles_t, angles_r = rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40)
    anchor = np.array([0.003, 0.0, dist])
    tx_pts = _posed_points(tx, _link_plane_rotation(angles_t), np.zeros(3))
    rx_pts = _posed_points(rx, _link_plane_rotation(angles_r), anchor)
    entries = _channel_entries(tx_pts, rx_pts, lam, model)
    gains = _squared_singular_values(entries)
    for i, (a_t, a_r) in enumerate(zip(angles_t, angles_r)):
        t = _posed_points(tx, _link_plane_rotation(float(a_t)), np.zeros(3))
        r = _posed_points(rx, _link_plane_rotation(float(a_r)), anchor)
        assert t.tolist() == tx_pts[i].tolist() and r.tolist() == rx_pts[i].tolist()
        alone = _channel_entries(t, r, lam, model)
        assert alone.tolist() == entries[i].tolist()
        assert _squared_singular_values(alone).tolist() == gains[i].tolist()


_DEGENERATE = ["none", "coincident", "overflow", "zero_axial"]


@settings(max_examples=200, deadline=None)
@given(
    n_t=st.integers(1, 64),
    n_r=st.integers(1, 64),
    stack=st.sampled_from([(), (1,), (3,)]),
    model=st.sampled_from(MODELS),
    degenerate=st.sampled_from(_DEGENERATE),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-4.0, 2.0),
    log_dist=st.floats(-2.0, 3.0),
)
def test_per_axis_offsets_match_the_offset_tensor_bit_for_bit(
    n_t, n_r, stack, model, degenerate, seed, log_scale, log_dist
):
    rng = np.random.default_rng(seed)
    scale, dist = 10.0**log_scale, 10.0**log_dist
    tx = rng.normal(size=stack + (n_t, 3)) * scale
    rx = rng.normal(size=stack + (n_r, 3)) * scale + [scale * rng.normal(), 0.0, dist]
    m, n, axis = rng.integers(n_t), rng.integers(n_r), rng.integers(3)
    if degenerate == "coincident":
        rx[..., n, :] = tx[..., m, :]
    elif degenerate == "overflow":  # an inf or 1e300 offset squares to inf; inf - inf is NaN
        rx[..., n, axis] = rng.choice([1e300, -1e300, np.inf])
        if rng.random() < 0.5:
            tx[..., m, axis] = np.inf
    elif degenerate == "zero_axial":
        rx[..., n, 2] = tx[..., m, 2]
        rx[..., n, 0] = tx[..., m, 0] + scale
    lam = rng.uniform(1e-4, 1e-2)
    assert _outcome(_pair_distances, tx, rx) == _outcome(_pair_distances_alone, tx, rx)
    assert _outcome(_channel_entries, tx, rx, lam, model) == _outcome(
        _channel_entries_alone, tx, rx, lam, model)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 300),
    dims=st.sampled_from([2, 3]),
    block_pairs=st.sampled_from([1, 7, 256, 1 << 17]),
    log_scale=st.floats(-6.0, 160.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_custom_diameter_matches_the_offset_tensor_bit_for_bit(n, dims, block_pairs,
                                                               log_scale, seed):
    positions = np.random.default_rng(seed).normal(size=(n, dims)) * 10.0**log_scale
    with mock.patch.object(geometry, "_DIAMETER_BLOCK_PAIRS", block_pairs), \
            np.errstate(all="ignore"):
        got = recompute_aperture(positions, Archetype.CUSTOM)
        want = _diameter_alone(positions) if n > 1 else 0.0
    assert got == want


@pytest.mark.parametrize("model", MODELS)
def test_chunked_rotation_stacks_match_the_per_angle_loop(model):
    # 64 x 64 channels: 4 variants per stacked evaluation, so 3 chunks here
    lam, dist, n = 1e-3, 5.0, 64
    spacing = math.sqrt(lam * dist / n)
    scene = link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)
    angles = np.linspace(0.0, 1.2, 10)
    assert optimize._STACK_ENTRIES // (n * n) == 4
    stacked = optimize._rotated(scene, model, angles, angles[::-1].copy())
    for row, a_t, a_r in zip(stacked, angles.tolist(), angles[::-1].tolist()):
        turns = (_link_plane_rotation(a_t), _link_plane_rotation(a_r))
        assert row.tolist() == _gains_alone(scene, model, turns).tolist()


# -- errors -------------------------------------------------------------------

# a 4-element, 1 m-spaced ULA pair 1 m apart at 300 GHz: turning it toward
# endfire first breaks the Fresnel and planar expansions, and the arrays
# meet at endfire; each search must report the first failing variant of the
# per-angle loop, with the same text as before stacking
_PAIR_ERRORS = {
    WavefrontModel.SPHERICAL: "arrays intersect: minimum pair distance 6.123e-17 m",
    WavefrontModel.FRESNEL: "Fresnel expansion needs every pair separated along the link axis",
    WavefrontModel.PLANAR: "planar expansion needs every pair separated along the link axis",
}


_SEARCHES = {
    "joint": lambda scene, model: optimize_rotation(scene, 10.0, model),
    "independent": lambda scene, model: optimize_rotation(scene, 10.0, model, independent=True),
    "fixed angles": lambda scene, model: select_fixed_angles(scene, 3, [0.0, 10.0], model),
}


@pytest.mark.parametrize("search", list(_SEARCHES))
@pytest.mark.parametrize("model", MODELS)
def test_a_failing_stack_raises_the_first_failing_variant(model, search):
    scene = link_scene(build_ula(4, 1.0), build_ula(4, 1.0), 1.0, 299792458.0 / 300e9)
    with pytest.raises(DegenerateGeometryError) as err:
        _SEARCHES[search](scene, model)
    assert str(err.value) == _PAIR_ERRORS[model]
    # the same first failure as the per-angle loop over the rotation grid
    grid = np.linspace(0.0, math.pi / 2, optimize._ROTATION_GRID_POINTS)
    first = None
    for a in grid.tolist():
        try:
            optimize._rotated(scene, model, a, a)
        except DegenerateGeometryError as exc:
            first = str(exc)
            break
    assert first == _PAIR_ERRORS[model]


# (tx, rx) pairs on the failing pair of arrays above: ordinary ones, 0.0 beside -0.0
# (apart by their bits), and endfire turns that make the arrays meet or break the Fresnel
# and planar expansions, so that duplicates fail with different errors
_LOCKSTEP_PAIRS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.3, 0.1), (1.0, 1.0),
                   (math.pi / 2, math.pi / 2), (1.2, 0.4), (math.pi / 2, 0.0), (1.5, 1.5)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(MODELS),
       picks=st.lists(st.integers(0, len(_LOCKSTEP_PAIRS) - 1), min_size=1, max_size=40))
def test_lockstep_rotations_evaluate_each_pair_once_with_its_own_gains_and_error(model, picks):
    scene = link_scene(build_ula(4, 1.0), build_ula(4, 1.0), 1.0, 299792458.0 / 300e9)
    pairs = np.array([_LOCKSTEP_PAIRS[i] for i in picks])
    counts, gains = [], optimize._gains

    def counted(scene, model, count, *args):
        counts.append(count)
        return gains(scene, model, count, *args)

    def outcome(lockstep, errors):  # the gains' bits, or the error raised
        try:
            return optimize._rotated(scene, model, pairs[:, 0], pairs[:, 1], errors,
                                     lockstep).tobytes()
        except LosMimoError as exc:
            return type(exc), str(exc)

    def texts(errors):
        return {i: (type(exc), str(exc)) for i, exc in errors.items()}

    alone_errors, once_errors = {}, {}
    alone = outcome(False, alone_errors)
    with mock.patch.object(optimize, "_gains", counted):
        once = outcome(True, once_errors)
    # one evaluation of each distinct pair, by its bits; every index its own gains and error
    assert counts == [len({(a.hex(), b.hex()) for a, b in pairs.tolist()})]
    assert once == alone
    assert texts(once_errors) == texts(alone_errors)
    # with no errors kept, the first failing index in row order raises
    first = min(alone_errors, default=None)
    raised = outcome(True, None)
    assert raised == outcome(False, None)
    assert raised == (alone if first is None else texts(alone_errors)[first])


# -- sweeps and schedules -----------------------------------------------------

_SWEPT = [v for v in SweepVariable if v is not SweepVariable.SNR_DB]
# per swept variable: ordinary grid values, and values that fail alone (eta < 0, a
# wavelength that overflows, endfire turns that make arrays meet or break the Fresnel and
# planar expansions, offsets whose squares overflow) or sit on a limit (eta 0)
_GRID_VALUES = {
    SweepVariable.ETA: (st.floats(-1.0, 4.0), [0.0, 1e-300, 1e300]),
    SweepVariable.FREQUENCY_HZ: (st.floats(-1e11, 1e12), [0.0, 5e-324, 1e-300, 3e9]),
    SweepVariable.ROTATION_RAD: (st.floats(-3.2, 3.2), [0.0, math.pi / 2, 1.5]),
    SweepVariable.TILT_RAD: (st.floats(-3.2, 3.2), [0.0, math.pi / 2, 1e5]),
    SweepVariable.OFFSET_M: (st.floats(-20.0, 20.0), [0.0, 1e200, 1e300, -1e300]),
}
_FAR = [[3e12, 3e12, 0.0]]  # one element far off axis: posing it cancels its z


def _sweep_scene(arch, n_t, n_r, spacing, dist, lam, angles, offset):
    if arch == "far":  # 2 mm apart, so a tilt fails _check_axial
        return link_scene(custom_layout(_FAR), custom_layout(_FAR), 0.002, lam)
    build = {"ula": lambda n: build_ula(n, spacing),
             "ura": lambda n: build_ura(max(1, math.isqrt(n)), spacing),
             "uca": lambda n: build_uca(n, spacing * n)}[arch]
    tx_pose = RigidPose(_link_plane_rotation(angles[0]), np.zeros(3))
    rx_pose = RigidPose(_link_plane_rotation(angles[1]), [offset, 0.0, 0.0])
    return link_scene(build(n_t), build(n_r), dist, lam, tx_pose, rx_pose)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    data=st.data(),
    variable=st.sampled_from(_SWEPT),
    model=st.sampled_from(MODELS),
    n_t=st.integers(1, 6),
    n_r=st.integers(1, 6),
    spacing=st.one_of(st.floats(1e-3, 0.5), st.just(1.0)),  # 1 m at 1 m: endfire fails
    dist=st.one_of(st.floats(0.3, 5.0), st.just(1.0)),
    carrier_hz=st.floats(30e9, 300e9),
    angles=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
    offset=st.sampled_from([0.0, 0.01]),
    snr_db=st.one_of(st.floats(-20.0, 40.0), st.sampled_from([3075.0, -3300.0])),
    stack_entries=st.sampled_from([1 << 14, 16, 1]),
)
def test_stacked_sweep_matches_the_per_point_loop_bit_for_bit(
    data, variable, model, n_t, n_r, spacing, dist, carrier_hz, angles, offset, snr_db,
    stack_entries,
):
    turned = variable is SweepVariable.ROTATION_RAD  # a ULA pair, or the sweep raises
    arch = data.draw(st.sampled_from(["ula", "ula", "ula", "uca"] if turned
                                     else ["ula", "ula", "ura", "uca", "far"]))
    finite, extreme = _GRID_VALUES[variable]
    values = data.draw(st.lists(st.one_of(finite, st.sampled_from(extreme)), min_size=1,
                                max_size=10))
    scene = _sweep_scene(arch, n_t, n_r, spacing, dist, SPEED_OF_LIGHT_M_S / carrier_hz,
                         angles, offset)
    args = (scene, variable, np.array(sorted(set(values))), model, snr_db)
    with mock.patch.object(optimize, "_STACK_ENTRIES", stack_entries):
        got = _sweep_outcome(sweep, *args)
    assert got == _sweep_outcome(_sweep_alone, *args)


# grids on which some points evaluate and others fail, each with its own error
_MIXED = {
    SweepVariable.ETA: ("ula", [-1.0, 0.0, 0.5, 1.0, 1e300]),
    SweepVariable.FREQUENCY_HZ: ("ula", [-1.0, 1e-300, 3e9, 300e9]),
    SweepVariable.ROTATION_RAD: ("ula", np.linspace(0.0, math.pi / 2, 17).tolist()),
    SweepVariable.TILT_RAD: ("far", [0.0, 0.5, 1.0]),
    SweepVariable.OFFSET_M: ("ula", [-1e300, 0.0, 0.5, 1e300]),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("variable", _SWEPT)
def test_mixed_grids_keep_each_points_own_row(variable, model):
    # 4 elements 1 m apart, 1 m apart at 300 GHz: endfire turns fail as in _PAIR_ERRORS
    arch, grid = _MIXED[variable]
    scene = _sweep_scene(arch, 4, 4, 1.0, 1.0, SPEED_OF_LIGHT_M_S / 300e9, (0.0, 0.0), 0.0)
    args = (scene, variable, np.array(grid), model, 10.0)
    points = sweep(*args)
    assert 0 < len(points.errors) < len(points.descriptors)
    assert _sweep_rows(points) == _sweep_rows(_sweep_alone(*args))


def _variant_outcome(fn, *args, **kwargs):
    """What ``fn`` returns, as bytes, or the class and message it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args, **kwargs).tobytes()
        except LosMimoError as exc:
            return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_t=st.integers(1, 6),
    n_r=st.integers(1, 6),
    count=st.integers(2, 6),
    model=st.sampled_from(MODELS),
    spacing=st.floats(0.01, 1.0),
    dist=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stack_raises_iff_one_of_its_variants_alone_raises(n_t, n_r, count, model, spacing,
                                                             dist, seed):
    rng = np.random.default_rng(seed)
    scene = link_scene(build_ula(n_t, spacing), build_ula(n_r, spacing), dist, 1e-3)

    def pick(*options):  # one option per variant, some degenerate
        return np.array([options[i] for i in rng.integers(len(options), size=count)])

    local = tuple(p * pick(1.0, 1e-9, 1e200)[:, None, None]
                  for p in (scene.tx.positions, scene.rx.positions))
    scale = tuple(pick(1.0, rng.uniform(0.5, 2.0)) for _ in range(2))
    rotations = tuple(_link_plane_rotation(pick(0.0, math.pi / 2, rng.uniform(0.0, 1.5)))
                      for _ in range(2))
    offset = pick(0.0, 1e300, rng.normal(0.0, 0.1))
    anchor = np.column_stack([offset, np.zeros(count), np.full(count, dist)])
    lam = pick(1e-3, 1e-300, rng.uniform(1e-4, 1e-2))

    def variants(i):  # variant i alone, or the variants of slice i as one stack
        tx = _posed_points(local[0][i] * scale[0][i][..., None, None], rotations[0][i],
                           np.zeros(3))
        rx = _posed_points(local[1][i] * scale[1][i][..., None, None], rotations[1][i],
                           anchor[i])
        return tx, rx, lam[i][..., None, None]

    alone = [_variant_outcome(optimize._gains, scene, model, 1, lambda s, i=i: variants(i))
             for i in range(count)]
    stacks = []

    def spy(entries):  # the stack shape of every SVD taken
        stacks.append(entries.shape[:-2])
        return _squared_singular_values(entries)

    errors = {}
    with mock.patch.object(optimize, "_STACK_ENTRIES", 1 << 30), \
            mock.patch.object(optimize, "_squared_singular_values", spy):
        gains = _variant_outcome(optimize._gains, scene, model, count, variants, errors)
        searched = _variant_outcome(optimize._gains, scene, model, count, variants)
    failing = [a for a in alone if isinstance(a, tuple)]
    assert ((count,) in stacks) == (not failing)  # the whole stack ran iff no variant fails
    assert searched == (failing[0] if failing else gains)  # a search raises the first
    rows = np.frombuffer(gains, dtype=float).reshape(count, -1)
    for i, want in enumerate(alone):
        if i in errors:
            assert (type(errors[i]), str(errors[i])) == want and np.isnan(rows[i]).all()
        else:
            assert rows[i].tobytes() == want


def test_stacks_hold_at_most_one_chunk_of_channel_entries():
    n, lam, dist = 64, 1e-3, 5.0
    spacing = math.sqrt(lam * dist / n)
    scene = link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)
    sizes = []

    def spy(*args):
        entries = _channel_entries(*args)
        sizes.append(entries.size)
        return entries

    posed = []

    def pose_spy(points, *args):  # the positions a call holds, views by their whole array
        posed.append((points if points.base is None else points.base).size)
        return _posed_points(points, *args)

    bound = max(optimize._STACK_ENTRIES, n * n)
    with mock.patch.object(optimize, "_channel_entries", spy), \
            mock.patch.object(optimize, "_posed_points", pose_spy):
        sweep(scene, SweepVariable.ETA, np.arange(1, 49) / 16.0, WavefrontModel.SPHERICAL,
              snr_db=10.0)
        assert len(sizes) == 48 * n * n // bound and max(sizes) <= bound
        # positions are scaled a chunk at a time: each end, each chunk, one call
        assert len(posed) == 2 * len(sizes) and max(posed) <= bound // n * 3
        sizes.clear()
        aosa_schedule(n, scene, [0.0, 10.0], WavefrontModel.FRESNEL)
        assert 1 < len(sizes) and max(sizes) <= bound
        # every AoSA layout has n elements at both ends, whatever the template holds
        sizes.clear()
        pair = link_scene(build_ula(2, spacing), build_ula(2, spacing), dist, lam)
        aosa_schedule(n, pair, [0.0, 10.0], WavefrontModel.FRESNEL)
        assert sizes == [4 * n * n, 3 * n * n]
    # one variant per call: a 128 x 128 channel exceeds the bound alone
    big = link_scene(build_ula(128, spacing), build_ula(128, spacing), dist, lam)
    sizes.clear()
    with mock.patch.object(optimize, "_channel_entries", spy):
        sweep(big, SweepVariable.FREQUENCY_HZ, np.array([1e11, 2e11, 3e11]), WavefrontModel.PLANAR,
              snr_db=10.0)
    assert sizes == [128 * 128] * 3


def _aosa_alone(n_total, scene, snr_grid_db, model, element_spacing_m, build=build_aosa):
    """aosa_schedule as the per-divisor loop ran it: build a layout, evaluate it, go on."""
    lam, dist = scene.wavelength_m, scene.separation_m
    descriptors, gains = [], []
    for r in (d for d in range(1, n_total + 1) if n_total % d == 0):
        sub = math.sqrt(lam * dist / r)
        if r > 1 and (n_total // r - 1) * element_spacing_m >= sub:
            continue
        layout = build(n_total, r, sub, element_spacing_m)
        gains.append(_gains_alone(scene, model, (np.eye(3), np.eye(3)),
                                  points=(layout.positions,) * 2))
        descriptors.append(f"aosa_r={r}")
    points = []
    for snr_db in snr_grid_db:  # the first of equal SEs wins
        snr = 10.0 ** (snr_db / 10.0)
        best = int(np.argmax([_waterfill_alone(g, snr)[1] for g in gains]))
        report = _report_alone(gains[best], n_total, n_total, snr)
        points.append(_Row(snr_db, snr_db, report, descriptors[best]))
    return points


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("dist, elem", [
    (5.0, 2.5e-4),  # every divisor evaluates
    (5.0, 1e-30),  # r = 2 cannot be built: its clusters' elements coincide in floating point
    (1e-10, 1e-30),  # and r = 1, built first, has arrays 1e-10 m apart, which fails first
])
def test_aosa_stack_raises_the_first_failure_of_the_per_divisor_loop(model, dist, elem):
    scene = link_scene(build_ula(4, 1e-3), build_ula(4, 1e-3), dist, 1e-3)
    snrs = [-10.0, 0.0, 10.0]
    got = _sweep_outcome(lambda _: aosa_schedule(8, scene, snrs, model, elem), None)
    assert got == _sweep_outcome(lambda _: _aosa_alone(8, scene, snrs, model, elem), None)


def _failing_aosa(failures, dist):
    """build_aosa, but failing at the divisors of ``failures``: a "layout" raises, and a
    "geometry" puts one tx element on one rx element once the arrays are posed dist apart."""
    def build(n_total, r, sub, elem):
        if failures.get(r) == "layout":
            raise InvalidArgumentError(f"no layout at r = {r}")
        layout = build_aosa(n_total, r, sub, elem)
        if failures.get(r) != "geometry":
            return layout
        points = layout.positions.copy()
        points[:2] = [[0.0, 0.0, dist], [0.0, 0.0, 0.0]]
        return SimpleNamespace(positions=points)
    return build


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("failures", [
    {16: "layout"},
    {16: "geometry"},
    {16: "geometry", 32: "layout"},
    {32: "layout", 64: "geometry"},
])
def test_aosa_chunks_raise_the_first_failure_of_the_per_divisor_loop(model, failures):
    # 64 elements: 4 of the 7 divisors' layouts per chunk, so each first failure sits in the
    # second chunk, after a first chunk that evaluates
    lam, dist, n = 1e-3, 5.0, 64
    spacing = math.sqrt(lam * dist / n)
    scene = link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)
    snrs = [-10.0, 0.0, 10.0]
    build = _failing_aosa(failures, dist)
    with mock.patch.object(optimize, "build_aosa", build):
        got = _sweep_outcome(lambda _: aosa_schedule(n, scene, snrs, model), None)
    want = _sweep_outcome(lambda _: _aosa_alone(n, scene, snrs, model, lam / 4, build), None)
    assert isinstance(got, tuple) and got == want


# -- model identities ---------------------------------------------------------

def _random_rotation(rng):
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _z_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(
    layouts=st.sampled_from(["ula", "ura", "uca"]),
    model=st.sampled_from(MODELS),
    angle_t=st.floats(0.0, 1.2),
    angle_r=st.floats(0.0, 1.2),
    offset=st.floats(-0.05, 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_is_invariant_under_rigid_motion_and_transposition(
    layouts, model, angle_t, angle_r, offset, seed
):
    rng = np.random.default_rng(seed)
    lam, dist = 1e-3, 5.0
    build = {"ula": lambda: build_ula(6, 0.03), "ura": lambda: build_ura(3, 0.04),
             "uca": lambda: build_uca(5, 0.1)}[layouts]
    tx, rx = build(), build()
    rx_pose = RigidPose(rotate_in_link_plane(rx, angle_r).rotation, [offset, 0.0, 0.0])
    scene = link_scene(tx, rx, dist, lam, rotate_in_link_plane(tx, angle_t), rx_pose)
    gains = gain_spectrum(channel_matrix(scene, model)).gains
    tol = 1e-9 * gains[0]
    # reciprocity: swapping the ends transposes the channel
    swapped = gain_spectrum(channel_matrix(transpose_scene(scene), model)).gains
    np.testing.assert_allclose(swapped, gains, rtol=0, atol=tol)
    # a common rigid motion of both arrays; the Fresnel expansion is taken
    # along the link axis, so it keeps its spectrum under turns about that axis
    turn = _z_rotation(rng.uniform(-math.pi, math.pi)) if model is WavefrontModel.FRESNEL \
        else _random_rotation(rng)
    shift = rng.uniform(-10.0, 10.0, 3)
    moved = [p @ turn.T + shift for p in (scene.tx_positions(), scene.rx_positions())]
    moved_gains = _squared_singular_values(_channel_entries(*moved, lam, model))
    np.testing.assert_allclose(moved_gains, gains, rtol=0, atol=tol)
