"""Stacked kernels against the one-variant code they replace, bit for bit, plus
the model identities they must keep (KKT waterfilling, rigid-motion and
reciprocity invariance of the spectrum).  The per-axis pair offsets of the
channel kernel and of the CUSTOM diameter are held to the (..., 3) offset
tensor they replace, bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    Archetype,
    DegenerateGeometryError,
    InvalidArgumentError,
    RigidPose,
    WavefrontModel,
    build_uca,
    build_ula,
    build_ura,
    channel_matrix,
    gain_spectrum,
    link_scene,
    optimize_rotation,
    rotate_in_link_plane,
    select_fixed_angles,
    transpose_scene,
)
from losmimo import _search, geometry, optimize
from losmimo.capacity import _LN2, _ZERO_GAIN_RTOL, _squared_singular_values, _waterfill
from losmimo.channel import _MIN_PAIR_DISTANCE_M, _channel_entries, _pair_distances
from losmimo.geometry import _link_plane_rotation, _posed_points, recompute_aperture

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


def _golden_alone(f, a, b, tol):
    """Scalar golden section, as written before stacking; also returns its iterates."""
    seen = []

    def g(x):
        seen.append(x)
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

    seen = [[] for _ in range(rows)]

    def f(x, which):
        for xi, i in zip(x.tolist(), which.tolist()):
            seen[i].append(xi)
        return np.array([value(i, xi) for xi, i in zip(x.tolist(), which.tolist())])

    # the row-wise search also swaps a reversed bracket
    best_x, best_f = _search.golden_max(f, hi.copy(), lo.copy(), tol)
    for i in range(rows):
        want_x, want_f, want_seen = _golden_alone(lambda x: value(i, x), lo[i], hi[i], tol)
        assert (best_x[i], best_f[i]) == (want_x, want_f)
        assert seen[i] == want_seen


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
        assert row.tolist() == optimize._rotated(scene, model, a_t, a_r).tolist()


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
