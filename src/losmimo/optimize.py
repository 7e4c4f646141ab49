"""SNR-adaptive architecture selection and parameter sweeps.

Covers the rotating-ULA angle search, selection among a handful of fixed
array orientations, rank scheduling for arrays of subarrays, and generic
sweeps over SNR, channel parameter eta, carrier frequency, rotation, and
misalignment (tilt and transverse offset).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._search import golden_max
from .capacity import (
    _STACK_ENTRIES,
    RateTable,
    _check_rows,
    _check_snr,
    _bound,
    _rate_table,
    _squared_singular_values,
    _waterfill,
)
from .channel import SPEED_OF_LIGHT_M_S, WavefrontModel, _channel_entries
from .errors import (
    IncompatibleModeError,
    InvalidArgumentError,
    LosMimoError,
    UnsupportedArchetypeError,
)
from .geometry import (
    Archetype,
    LinkScene,
    _check_axial,
    _check_count,
    _check_positive,
    _clusters_apart,
    _frozen_copy,
    _link_plane_rotation,
    _posed_points,
    build_aosa,
)

_ANGLE_CANDIDATES = 33
# every other rotation-grid angle is a fixed-angle candidate
_ROTATION_GRID_POINTS = 2 * _ANGLE_CANDIDATES - 1
_ANGLE_TOL_RAD = 1e-4
_LOOKAHEAD_DEPTH, _LOOKAHEAD_ENTRIES = 4, 1024  # golden-section steps per call: _best_rotation
_LABELS = {"snr": "snr_db", "eta": "eta", "freq": "freq_hz", "rotation": "rotation_rad",
           "tilt": "tilt_rad", "offset": "offset_m"}


class SweepVariable(Enum):
    SNR_DB = "snr"
    ETA = "eta"
    FREQUENCY_HZ = "freq"
    ROTATION_RAD = "rotation"
    TILT_RAD = "tilt"
    OFFSET_M = "offset"


class SweepTable(NamedTuple):
    """Sweep or plan rows as columns: the grid values and SNRs in dB (S,), the config
    descriptors, the rates of every row (an error row's SE and bound are NaN, its rank 0) and
    the error text of each error row by row index.  As a tuple of columns, ``len(t)`` is 5 and
    iterating walks the columns; the rows number ``len(t.descriptors)``."""

    x: np.ndarray
    snr_db: np.ndarray
    descriptors: list
    rates: RateTable
    errors: dict


def _descriptors(label: str, values) -> list[str]:
    """The config descriptor of each value: ``label=value`` to 12 significant digits."""
    return [f"{label}={x:.12g}" for x in values]


def snr_db_to_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise InvalidArgumentError(f"snr_db {snr_db!r} overflows a float in linear scale") from None


def _require_ula_pair(scene: LinkScene, what: str):
    if scene.tx.archetype is not Archetype.ULA or scene.rx.archetype is not Archetype.ULA:
        raise UnsupportedArchetypeError(
            f"{what} requires ULA layouts at both ends, got "
            f"{scene.tx.archetype.value}/{scene.rx.archetype.value}"
        )


def _linear_snrs(snr_db, array_gain: int) -> np.ndarray:
    """Linear SNRs of the dB values, each converted and checked once (against the full array
    gain n_t * n_r) where it enters: whatever takes the array checks nothing again."""
    return np.array([_check_snr(snr_db_to_linear(s), array_gain) for s in snr_db], dtype=float)


def _snr_grid(snr_grid_db, array_gain: int):
    """A plan's SNR grid in dB (floats) and its checked linear SNRs, before any geometry."""
    snr_grid_db = [float(s) for s in snr_grid_db]
    if not snr_grid_db or any(b <= a for a, b in zip(snr_grid_db, snr_grid_db[1:])):
        raise InvalidArgumentError("snr_grid_db must be non-empty and increasing")
    return snr_grid_db, _linear_snrs(snr_grid_db, array_gain)


def _gains(scene: LinkScene, model, count: int, variants, errors=None, sizes=None) -> np.ndarray:
    """Squared singular values (count, n) of ``count`` variants of ``scene``: the one
    evaluation path.

    ``variants(s)`` gives the posed tx points, posed rx points and wavelength of the variants
    in slice ``s``, each stacked over the slice ((g, n, 3), (g, 1, 1)) or one value they share;
    with nothing stacked the gains are (n,).  Variants (of ``sizes`` = (n_t, n_r) elements,
    the scene's by default) are evaluated _STACK_ENTRIES channel entries at a time, and a
    failing chunk re-runs its variants alone: the first failing one raises, or goes into
    ``errors`` under its index, with NaN gains.  A count of 0 gives an empty (0, n) block.
    """
    n_t, n_r = sizes or (scene.tx.element_count, scene.rx.element_count)

    def evaluate(i, j):  # gains of variants i to j
        tx, rx, lam = variants(slice(i, j))
        _check_axial(tx, rx, scene.separation_m)
        return _squared_singular_values(_channel_entries(tx, rx, lam, model))

    step = max(1, _STACK_ENTRIES // (n_t * n_r))  # variants per channel stack
    parts = []  # a loop: an evaluate that called itself would be a reference cycle per call
    for i in range(0, count, step):
        rows = range(i, min(i + step, count))
        try:
            parts.append(evaluate(i, rows.stop))
        except LosMimoError:  # each variant alone: its own gains, or its own error
            for k in rows:
                try:
                    parts.append(evaluate(k, k + 1))
                except LosMimoError as exc:
                    if errors is None:
                        raise
                    errors[k] = exc
                    parts.append(np.full((1, min(n_t, n_r)), np.nan))
    return np.concatenate(parts) if parts else np.empty((0, min(n_t, n_r)))


def _posed(scene: LinkScene, rotations, local=None, anchor=None):
    """A :func:`_gains` variant: ``local`` tx and rx points (the layouts' by default) turned
    by ``rotations`` about their centroids onto the origin and the rx ``anchor`` ((0, 0, D)
    by default), as :func:`link_scene` poses them, at the scene's wavelength."""
    tx, rx = local or (scene.tx.positions, scene.rx.positions)
    anchor = np.array([0.0, 0.0, scene.separation_m]) if anchor is None else anchor
    return (_posed_points(tx, rotations[0], np.zeros(3)),
            _posed_points(rx, rotations[1], anchor), scene.wavelength_m)


def _rotated(scene: LinkScene, model, angle_tx, angle_rx, errors=None,
             lockstep: bool = False) -> np.ndarray:
    """Gains (G, n) with both arrays re-posed from broadside by G in-plane angles each.

    With ``lockstep`` (the probes of searches that move together, so many coincide) each
    distinct (tx, rx) pair is evaluated once, in the order of its first index: every duplicate
    takes its gains and its error, and with no ``errors`` the first failing index raises.
    """
    if lockstep:
        pairs = np.column_stack([angle_tx, angle_rx])
        reps, where = _distinct_rows(pairs)
        found = None if errors is None else {}
        gains = _rotated(scene, model, pairs[reps, 0], pairs[reps, 1], found)
        if found:
            errors.update((i, found[r]) for i, r in enumerate(where.tolist()) if r in found)
        return gains[where]
    turn_t, turn_r = (_link_plane_rotation(np.atleast_1d(a)) for a in (angle_tx, angle_rx))
    return _gains(scene, model, len(turn_t),
                  lambda s: _posed(scene, (turn_t[s], turn_r[s])), errors)


def _distinct_rows(rows: np.ndarray):
    """The first index of each distinct row of the floats ``rows`` (G, m), ascending, and per
    row the position of its own in that list.  Rows are compared as bytes, so -0.0 and 0.0
    stay apart."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows[0].nbytes)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    reps = np.sort(first)
    return reps, np.searchsorted(reps, first)[inverse]


def _se_table(gains: np.ndarray, snrs: np.ndarray) -> np.ndarray:
    """SEs (S, C) of each row of ``gains`` (C, n) at each SNR, _STACK_ENTRIES gains at a time."""
    step = max(1, _STACK_ENTRIES // gains.size)
    return np.concatenate([
        _waterfill(np.tile(gains, (p.size, 1)), np.repeat(p, len(gains)))[1].reshape(p.size, -1)
        for p in np.split(snrs, range(step, snrs.size, step))])


def _best_rotation(scene: LinkScene, snrs, model, independent: bool, seen=None):
    """Search of :func:`optimize_rotation` on validated inputs at each SNR of ``snrs``:
    the (tx, rx) angles (S, 2), their SEs (S,), and the grid's gains (G, n) and SEs (S, G).
    Each evaluation's (tx, rx) pairs and gains go into the list ``seen``, if one is given."""
    # coarse grid of angles (of tx x rx angle pairs when independent), then
    # golden section within one grid step of the first best point, per angle,
    # for all SNRs at once; the grid spectra do not depend on the SNR, and the
    # searches of SNRs that start alike probe alike, so each pair is evaluated once
    n = _ANGLE_CANDIDATES if independent else _ROTATION_GRID_POINTS
    grid = np.linspace(0.0, np.pi / 2, n)
    pairs = np.stack([np.repeat(grid, n), np.tile(grid, n)] if independent else [grid, grid], 1)
    gains = _rotated(scene, model, pairs[:, 0], pairs[:, 1])
    ses = _se_table(gains, snrs)
    best = ses.argmax(axis=1)  # first max: smallest angle wins ties
    angles, best_se = pairs[best], ses[np.arange(snrs.size), best]
    lockstep, n_t, n_r = snrs.size > 1, scene.tx.element_count, scene.rx.element_count
    if seen is not None:
        seen.append((pairs, gains))
    for axes, j in (([0], best // n), ([1], best % n)) if independent else (([0, 1], best),):
        def f(x, rows, errors=None, axes=axes):
            pair = angles[rows]
            pair[:, axes] = x[:, None]
            gains = _rotated(scene, model, pair[:, 0], pair[:, 1], errors, lockstep)
            gains[list(errors or ())] = 1.0  # failed probes' stand-ins: no step takes them
            if seen is not None:
                seen.append((pair, gains))
            return _waterfill(gains, snrs[rows])[1]

        lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, n - 1)]
        # golden-section steps per call: the largest L <= 4 whose first call, 2**L probes per
        # search, holds at most 1,024 channel entries of the distinct searches (a bracket and
        # the angle held) and 16,384 gains of all rows, which each waterfill their own
        starts = np.column_stack([np.delete(angles, axes, axis=1), lo, hi])
        searches = len(_distinct_rows(starts)[0]) if lockstep else 1
        depth = max(1, min(_LOOKAHEAD_DEPTH,
                           (_LOOKAHEAD_ENTRIES // (searches * n_t * n_r)).bit_length() - 1,
                           (_STACK_ENTRIES // (snrs.size * min(n_t, n_r))).bit_length() - 1))
        cand, cand_se = golden_max(f, lo, hi, _ANGLE_TOL_RAD, depth)
        better = cand_se > best_se
        best_se = np.where(better, cand_se, best_se)
        angles[:, axes] = np.where(better[:, None], cand[:, None], angles[:, axes])
    return angles, best_se, gains, ses


def optimize_rotation(
    scene: LinkScene,
    snr_linear: float,
    model: WavefrontModel,
    independent: bool = False,
):
    """Best in-plane rotation of the arrays in [0, pi/2] at one SNR.

    By default both arrays turn by the same angle; with ``independent``
    each end gets its own angle and the result's first element is the
    (tx, rx) pair.  A grid scan of 65 angles (33 x 33 pairs when independent)
    brackets the optimum, golden section refines it (each angle in turn) to
    1e-4 rad, a few steps per evaluation on small arrays (with the bits and
    errors of one step at a time), and ties break toward the smaller angle
    (so a flat landscape reports broadside).  The rates, a one-row
    :class:`RateTable`, come from the gains the search evaluated at the
    winning angles.
    """
    _require_ula_pair(scene, "optimize_rotation")
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    snrs = np.array([_check_snr(snr_linear, n_t * n_r)], dtype=float)
    seen = []
    won = _best_rotation(scene, snrs, model, independent, seen)[0]
    pairs, gains = (np.concatenate(v) for v in zip(*seen))
    at = (pairs.view(np.int64) == won.view(np.int64)).all(axis=1).argmax()  # first evaluation
    pair = won[0].tolist()
    return (tuple(pair) if independent else pair[0]), _rate_table(gains[at, None], n_t, n_r, snrs)


def _best_per_snr(descriptors, gains, snr_grid_db, snrs, n_t: int, n_r: int) -> SweepTable:
    """Rows of the candidate (descriptors[i], gains[i]) with the highest SE at each SNR of
    the grid, given in dB and as the checked linear ``snrs``; the earlier candidate wins ties."""
    best = _se_table(gains, snrs).argmax(axis=1)  # first of equal SEs
    grid = np.array(snr_grid_db, dtype=float)
    return SweepTable(grid, grid, [descriptors[i] for i in best.tolist()],
                      _rate_table(gains[best], n_t, n_r, snrs), {})


def fixed_angle_plan(
    scene: LinkScene,
    angles,
    snr_grid_db,
    model: WavefrontModel,
) -> SweepTable:
    """Best of a fixed set of rotation angles at each SNR on the grid."""
    angles = sorted(float(a) for a in angles)  # smaller angle wins ties
    if not angles:
        raise InvalidArgumentError("at least one angle is required")
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    snr_grid_db, snrs = _snr_grid(snr_grid_db, n_t * n_r)
    if not all(math.isfinite(a) for a in angles):
        raise InvalidArgumentError("angle_rad must be finite")
    gains = _rotated(scene, model, np.array(angles), np.array(angles))
    return _best_per_snr(_descriptors("rotation_rad", angles), gains, snr_grid_db, snrs, n_t, n_r)


def _combinations(n: int, k: int) -> np.ndarray:
    """The rows of ``combinations(range(n), k)``, in its order, as an array (C, k)."""
    rows = np.arange(n)[:, None]
    for _ in range(k - 1):  # each i, then every row whose first element exceeds i
        first, rest = np.nonzero(np.arange(n)[:, None] < rows[:, 0])
        rows = np.column_stack([first, rows[rest]])
    return rows


def _least_worst_gap(table: np.ndarray, ref: np.ndarray, subsets: np.ndarray, floor=None) -> int:
    """Index of the first of ``subsets`` (rows of candidate indices) whose worst gap is least:
    the greatest over the SNRs of 1 - t / ref, t the highest of its candidates' SEs in
    ``table`` (S, C) and of ``floor`` (S,); bit for bit the argmin of every worst gap.

    A subset's worst gap over some of the SNRs bounds it from below.  The SNRs start empty,
    and the one where the first subset of least bound has its worst gap joins them, until
    that subset's bound is its worst gap: then each earlier subset's gap exceeds it and no
    later one's is lower.  Each round adds a new SNR, so there are at most S; smooth SE
    tables take a handful, and no round holds more than one SNR of every subset or one
    subset at every SNR.
    """
    def gaps(rows, snrs):  # gaps (len(snrs), len(rows)) of the subsets[rows] at the snrs
        ses = table[snrs]
        top = ses[:, subsets[rows, 0]]
        for c in subsets[rows, 1:].T:
            np.maximum(top, ses[:, c], out=top)
        if floor is not None:
            np.maximum(top, floor[snrs, None], out=top)
        return 1.0 - top / ref[snrs, None]

    bound = np.full(len(subsets), -np.inf)
    while True:
        first = bound.argmin()  # argmin: the first of equal bounds
        whole = gaps([first], slice(None))[:, 0]
        worst = whole.argmax()
        if whole[worst] <= bound[first]:
            return int(first)
        np.maximum(bound, gaps(slice(None), [worst])[0], out=bound)


def _least_gap_candidates(table: np.ndarray, ref: np.ndarray, k: int) -> list[int]:
    """k columns of the SE table (S, C) whose best SE stays closest to the optima ``ref``: the
    min(k, 3) of least worst gap, then greedily one more at a time; each step keeps the first
    of equal gaps, in the order of combinations()."""
    subsets = _combinations(table.shape[1], min(k, 3))
    chosen = subsets[_least_worst_gap(table, ref, subsets)].tolist()
    while len(chosen) < k:
        rest = np.array([c for c in range(table.shape[1]) if c not in chosen])
        chosen.append(int(rest[_least_worst_gap(table, ref, rest[:, None],
                                                table[:, chosen].max(axis=1))]))
    return chosen


def select_fixed_angles(scene: LinkScene, k: int, snr_grid_db, model: WavefrontModel):
    """Pick k <= 33 rotation angles minimizing the worst-case SE gap to the optimum.

    Candidates come from a 33-point grid on [0, pi/2]; the search is
    exhaustive for k <= 3 and augments the best triple greedily beyond
    that.  The gap at each SNR is measured against optimize_rotation.
    Returns ``(angles, plan, worst_case_gap)``: the sorted angles, their
    :func:`fixed_angle_plan` over the grid and its worst gap, all from one
    rotation search (its grid holds every candidate).
    """
    _check_count(k, "k")
    if k > _ANGLE_CANDIDATES:
        raise InvalidArgumentError(f"k must be at most {_ANGLE_CANDIDATES}, got {k}")
    _require_ula_pair(scene, "select_fixed_angles")
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    snr_grid_db, snrs = _snr_grid(snr_grid_db, n_t * n_r)
    candidates = np.linspace(0.0, np.pi / 2, _ANGLE_CANDIDATES)
    _, ref, gains, ses = _best_rotation(scene, snrs, model, False)
    gains, table = gains[::2], ses[:, ::2]  # per candidate; grid[::2] = candidates

    chosen = sorted(_least_gap_candidates(table, ref, k))  # as fixed_angle_plan sorts them
    angles = [float(candidates[c]) for c in chosen]
    plan = _best_per_snr(_descriptors("rotation_rad", angles), gains[chosen], snr_grid_db, snrs,
                         n_t, n_r)
    gaps = [1.0 - se / r for se, r in zip(plan.rates.ses.tolist(), ref.tolist()) if r > 0]
    return angles, plan, max([0.0] + gaps)


def aosa_schedule(
    n_total: int,
    scene_template: LinkScene,
    snr_grid_db,
    model: WavefrontModel,
    element_spacing_m: float | None = None,
) -> SweepTable:
    """Best subarray count per SNR for an n_total-antenna array of subarrays.

    For each divisor r of n_total the array splits into r clusters at the
    rank-r Rayleigh center spacing sqrt(lambda*D/r); elements within a
    cluster sit a quarter wavelength apart unless overridden.  A divisor
    whose clusters would overlap at that spacing is skipped (r = 1 always
    fits).  Each fitting layout is built and evaluated upright at both ends,
    in chunks of _STACK_ENTRIES channel entries sized by n_total; the error of
    the first failing divisor, in increasing r, raises, whether its layout or
    its geometry failed.  Ties go to the smaller r (fewer, larger subarrays).
    """
    _check_count(n_total, "n_total")
    n = int(n_total)
    snr_grid_db, snrs = _snr_grid(snr_grid_db, n * n)
    lam = scene_template.wavelength_m
    dist = scene_template.separation_m
    elem = lam / 4 if element_spacing_m is None else float(element_spacing_m)
    subs = {r: math.sqrt(lam * dist / r) for r in range(1, n + 1) if n % r == 0}
    fits = [r for r, sub in subs.items() if _clusters_apart(n, r, sub, elem)]

    def variants(s):  # each fitting divisor's layout, upright at both ends
        pts = np.array([build_aosa(n, r, subs[r], elem).positions for r in fits[s]])
        return _posed(scene_template, (np.eye(3),) * 2, (pts, pts))

    gains = _gains(scene_template, model, len(fits), variants, sizes=(n, n))
    return _best_per_snr([f"aosa_r={r}" for r in fits], gains, snr_grid_db, snrs, n, n)


def _check_positives(s, *columns):
    """:func:`_check_positive` of the first failing value in slice ``s`` of each column."""
    for values, name in columns:
        bad = ~((0 < values[s]) & (values[s] < np.inf))
        if bad.any():
            _check_positive(float(values[s][bad.argmax()]), name)


def _sweep_variants(scene: LinkScene, variable: SweepVariable, v: np.ndarray):
    """The :func:`_gains` variants at the grid values ``v`` (eta 0 aside), a slice's points'
    own checks (frequency, eta) first.  Eta, tilt (rx alone) and offset re-pose the arrays
    from the scene's rotations with no other offset."""
    if variable is SweepVariable.FREQUENCY_HZ:
        tx, rx, lam = scene.tx_positions(), scene.rx_positions(), SPEED_OF_LIGHT_M_S / v

        def variants(s):
            _check_positives(s, (v, "freq_hz"), (lam, "wavelength_m"))
            return tx, rx, lam[s, None, None]
        return variants
    base = (scene.tx_pose.rotation, scene.rx_pose.rotation)
    if variable is SweepVariable.ETA:  # both broadside apertures become sqrt(eta*lam*D*N)
        target = np.sqrt(v * scene.wavelength_m * scene.separation_m * scene.n_min)
        f_t, f_r = target / scene.tx.aperture_m, target / scene.rx.aperture_m

        def variants(s):  # scaled per chunk: a grid of points can be large
            if (v[s] < 0).any():
                raise InvalidArgumentError("eta must be non-negative")
            if min(scene.tx.aperture_m, scene.rx.aperture_m) <= 0:
                raise IncompatibleModeError("eta sweep needs layouts with positive aperture")
            _check_positives(s, (f_t, "factor"), (f_r, "factor"))
            return _posed(scene, base, (scene.tx.positions * f_t[s, None, None],
                                        scene.rx.positions * f_r[s, None, None]))
        return variants
    if variable is SweepVariable.OFFSET_M:
        anchor = np.column_stack([v, np.zeros_like(v), np.full_like(v, scene.separation_m)])
        return lambda s: _posed(scene, base, anchor=anchor[s])
    turned = _link_plane_rotation(v)
    tilt = variable is SweepVariable.TILT_RAD
    return lambda s: _posed(scene, (base[0] if tilt else turned[s], turned[s]))


def _scene_reports(scene: LinkScene, model: WavefrontModel, snr_db) -> RateTable:
    """Rates of the posed scene at each SNR (dB): SNRs checked first, then one spectrum."""
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    snrs = _linear_snrs(snr_db, n_t * n_r)
    gains = _gains(scene, model, 1, lambda s: (
        scene.tx_positions(), scene.rx_positions(), scene.wavelength_m))
    return _rate_table(gains, n_t, n_r, snrs)


def sweep(scene: LinkScene, variable: SweepVariable, grid, model: WavefrontModel,
          snr_db: float = 0.0) -> SweepTable:
    """Evaluate the rates at every point of ``grid`` (strictly increasing) of ``variable``,
    everything else held fixed, in grid order; ``snr_db`` is the fixed SNR of a non-SNR sweep.

    The grid and the fixed SNR are checked once, before any geometry.  The points are
    evaluated as one stack of variants of the scene (see :func:`_gains`), each chunk's points
    checked first; a point whose checks or geometry fail comes back as an error row, with the
    error of the point alone, rather than failing the whole sweep.
    """
    x = _frozen_copy(np.asarray(grid, dtype=float))
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise InvalidArgumentError("sweep grid must be a non-empty finite 1-D array")
    if x.size > 1 and np.any(np.diff(x) <= 0):
        raise InvalidArgumentError("sweep grid must be strictly increasing")
    if not -math.inf < snr_db < math.inf:  # NaN fails both comparisons
        raise InvalidArgumentError(f"sweep snr_db must be finite, got {snr_db!r}")
    if variable is SweepVariable.ROTATION_RAD:
        _require_ula_pair(scene, "rotation sweep")
    grid = x.tolist()
    descriptors = _descriptors(_LABELS[variable.value], grid)
    if variable is SweepVariable.SNR_DB:
        return SweepTable(x, x, descriptors, _scene_reports(scene, model, grid), {})

    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    snr = _linear_snrs([snr_db], n_t * n_r)[0]
    size, n = len(grid), min(n_t, n_r)
    # eta 0 (the aperture -> 0 limit): a single beam with the full array gain
    beam = x == 0.0 if variable is SweepVariable.ETA else np.zeros(size, dtype=bool)
    se, ub = np.log1p(snr * n_t * n_r) / math.log(2.0), _bound(n_t, n_r, snr)
    rates = RateTable(np.full(size, snr), np.where(beam, se, np.nan), np.where(beam, ub, np.nan),
                      np.where(beam[:, None], np.eye(1, n), np.nan), beam.astype(int))
    _check_rows(rates.fractions[beam], rates.ses[beam], rates.ubs[beam])

    rows, failed = np.flatnonzero(~beam), {}  # per variant: its grid row; its error
    # an overflowing geometry (say an offset of 1e300) ends in a typed error row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gains = _gains(scene, model, rows.size, _sweep_variants(scene, variable, x[rows]),
                       failed)
        ok = np.delete(np.arange(rows.size), list(failed))
        try:  # as the report of these gains would; if it fails, each of them fails
            table = _rate_table(gains[ok], n_t, n_r, rates.snrs[rows[ok]])
            for column, values in zip(rates, table):
                column[rows[ok]] = values
        except LosMimoError as exc:
            failed.update(dict.fromkeys(ok.tolist(), exc))
    errors = {int(rows[j]): f"{type(e).__name__}: {e}" for j, e in sorted(failed.items())}
    return SweepTable(x, np.full(size, float(snr_db)), descriptors, rates, errors)
