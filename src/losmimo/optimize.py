"""SNR-adaptive architecture selection and parameter sweeps.

Covers the rotating-ULA angle search, selection among a handful of fixed
array orientations, rank scheduling for arrays of subarrays, and generic
sweeps over SNR, channel parameter eta, carrier frequency, rotation, and
misalignment (tilt and transverse offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from ._search import golden_max
from .capacity import (
    RateReport,
    _check_snr,
    _rate_report,
    _squared_singular_values,
    _waterfill,
    _waterfilled_report,
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
_LABELS = {"snr": "snr_db", "eta": "eta", "freq": "freq_hz", "rotation": "rotation_rad",
           "tilt": "tilt_rad", "offset": "offset_m"}


class SweepVariable(Enum):
    SNR_DB = "snr"
    ETA = "eta"
    FREQUENCY_HZ = "freq"
    ROTATION_RAD = "rotation"
    TILT_RAD = "tilt"
    OFFSET_M = "offset"


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One swept variable over a grid, everything else held fixed."""

    variable: SweepVariable
    grid: np.ndarray = field(repr=False)
    base_scene: LinkScene
    model: WavefrontModel
    snr_db: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)):
            raise InvalidArgumentError("sweep grid must be a non-empty finite 1-D array")
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise InvalidArgumentError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", _frozen_copy(g))
        if not -math.inf < self.snr_db < math.inf:  # NaN fails both comparisons
            raise InvalidArgumentError(f"sweep snr_db must be finite, got {self.snr_db!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point, or the best configuration at one SNR of a
    plan (x_value = snr_db); ``error`` is set instead of ``report`` when the
    geometry at that point was unusable."""

    x_value: float
    snr_db: float
    report: RateReport | None
    config_descriptor: str
    error: str | None = None


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


def _snr_grid(snr_grid_db) -> list[float]:
    snr_grid_db = [float(s) for s in snr_grid_db]
    if not snr_grid_db or any(b <= a for a, b in zip(snr_grid_db, snr_grid_db[1:])):
        raise InvalidArgumentError("snr_grid_db must be non-empty and increasing")
    return snr_grid_db


def _gains(scene: LinkScene, model, rotations=None, rx_offset_m=0.0, points=None,
           wavelength_m=None) -> np.ndarray:
    """Squared singular values of a variant of ``scene``: the one evaluation path.

    A (tx, rx) pair of ``rotations`` re-poses the layouts (or the local
    ``points``) as :func:`link_scene` would, rx centroid at (rx_offset_m, 0, D);
    without it the arrays keep their poses.  ``wavelength_m`` replaces the carrier.
    """
    lam = scene.wavelength_m if wavelength_m is None else wavelength_m
    if rotations is None:
        tx_pts, rx_pts = scene.tx_positions(), scene.rx_positions()
    else:
        tx, rx = points or (scene.tx.positions, scene.rx.positions)
        d = scene.separation_m
        tx_pts = _posed_points(tx, rotations[0], np.zeros(3))
        rx_pts = _posed_points(rx, rotations[1], np.array([rx_offset_m, 0.0, d]))
        _check_axial(tx_pts, rx_pts, d)
    return _squared_singular_values(_channel_entries(tx_pts, rx_pts, lam, model))


def _rotated(scene: LinkScene, model, angle_tx: float, angle_rx: float) -> np.ndarray:
    """Gains with both arrays re-posed from broadside by in-plane angles."""
    return _gains(scene, model, (_link_plane_rotation(angle_tx), _link_plane_rotation(angle_rx)))


def _report(scene: LinkScene, gains: np.ndarray, snr_linear: float) -> RateReport:
    return _rate_report(gains, scene.tx.element_count, scene.rx.element_count, snr_linear)


def _best_rotation(scene: LinkScene, snrs, model, independent: bool):
    """Search of :func:`optimize_rotation` on validated inputs at each SNR of
    ``snrs``: [(angle(s), se, SEs over the rotation grid)], one per SNR."""
    # coarse grid of angles (of tx x rx angle pairs when independent), then
    # golden section within one grid step of the first best point, per angle;
    # the grid spectra do not depend on the SNR, so they are built once
    n = _ANGLE_CANDIDATES if independent else _ROTATION_GRID_POINTS
    grid = np.linspace(0.0, np.pi / 2, n)
    pairs = [(a, b) for a in grid for b in grid] if independent else [(a, a) for a in grid]
    spectra = [_rotated(scene, model, *p) for p in pairs]
    results = []
    for snr_linear in snrs:

        def se(pair, snr_linear=snr_linear):
            return _waterfill(_rotated(scene, model, *pair), snr_linear)[1]

        ses = np.array([_waterfill(g, snr_linear)[1] for g in spectra])
        i = int(np.argmax(ses))  # first max: smallest angle wins ties
        angles, best_se = [float(a) for a in pairs[i]], float(ses[i])
        for axes, j in (((0,), i // n), ((1,), i % n)) if independent else (((0, 1), i),):

            def f(a, axes=axes):
                pair = list(angles)
                for axis in axes:
                    pair[axis] = a
                return se(pair)

            lo, hi = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, n - 1)])
            cand, cand_se = golden_max(f, lo, hi, tol=_ANGLE_TOL_RAD)
            if cand_se > best_se:
                best_se = float(cand_se)
                for axis in axes:
                    angles[axis] = float(cand)
        results.append(((tuple(angles) if independent else angles[0]), best_se, ses))
    return results


def optimize_rotation(
    scene: LinkScene,
    snr_linear: float,
    model: WavefrontModel,
    independent: bool = False,
):
    """Best in-plane rotation of the arrays in [0, pi/2] at one SNR.

    By default both arrays turn by the same angle; with ``independent``
    each end gets its own angle and the result's first element is the
    (tx, rx) pair.  A 65-point grid scan brackets the optimum, golden
    section refines it to 1e-4 rad, and ties break toward the smaller
    angle (so a flat landscape reports broadside).
    """
    _require_ula_pair(scene, "optimize_rotation")
    _check_snr(snr_linear, scene.tx.element_count * scene.rx.element_count)
    [(best, _, _)] = _best_rotation(scene, [snr_linear], model, independent)
    pair = best if independent else (best, best)
    return best, _report(scene, _rotated(scene, model, *pair), snr_linear)


def _best_per_snr(candidates, snr_grid_db, n_t: int, n_r: int) -> list[SweepPoint]:
    """Row of the (descriptor, gains) candidate with the highest SE at each
    SNR; the earlier candidate wins ties."""
    rows = []
    for snr_db in snr_grid_db:
        snr = snr_db_to_linear(snr_db)
        _check_snr(snr, n_t * n_r)
        rated = [(d, *_waterfill(gains, snr)) for d, gains in candidates]
        descriptor, fractions, se = max(rated, key=lambda t: t[2])  # first of equal SEs
        report = _waterfilled_report(fractions, se, n_t, n_r, snr)
        rows.append(SweepPoint(snr_db, snr_db, report, descriptor))
    return rows


def fixed_angle_plan(
    scene: LinkScene,
    angles,
    snr_grid_db,
    model: WavefrontModel,
) -> list[SweepPoint]:
    """Best of a fixed set of rotation angles at each SNR on the grid."""
    angles = sorted(float(a) for a in angles)  # smaller angle wins ties
    if not angles:
        raise InvalidArgumentError("at least one angle is required")
    snr_grid_db = _snr_grid(snr_grid_db)
    if not all(math.isfinite(a) for a in angles):
        raise InvalidArgumentError("angle_rad must be finite")
    candidates = [(f"rotation_rad={a:.12g}", _rotated(scene, model, a, a)) for a in angles]
    return _best_per_snr(candidates, snr_grid_db, scene.tx.element_count, scene.rx.element_count)


def select_fixed_angles(
    scene: LinkScene,
    k: int,
    snr_grid_db,
    model: WavefrontModel,
):
    """Pick k <= 33 rotation angles minimizing the worst-case SE gap to the optimum.

    Candidates come from a 33-point grid on [0, pi/2]; the search is
    exhaustive for k <= 3 and augments the best triple greedily beyond
    that.  The gap at each SNR is measured against optimize_rotation.
    """
    return _select_fixed_angles(scene, k, snr_grid_db, model)[0]


def _select_fixed_angles(scene: LinkScene, k: int, snr_grid_db, model):
    """:func:`select_fixed_angles` plus the optimal SE at each SNR it measured
    the gaps against."""
    _check_count(k, "k")
    if k > _ANGLE_CANDIDATES:
        raise InvalidArgumentError(f"k must be at most {_ANGLE_CANDIDATES}, got {k}")
    _require_ula_pair(scene, "select_fixed_angles")
    snr_lin = [snr_db_to_linear(s) for s in _snr_grid(snr_grid_db)]
    for s in snr_lin:
        _check_snr(s, scene.tx.element_count * scene.rx.element_count)
    candidates = np.linspace(0.0, np.pi / 2, _ANGLE_CANDIDATES)
    best = _best_rotation(scene, snr_lin, model, False)
    ref = np.array([se for _, se, _ in best])
    table = np.array([ses[::2] for _, _, ses in best]).T  # candidate x snr; grid[::2] = candidates

    def worst_gap(idx_tuple):
        plan = table[list(idx_tuple)].max(axis=0)
        return float((1.0 - plan / ref).max())

    # min() keeps the first of equal gaps, in candidate order
    chosen = list(min(combinations(range(candidates.size), min(k, 3)), key=worst_gap))
    while len(chosen) < k:
        rest = [c for c in range(candidates.size) if c not in chosen]
        chosen.append(min(rest, key=lambda c: worst_gap(tuple(chosen) + (c,))))
    return sorted(float(candidates[c]) for c in chosen), ref


def aosa_schedule(
    n_total: int,
    scene_template: LinkScene,
    snr_grid_db,
    model: WavefrontModel,
    element_spacing_m: float | None = None,
) -> list[SweepPoint]:
    """Best subarray count per SNR for an n_total-antenna array of subarrays.

    For each divisor r of n_total the array splits into r clusters at the
    rank-r Rayleigh center spacing sqrt(lambda*D/r); elements within a
    cluster sit a quarter wavelength apart unless overridden.  A divisor
    whose clusters would overlap at that spacing is skipped (r = 1 always
    fits).  Ties go to the smaller r (fewer, larger subarrays).
    """
    _check_count(n_total, "n_total")
    snr_grid_db = _snr_grid(snr_grid_db)
    lam = scene_template.wavelength_m
    dist = scene_template.separation_m
    elem = lam / 4 if element_spacing_m is None else float(element_spacing_m)
    upright = (np.eye(3), np.eye(3))
    candidates = []
    for r in (d for d in range(1, int(n_total) + 1) if n_total % d == 0):
        sub = math.sqrt(lam * dist / r)
        if not _clusters_apart(n_total, r, sub, elem):
            continue
        layout = build_aosa(int(n_total), r, sub, elem)
        gains = _gains(scene_template, model, upright, points=(layout.positions,) * 2)
        candidates.append((f"aosa_r={r}", gains))
    return _best_per_snr(candidates, snr_grid_db, int(n_total), int(n_total))


def _beamforming_report(scene: LinkScene, snr_linear: float) -> RateReport:
    # aperture -> 0 limit: a single coherent beam with full array gain
    n_t, n_r = scene.tx.element_count, scene.rx.element_count
    fractions = np.zeros(min(n_t, n_r))
    fractions[0] = 1.0
    se = float(np.log1p(snr_linear * n_t * n_r) / math.log(2.0))
    return _waterfilled_report(fractions, se, n_t, n_r, snr_linear)


def _sweep_gains(scene: LinkScene, model, variable: SweepVariable, x: float) -> np.ndarray:
    """Gains of the base scene with the swept variable set to x.

    Eta, tilt (rx alone) and offset re-pose the arrays from the scene's
    rotations with no other offset.
    """
    base = (scene.tx_pose.rotation, scene.rx_pose.rotation)
    if variable is SweepVariable.FREQUENCY_HZ:
        _check_positive(x, "freq_hz")
        lam = SPEED_OF_LIGHT_M_S / x
        _check_positive(lam, "wavelength_m")
        return _gains(scene, model, wavelength_m=lam)
    if variable is SweepVariable.ETA:
        if x < 0:
            raise InvalidArgumentError("eta must be non-negative")
        if min(scene.tx.aperture_m, scene.rx.aperture_m) <= 0:
            raise IncompatibleModeError("eta sweep needs layouts with positive aperture")
        # both broadside apertures become sqrt(eta*lam*D*N); positions scale as in scale_layout
        target = math.sqrt(x * scene.wavelength_m * scene.separation_m * scene.n_min)
        points = []
        for lay in (scene.tx, scene.rx):
            factor = target / lay.aperture_m
            _check_positive(factor, "factor")
            points.append(lay.positions * factor)
        return _gains(scene, model, base, points=points)
    if variable is SweepVariable.ROTATION_RAD:
        return _rotated(scene, model, x, x)
    if variable is SweepVariable.TILT_RAD:
        return _gains(scene, model, (base[0], _link_plane_rotation(x)))
    return _gains(scene, model, base, rx_offset_m=x)


def sweep(spec: SweepSpec):
    """Evaluate a RateReport at every grid point, in grid order.

    Grid points whose geometry is degenerate come back as error entries
    rather than failing the whole sweep.
    """
    scene = spec.base_scene
    model = spec.model
    var = spec.variable
    if var is SweepVariable.ROTATION_RAD:
        _require_ula_pair(scene, "rotation sweep")
    label = _LABELS[var.value]

    if var is SweepVariable.SNR_DB:
        gains = _gains(scene, model)
        return [
            SweepPoint(x, x, _report(scene, gains, snr_db_to_linear(x)), f"{label}={x:.12g}")
            for x in spec.grid.tolist()
        ]

    snr_fixed = snr_db_to_linear(spec.snr_db)
    points = []
    # an overflowing geometry (say an offset of 1e300) ends in a typed error row
    with np.errstate(over="ignore", invalid="ignore"):
        for x in spec.grid.tolist():
            descriptor = f"{label}={x:.12g}"
            try:
                if var is SweepVariable.ETA and x == 0.0:
                    # aperture -> 0 limit collapses to pure beamforming
                    report = _beamforming_report(scene, snr_fixed)
                else:
                    report = _report(scene, _sweep_gains(scene, model, var, x), snr_fixed)
                points.append(SweepPoint(x, spec.snr_db, report, descriptor))
            except LosMimoError as exc:
                points.append(SweepPoint(x, spec.snr_db, None, descriptor,
                                         error=f"{type(exc).__name__}: {exc}"))
    return points
