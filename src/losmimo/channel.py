"""LOS channel matrices under spherical, Fresnel, and planar wavefront models.

All three models keep every entry at unit modulus: common path loss is
absorbed into the SNR definition, so geometry enters only through phase.
The spherical model uses the exact pairwise distances; the Fresnel model
expands them about the link-axis distance between the array centroids
(transverse offsets to second order, longitudinal to first); the planar
model keeps only the first-order term and is rank-1 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError, NyquistViolationError
from .geometry import (LinkScene, _array, _as_float, _count, _frozen_copy, _instance, _member,
                       _positive, _vector, projected_aperture)

SPEED_OF_LIGHT_M_S = 299792458.0

_MIN_PAIR_DISTANCE_M = 1e-9
_UNIT_MODULUS_ATOL = 1e-12


class WavefrontModel(Enum):
    SPHERICAL = "spherical"
    FRESNEL = "fresnel"
    PLANAR = "planar"


class Validity(Enum):
    PLANAR_OK = "planar"
    SPHERICAL_REQUIRED = "spherical"


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Unit-modulus complex channel; entry (n, m) carries phase -2*pi*D[n,m]/lambda."""

    entries: np.ndarray = field(repr=False)
    wavelength_m: float
    model: WavefrontModel

    def __post_init__(self):
        e = _array(self.entries, "channel entries must be finite", complex)
        _positive(self.wavelength_m, "wavelength_m")
        if e.ndim != 2:
            raise InvalidArgumentError("channel matrix must be 2-D")
        if not np.all(np.isfinite(e)):
            raise InvalidArgumentError("channel entries must be finite")
        if np.abs(np.abs(e) - 1.0).max() > _UNIT_MODULUS_ATOL:
            raise InvalidArgumentError("channel entries must have unit modulus")
        object.__setattr__(self, "entries", _frozen_copy(e))

    @property
    def n_r(self) -> int:
        return self.entries.shape[0]

    @property
    def n_t(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Unwrapped phase along a synthetic scan line plus polynomial fits.

    ``quadratic_fit`` holds (c0, c1, c2) with the phase modeled as
    c0 + c1*x + c2*x**2 over displacement x; ``linear_fit`` holds (b0, b1).
    """

    displacements_m: np.ndarray = field(repr=False)
    phase_rad: np.ndarray = field(repr=False)
    quadratic_fit: tuple[float, float, float]
    linear_fit: tuple[float, float]
    r2_quadratic: float
    r2_linear: float

    def __post_init__(self):
        x, p = (_array(a, "profile needs >= 3 matched samples")
                for a in (self.displacements_m, self.phase_rad))
        if x.shape != p.shape or x.ndim != 1 or x.size < 3:
            raise InvalidArgumentError("profile needs >= 3 matched samples")
        if not (0 <= _as_float(self.r2_quadratic) <= 1 and 0 <= _as_float(self.r2_linear) <= 1):
            raise InvalidArgumentError("r2 values must lie in [0, 1]")
        object.__setattr__(self, "displacements_m", _frozen_copy(x))
        object.__setattr__(self, "phase_rad", _frozen_copy(p))


def _pair_distances(tx: np.ndarray, rx: np.ndarray):
    """Squared transverse offset, axial offset and length of every pair rx[..., n, :] -
    tx[..., m, :], each (..., n_r, n_t) and formed in place, refusing intersecting arrays.
    The lengths add (dx*dx + dy*dy) + dz*dz, as a sum over a 3-wide offset axis does."""
    dx, dy, dz = (rx[..., :, None, i] - tx[..., None, :, i] for i in range(3))
    transverse = np.square(dx, out=dx)
    transverse += np.square(dy, out=dy)
    dist = np.sqrt(np.add(transverse, np.square(dz, out=dy), out=dy), out=dy)
    if dist.min() <= _MIN_PAIR_DISTANCE_M:
        raise DegenerateGeometryError(
            f"arrays intersect: minimum pair distance {dist.min():.3e} m"
        )
    return transverse, dz, dist


def _path_lengths(tx: np.ndarray, rx: np.ndarray, model: WavefrontModel):
    """Path length of every pair of posed (..., n, 3) points under the model: the distances
    (SPHERICAL) or zeta + rho**2 / (2 D) (FRESNEL), (..., n_r, n_t), or the PLANAR path
    D + p_r[n] - p_t[m] as its terms (D, p_r, p_t).  Runs every check that the geometry can
    fail, once for the whole stack (its message may name any failing variant)."""
    if model is WavefrontModel.SPHERICAL:
        dist = _pair_distances(tx, rx)[2]
        if not np.isfinite(dist.max()):  # NaN propagates; no length is <= 1 nm (checked)
            raise InvalidArgumentError("distances must be finite and positive")
        return dist
    transverse, dz = _pair_distances(tx, rx)[:2]  # the lengths were for the check alone
    c_t, c_r = tx.mean(axis=-2), rx.mean(axis=-2)
    if model is WavefrontModel.FRESNEL:
        sign = np.where(c_r[..., 2] >= c_t[..., 2], 1.0, -1.0)[..., None, None]
        zeta = np.multiply(dz, sign, out=dz)
        if zeta.min() <= 0:
            raise DegenerateGeometryError(
                "Fresnel expansion needs every pair separated along the link axis"
            )
        d_axial = (c_r[..., 2] - c_t[..., 2])[..., None, None] * sign
        return np.add(zeta, np.divide(transverse, 2 * d_axial, out=transverse), out=transverse)
    # PLANAR: first-order expansion about the centroid axis
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
    return d_hat, proj_r, proj_t


def distance_matrix(scene: LinkScene) -> np.ndarray:
    """Exact Euclidean distances D[n, m] from posed transmit antenna m to receive antenna n,
    a read-only (n_r, n_t) array."""
    tx, rx = _instance(scene, LinkScene, "scene").tx_positions(), scene.rx_positions()
    return _frozen_copy(_path_lengths(tx, rx, WavefrontModel.SPHERICAL))


def channel_matrix(scene: LinkScene, model: WavefrontModel) -> ChannelMatrix:
    """Unit-modulus channel for the scene under the requested wavefront model."""
    lam = _instance(scene, LinkScene, "scene").wavelength_m
    model = _member(model, WavefrontModel, "wavefront model")
    entries = _channel_entries(scene.tx_positions(), scene.rx_positions(), lam, model)
    return ChannelMatrix(entries, lam, model)


def _channel_entries(tx: np.ndarray, rx: np.ndarray, wavelength_m: float,
                     model: WavefrontModel, path=None) -> np.ndarray:
    """Body of :func:`channel_matrix` on posed (..., n, 3) positions: (..., n_r, n_t).

    ``path`` is the :func:`_path_lengths` of the points under the model, computed here (its
    checks with it) when None; the model and the wavelength, one or a (..., 1, 1) stack of
    one per variant, are the caller's to validate.  Entry (n, m) is exp(-1j * k * path[n, m])
    for wavenumber k, the exponential taken in place in the one complex array of the phases.
    """
    k = 2 * np.pi / wavelength_m
    path = _path_lengths(tx, rx, model) if path is None else path
    if model is WavefrontModel.PLANAR:  # an exact outer product per matrix, hence rank-1
        d_hat, proj_r, proj_t = path
        entries = np.exp(-1j * k * proj_r[..., :, None]) * np.exp(1j * k * proj_t[..., None, :])
        np.multiply(np.exp(-1j * k * d_hat[..., None, None]), entries, out=entries)
        finite = np.isfinite(entries).all()
    else:
        entries = -1j * k * path  # imaginary phases: exp(0 + i*t) is finite iff t is, and
        finite = math.isfinite(entries.imag.min()) and math.isfinite(entries.imag.max())  # NaN
    if not finite:
        raise InvalidArgumentError("channel entries must be finite")
    return entries if model is WavefrontModel.PLANAR else np.exp(entries, out=entries)


def validity_from_apertures(
    aperture_t_m: float, aperture_r_m: float, wavelength_m: float, distance_m: float
) -> Validity:
    """Planar model is adequate iff L_t * L_r < 4 * lambda * D."""
    _positive(wavelength_m, "wavelength_m"), _positive(distance_m, "distance_m")
    a_t, a_r = _as_float(aperture_t_m), _as_float(aperture_r_m)
    if not (0 <= a_t < math.inf and 0 <= a_r < math.inf):
        raise InvalidArgumentError("apertures must be finite and non-negative")
    planar = _planar_ok(a_t, a_r, wavelength_m, distance_m)
    return Validity.PLANAR_OK if planar else Validity.SPHERICAL_REQUIRED


def _planar_ok(a_t, a_r, lam, d):
    """The rule of :func:`validity_from_apertures` on checked arguments; broadcasts."""
    with np.errstate(over="ignore"):  # 4*lam*d past the largest float is inf: planar
        return a_t * a_r < 4 * lam * d


def classify_validity(scene: LinkScene) -> Validity:
    """Classify whether the planar model suffices for this scene.

    Advisory only: any model may still be evaluated anywhere, which is what
    makes validity-region maps possible in the first place.
    """
    a_t = projected_aperture(_instance(scene, LinkScene, "scene").tx, scene.tx_pose.rotation)
    a_r = projected_aperture(scene.rx, scene.rx_pose.rotation)
    return validity_from_apertures(a_t, a_r, scene.wavelength_m, scene.separation_m)


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0
    ss_res = float(((y - fitted) ** 2).sum())
    return float(min(1.0, max(0.0, 1.0 - ss_res / ss_tot)))


def phase_profile(
    tx_point,
    rx_start,
    step_m: float,
    n_steps: int,
    step_direction,
    wavelength_m: float,
) -> PhaseProfile:
    """Synthetic scan: move a receive point in uniform steps and fit its phase.

    The scan mimics measuring a wrapped phase at each position and then
    unwrapping it, so the path length may change by at most half a
    wavelength per step; a larger change aliases and raises
    :class:`NyquistViolationError` with the offending step index.
    """
    if _count(n_steps, "n_steps") < 3:
        raise InvalidArgumentError("n_steps must be an integer >= 3")
    step_m, wavelength_m = _positive(step_m, "step_m"), _positive(wavelength_m, "wavelength_m")
    tx, start = _vector(tx_point, "tx_point"), _vector(rx_start, "rx_start")
    direction = _vector(step_direction, "step_direction")
    norm = np.linalg.norm(direction)
    if abs(norm - 1.0) > 1e-6:
        raise InvalidArgumentError("step_direction must be a unit vector")
    direction = direction / norm

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scan raises below
        x = np.arange(n_steps) * step_m
        pts = start[None, :] + x[:, None] * direction[None, :]
        dist = np.linalg.norm(pts - tx[None, :], axis=1)
        raw = -2 * np.pi * dist / wavelength_m
        x4_sum = (x**4).sum()  # np.polyfit scales its x**2 column by the root of this
    if not np.isfinite(raw).all():
        raise InvalidArgumentError("scan distances must be finite, in meters and in wavelengths")
    if dist.min() <= 0:
        raise DegenerateGeometryError("scan passes through the transmit point")

    step_delta = np.abs(np.diff(dist))
    bad = step_delta >= wavelength_m / 2
    if bad.any():
        idx = int(np.argmax(bad))
        raise NyquistViolationError(idx, float(step_delta[idx]), wavelength_m)

    _positive(float(x4_sum), "sum of the fourth powers of the scan displacements")
    phase = np.unwrap(np.angle(np.exp(1j * raw)))

    c2, c1, c0 = np.polyfit(x, phase, 2)
    b1, b0 = np.polyfit(x, phase, 1)
    quad = c0 + c1 * x + c2 * x**2
    lin = b0 + b1 * x
    return PhaseProfile(
        displacements_m=x,
        phase_rad=phase,
        quadratic_fit=(float(c0), float(c1), float(c2)),
        linear_fit=(float(b0), float(b1)),
        r2_quadratic=_r_squared(phase, quad),
        r2_linear=_r_squared(phase, lin),
    )
