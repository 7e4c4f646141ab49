"""Antenna array layouts, rigid poses, and full link scenes.

Layouts live in a local frame with the centroid at the origin and the
primary array axis along local x.  A :class:`LinkScene` poses a transmit
and a receive layout on the global z axis (the link axis) separated by a
nominal distance ``separation_m``.

Aperture convention: an N-element ULA with spacing d has aperture N*d
(not (N-1)*d), a URA of side n has aperture n*d, a UCA's aperture is the
diameter of the circle through the element centers, and an array of
subarrays uses the super-antenna analogue r*s for r subarrays spaced s
apart.  With this convention the channel parameter eta equals 1 exactly
at the classical Rayleigh spacing d_t*d_r = lambda*D/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError

_CENTROID_RTOL = 1e-12
_APERTURE_RTOL = 1e-9
_POSE_ATOL = 1e-12
_AXIAL_RTOL = 1e-9
_DIAMETER_BLOCK_PAIRS = 1 << 17  # point pairs per block of the CUSTOM diameter


class Archetype(Enum):
    ULA = "ula"
    URA = "ura"
    UCA = "uca"
    AOSA = "aosa"
    CUSTOM = "custom"


def _as_points(positions) -> np.ndarray:
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidArgumentError("positions must be an (n, 3) array")
    if pts.shape[0] < 1:
        raise InvalidArgumentError("at least one antenna position is required")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("positions must be finite")
    return _frozen_copy(pts)


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def recompute_aperture(
    positions: np.ndarray, archetype: Archetype, subarray_count: int | None = None
) -> float | None:
    """Aperture implied by the positions under the archetype convention.

    Returns None when the positions alone do not determine it (a single
    antenna, or a single subarray, keeps its declared spacing as the
    aperture).  Works on (n, 2) projected points as well as (n, 3); a URA
    reports the larger of its two sides.
    """
    n = positions.shape[0]
    if archetype is Archetype.ULA:
        if n == 1:
            return None
        return n * float(np.linalg.norm(positions[1] - positions[0]))
    if archetype is Archetype.URA:
        side = math.isqrt(n)
        if side * side != n:
            raise InvalidArgumentError("URA element count must be a perfect square")
        if side == 1:
            return None
        dx = float(np.linalg.norm(positions[1] - positions[0]))
        dy = float(np.linalg.norm(positions[side] - positions[0]))
        return side * max(dx, dy)
    if archetype is Archetype.UCA:
        # circle center sits at the local origin by convention
        return 2.0 * float(np.max(np.linalg.norm(positions, axis=1)))
    if archetype is Archetype.AOSA:
        if not subarray_count or n % subarray_count:
            raise InvalidArgumentError("AOSA layouts need a subarray_count dividing n")
        if subarray_count == 1:
            return None
        centers = positions.reshape(subarray_count, n // subarray_count, -1).mean(axis=1)
        return subarray_count * float(np.linalg.norm(centers[1] - centers[0]))
    # CUSTOM: the diameter of the point set, over blocks of rows so the
    # pairwise differences never take more than a few MB; squared lengths are
    # summed one axis at a time, in the order of a sum over the offset axis
    if n == 1:
        return 0.0
    rows = max(1, _DIAMETER_BLOCK_PAIRS // n)
    blocks = (sum(d * d for d in (c[i : i + rows, None] - c for c in positions.T))
              for i in range(0, n, rows))
    return float(np.sqrt(max(sq.max() for sq in blocks)))


def _aperture_or(declared: float, positions, archetype, subarray_count=None) -> float:
    """:func:`recompute_aperture`, or ``declared`` where the positions do not determine it."""
    aperture = recompute_aperture(positions, archetype, subarray_count)
    return declared if aperture is None else aperture


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Ordered antenna positions plus archetype and aperture metadata."""

    positions: np.ndarray = field(repr=False)
    archetype: Archetype
    aperture_m: float
    element_count: int
    subarray_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_points(self.positions))
        n = self.positions.shape[0]
        if self.element_count != n:
            raise InvalidArgumentError(
                f"element_count {self.element_count} != {n} positions"
            )
        if np.unique(self.positions, axis=0).shape[0] != n:
            raise DegenerateGeometryError("antenna positions must be pairwise distinct")
        scale = float(np.abs(self.positions).max())
        if n > 1 and np.any(np.abs(self.positions.sum(axis=0)) > _CENTROID_RTOL * scale):
            # single-element layouts (e.g. a one-antenna UCA pinned on its
            # circle) are exempt; everything else must be centroid-centered
            raise InvalidArgumentError("layout centroid must sit at the local origin")
        if not 0 <= self.aperture_m < math.inf:
            raise InvalidArgumentError("aperture_m must be finite and non-negative")
        rebuilt = recompute_aperture(self.positions, self.archetype, self.subarray_count)
        if rebuilt is not None and abs(rebuilt - self.aperture_m) > _APERTURE_RTOL * max(
            self.aperture_m, rebuilt, 1e-300
        ):
            raise InvalidArgumentError(
                f"aperture_m {self.aperture_m!r} inconsistent with positions "
                f"(recomputed {rebuilt!r})"
            )


def _check_count(n, name="n"):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"{name} must be a positive integer, got {n!r}")


def _check_positive(x, name):
    if not 0 < x < math.inf:  # NaN fails both comparisons
        raise InvalidArgumentError(f"{name} must be positive and finite, got {x!r}")


def build_ula(n: int, spacing_m: float) -> ArrayLayout:
    """Uniform linear array along local x, centroid at the origin."""
    _check_count(n)
    _check_positive(spacing_m, "spacing_m")
    x = (np.arange(n) - (n - 1) / 2) * spacing_m
    pts = np.column_stack([x, np.zeros(n), np.zeros(n)])
    return ArrayLayout(pts, Archetype.ULA, _aperture_or(float(spacing_m), pts, Archetype.ULA), n)


def build_ura(n_side: int, spacing_m: float) -> ArrayLayout:
    """Square grid in the local x-y plane (the cartesian product of two ULAs)."""
    _check_count(n_side, "n_side")
    _check_positive(spacing_m, "spacing_m")
    c = (np.arange(n_side) - (n_side - 1) / 2) * spacing_m
    gy, gx = np.meshgrid(c, c, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n_side * n_side)])
    aperture = _aperture_or(float(spacing_m), pts, Archetype.URA)
    return ArrayLayout(pts, Archetype.URA, aperture, n_side * n_side)


def build_uca(n: int, diameter_m: float, phase_offset_rad: float = 0.0) -> ArrayLayout:
    """Equally spaced points on a circle in the local x-y plane.

    The first antenna sits at angle ``phase_offset_rad``; a single-antenna
    circle keeps its point on the circle rather than at the center.
    """
    _check_count(n)
    _check_positive(diameter_m, "diameter_m")
    ang = phase_offset_rad + 2 * np.pi * np.arange(n) / n
    r = diameter_m / 2
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(n)])
    return ArrayLayout(pts, Archetype.UCA, recompute_aperture(pts, Archetype.UCA), n)


def build_aosa(
    n_total: int,
    n_subarrays: int,
    subarray_spacing_m: float,
    element_spacing_m: float,
) -> ArrayLayout:
    """Array of subarrays: clusters of tightly spaced elements along local x.

    Cluster centers are uniformly spaced by ``subarray_spacing_m``; the
    ``n_total`` elements are divided evenly among the clusters and spaced
    ``element_spacing_m`` within each, so a cluster spans
    ``(n_total / n_subarrays - 1) * element_spacing_m``.
    """
    _check_count(n_total, "n_total")
    _check_count(n_subarrays, "n_subarrays")
    _check_positive(subarray_spacing_m, "subarray_spacing_m")
    _check_positive(element_spacing_m, "element_spacing_m")
    if n_total % n_subarrays:
        raise InvalidArgumentError(
            f"n_subarrays {n_subarrays} must divide n_total {n_total}"
        )
    if not _clusters_apart(n_total, n_subarrays, subarray_spacing_m, element_spacing_m):
        raise InvalidArgumentError(
            "a cluster's span must be smaller than subarray_spacing_m, "
            "otherwise clusters overlap or interleave"
        )
    k = n_total // n_subarrays
    centers = (np.arange(n_subarrays) - (n_subarrays - 1) / 2) * subarray_spacing_m
    within = (np.arange(k) - (k - 1) / 2) * element_spacing_m
    x = (centers[:, None] + within[None, :]).ravel()
    pts = np.column_stack([x, np.zeros(n_total), np.zeros(n_total)])
    aperture = _aperture_or(float(subarray_spacing_m), pts, Archetype.AOSA, n_subarrays)
    return ArrayLayout(pts, Archetype.AOSA, aperture, n_total, n_subarrays)


def _clusters_apart(n: int, r: int, sub: float, elem: float) -> bool:
    """True when r clusters of n / r elements ``elem`` apart, with centers ``sub``
    apart, neither overlap nor interleave (a single cluster always fits)."""
    return r == 1 or (n // r - 1) * elem < sub


def custom_layout(positions) -> ArrayLayout:
    """Wrap explicit positions; the aperture is the diameter of the point set."""
    pts = _as_points(positions)
    return ArrayLayout(
        pts, Archetype.CUSTOM, recompute_aperture(pts, Archetype.CUSTOM), pts.shape[0]
    )


def scale_layout(layout: ArrayLayout, factor: float) -> ArrayLayout:
    """Uniformly scale a layout about its local origin (aperture scales along)."""
    _check_positive(factor, "factor")
    pts = layout.positions * factor
    arch, r = layout.archetype, layout.subarray_count
    aperture = _aperture_or(layout.aperture_m * factor, pts, arch, r)
    return ArrayLayout(pts, arch, aperture, layout.element_count, r)


@dataclass(frozen=True, eq=False)
class RigidPose:
    """Proper rigid transform: x -> rotation @ x + translation."""

    rotation: np.ndarray = field(repr=False)
    translation: np.ndarray = field(repr=False)

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tr = np.asarray(self.translation, dtype=float).reshape(3)
        if rot.shape != (3, 3) or not np.all(np.isfinite(rot)):
            raise InvalidArgumentError("rotation must be a finite 3x3 matrix")
        if not np.all(np.isfinite(tr)):
            raise InvalidArgumentError("translation must be finite")
        if np.abs(rot @ rot.T - np.eye(3)).max() > _POSE_ATOL:
            raise InvalidArgumentError("rotation must be orthonormal within 1e-12")
        if abs(np.linalg.det(rot) - 1.0) > _POSE_ATOL:
            raise InvalidArgumentError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", _frozen_copy(rot))
        object.__setattr__(self, "translation", _frozen_copy(tr))

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self after other: (self.compose(other)).apply(x) == self.apply(other.apply(x))."""
        return RigidPose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidPose":
        return RigidPose(self.rotation.T, -(self.rotation.T @ self.translation))


def rotate_in_link_plane(layout: ArrayLayout, angle_rad: float) -> RigidPose:
    """Pose that turns the layout's local x axis toward the link (z) axis.

    The rotation acts in the plane spanned by the array axis and the link
    axis: angle 0 keeps the array broadside, pi/2 maps local x onto the
    link axis (endfire).
    """
    if not isinstance(layout, ArrayLayout):
        raise InvalidArgumentError("layout must be an ArrayLayout")
    if not np.isfinite(angle_rad):
        raise InvalidArgumentError("angle_rad must be finite")
    return RigidPose(_link_plane_rotation(angle_rad), np.zeros(3))


def _link_plane_rotation(angle_rad) -> np.ndarray:
    """Rotation(s) of :func:`rotate_in_link_plane`; math.cos/math.sin per angle, as alone."""
    angles = np.asarray(angle_rad, dtype=float)
    c, s = (np.reshape([f(a) for a in angles.ravel().tolist()], angles.shape)
            for f in (math.cos, math.sin))
    o = np.zeros(angles.shape)
    return np.stack([c, o, -s, o, o + 1.0, o, s, o, c], -1).reshape(angles.shape + (3, 3))


@dataclass(frozen=True, eq=False)
class LinkScene:
    """Posed transmit and receive layouts with carrier wavelength.

    ``separation_m`` is the nominal distance between the array centroids
    along the link (z) axis; transverse centroid offsets (misalignment
    studies) leave it unchanged.
    """

    tx: ArrayLayout
    rx: ArrayLayout
    tx_pose: RigidPose
    rx_pose: RigidPose
    separation_m: float
    wavelength_m: float

    def __post_init__(self):
        _check_positive(self.separation_m, "separation_m")
        _check_positive(self.wavelength_m, "wavelength_m")
        _check_axial(self.tx_positions(), self.rx_positions(), self.separation_m)

    def tx_positions(self) -> np.ndarray:
        return self.tx_pose.apply(self.tx.positions)

    def rx_positions(self) -> np.ndarray:
        return self.rx_pose.apply(self.rx.positions)

    @property
    def n_min(self) -> int:
        return min(self.tx.element_count, self.rx.element_count)


def link_scene(
    tx: ArrayLayout,
    rx: ArrayLayout,
    separation_m: float,
    wavelength_m: float,
    tx_pose: RigidPose | None = None,
    rx_pose: RigidPose | None = None,
) -> LinkScene:
    """Place two layouts on the link axis separated by ``separation_m``.

    Pose translations are interpreted as offsets from the nominal anchor
    points (origin for tx, (0, 0, D) for rx); rotations are applied about
    each array's own centroid.
    """
    tx_pose = tx_pose or RigidPose.identity()
    rx_pose = rx_pose or RigidPose.identity()
    _check_positive(separation_m, "separation_m")
    anchors = (np.zeros(3), np.array([0.0, 0.0, float(separation_m)]))
    posed = []
    for layout, pose, anchor in ((tx, tx_pose, anchors[0]), (rx, rx_pose, anchors[1])):
        shift = _pose_shift(layout.positions, pose.rotation, anchor + pose.translation)
        posed.append(RigidPose(pose.rotation, shift))
    return LinkScene(tx, rx, posed[0], posed[1], float(separation_m), float(wavelength_m))


def _pose_shift(points: np.ndarray, rotation: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Translation that puts the centroid of the rotated points on ``anchor``, per variant."""
    return anchor - (rotation @ points.mean(axis=-2)[..., None])[..., 0]


def _posed_points(points: np.ndarray, rotation: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Points turned about their centroid onto ``anchor`` (as in link_scene), per variant."""
    return points @ rotation.swapaxes(-1, -2) + _pose_shift(points, rotation, anchor)[..., None, :]


def _check_axial(tx_points: np.ndarray, rx_points: np.ndarray, separation_m: float):
    axial = np.abs(rx_points.mean(axis=-2)[..., 2] - tx_points.mean(axis=-2)[..., 2])
    bad = np.abs(axial - separation_m) > _AXIAL_RTOL * separation_m
    if bad.any():
        raise InvalidArgumentError(
            f"posed centroids are {float(axial[bad].flat[0])!r} m apart along the link axis, "
            f"expected separation_m = {separation_m!r}"
        )


def transpose_scene(scene: LinkScene) -> LinkScene:
    """Swap the roles of transmitter and receiver, geometry untouched."""
    return LinkScene(
        scene.rx,
        scene.tx,
        scene.rx_pose,
        scene.tx_pose,
        scene.separation_m,
        scene.wavelength_m,
    )


def projected_aperture(layout: ArrayLayout, rotation: np.ndarray) -> float:
    """Aperture of the rotated layout projected onto the broadside (x-y) plane.

    Follows the same per-archetype convention as the stored aperture
    (:func:`recompute_aperture` on the projected points); where the points
    do not determine it, the declared aperture shrinks with the projection
    of the local x axis.
    """
    rot = np.asarray(rotation, dtype=float)
    proj = (layout.positions @ rot.T)[:, :2]
    declared = layout.aperture_m * float(np.hypot(rot[0, 0], rot[1, 0]))
    return _aperture_or(declared, proj, layout.archetype, layout.subarray_count)


def channel_parameter(scene: LinkScene) -> float:
    """Channel parameter eta = (Tx aperture)(Rx aperture) / (lambda * D * N_min).

    Apertures are measured broadside to the link (projections of the posed
    layouts onto the x-y plane), so rotating an array toward endfire
    shrinks its contribution.
    """
    a_t = projected_aperture(scene.tx, scene.tx_pose.rotation)
    a_r = projected_aperture(scene.rx, scene.rx_pose.rotation)
    return (a_t * a_r) / ((scene.wavelength_m * scene.separation_m) * scene.n_min)
