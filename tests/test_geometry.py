import math
import tracemalloc

import numpy as np
import pytest

from losmimo import geometry
from losmimo import (
    Archetype,
    ArrayLayout,
    DegenerateGeometryError,
    InvalidArgumentError,
    RigidPose,
    build_aosa,
    build_uca,
    build_ula,
    build_ura,
    channel_parameter,
    custom_layout,
    link_scene,
    projected_aperture,
    recompute_aperture,
    rotate_in_link_plane,
    scale_layout,
    transpose_scene,
)


def test_ula_positions_centered():
    lay = build_ula(4, 0.01)
    assert lay.archetype is Archetype.ULA
    np.testing.assert_allclose(lay.positions[:, 0], [-0.015, -0.005, 0.005, 0.015])
    assert np.all(lay.positions[:, 1:] == 0)
    assert lay.aperture_m == pytest.approx(0.04)


def test_ula_aperture_is_n_times_spacing():
    assert build_ula(7, 0.3).aperture_m == pytest.approx(7 * 0.3)
    # single element: the spacing is kept as the declared aperture
    assert build_ula(1, 0.2).aperture_m == 0.2


def test_ura_row_major_grid():
    lay = build_ura(3, 1.0)
    assert lay.element_count == 9
    # first row sweeps x at fixed y
    np.testing.assert_allclose(lay.positions[:3, 0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(lay.positions[:3, 1], [-1.0, -1.0, -1.0])
    assert lay.aperture_m == pytest.approx(3.0)


def test_uca_on_circle():
    lay = build_uca(6, 2.0)
    radii = np.linalg.norm(lay.positions[:, :2], axis=1)
    np.testing.assert_allclose(radii, 1.0)
    assert lay.aperture_m == pytest.approx(2.0)
    np.testing.assert_allclose(lay.positions.mean(axis=0), 0.0, atol=1e-15)


def test_uca_phase_offset_rotates_first_antenna():
    lay = build_uca(4, 2.0, phase_offset_rad=np.pi / 2)
    np.testing.assert_allclose(lay.positions[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_uca_single_antenna_stays_on_circle():
    lay = build_uca(1, 1.0)
    np.testing.assert_allclose(lay.positions[0], [0.5, 0.0, 0.0])
    assert lay.aperture_m == pytest.approx(1.0)


def test_aosa_cluster_structure():
    lay = build_aosa(8, 2, 1.0, 0.1)
    assert lay.subarray_count == 2
    assert lay.aperture_m == pytest.approx(2.0)
    centers = lay.positions.reshape(2, 4, 3).mean(axis=1)
    np.testing.assert_allclose(centers[:, 0], [-0.5, 0.5])
    within = lay.positions.reshape(2, 4, 3)[0, :, 0]
    np.testing.assert_allclose(np.diff(within), 0.1)


def test_aosa_rejects_bad_split_and_wide_elements():
    with pytest.raises(InvalidArgumentError):
        build_aosa(7, 2, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        build_aosa(8, 2, 0.1, 0.1)


def test_aosa_rejects_clusters_wider_than_their_spacing():
    # three elements 0.02 apart span 0.04: wider than a 0.03 cluster spacing,
    # and exactly as wide as a 0.04 one
    with pytest.raises(InvalidArgumentError, match="overlap or interleave"):
        build_aosa(12, 4, 0.03, 0.02)
    with pytest.raises(InvalidArgumentError, match="overlap or interleave"):
        build_aosa(12, 4, 0.04, 0.02)
    lay = build_aosa(12, 4, 0.041, 0.02)
    x = lay.positions[:, 0]
    assert np.all(np.diff(x) > 0)  # clusters in order, none interleaved


def test_aosa_single_element_or_single_cluster_always_fits():
    lay = build_aosa(4, 4, 0.01, 0.02)
    np.testing.assert_allclose(lay.positions[:, 0], [-0.015, -0.005, 0.005, 0.015])
    lay = build_aosa(4, 1, 0.01, 0.02)
    np.testing.assert_allclose(lay.positions[:, 0], [-0.03, -0.01, 0.01, 0.03])


def test_builders_store_recomputed_aperture_bitwise():
    pts = np.random.default_rng(5).normal(size=(7, 3))
    for lay in (
        build_ula(5, 0.013),
        build_ura(4, 0.07),
        build_uca(9, 0.31),
        build_aosa(12, 3, 0.5, 0.01),
        scale_layout(build_ula(5, 0.013), 2.7),
        scale_layout(build_aosa(12, 3, 0.5, 0.01), 0.3),
        custom_layout(pts - pts.mean(axis=0)),
    ):
        rebuilt = recompute_aperture(lay.positions, lay.archetype, lay.subarray_count)
        assert rebuilt == lay.aperture_m  # exact, not approximate
    # where the positions do not determine it, the given spacing is the aperture
    for lay, given in ((build_ula(1, 0.013), 0.013), (build_ura(1, 0.07), 0.07),
                       (build_aosa(6, 1, 0.5, 0.01), 0.5)):
        assert recompute_aperture(lay.positions, lay.archetype, lay.subarray_count) is None
        assert lay.aperture_m == given
    assert scale_layout(build_ula(1, 0.013), 2.0).aperture_m == 0.026


def test_custom_layout_computes_one_diameter(monkeypatch):
    calls = []
    recompute = geometry.recompute_aperture
    monkeypatch.setattr(geometry, "recompute_aperture",
                        lambda *args: calls.append(args[1]) or recompute(*args))
    pts = np.random.default_rng(4).normal(size=(64, 3))
    lay = custom_layout(pts - pts.mean(axis=0))
    assert calls == [Archetype.CUSTOM]
    assert lay.aperture_m == recompute(lay.positions, Archetype.CUSTOM)


def test_custom_layout_diameter_aperture():
    lay = custom_layout([[-1.0, 0, 0], [1.0, 0, 0], [0, 0.5, 0], [0, -0.5, 0]])
    assert lay.archetype is Archetype.CUSTOM
    assert lay.aperture_m == pytest.approx(2.0)


def test_coincident_positions_are_degenerate():
    with pytest.raises(DegenerateGeometryError):
        custom_layout([[0.0, 0, 0], [0.0, 0, 0]])


def test_centroid_must_be_at_origin():
    with pytest.raises(InvalidArgumentError):
        custom_layout([[0.0, 0, 0], [1.0, 0, 0]])


def test_layout_stores_the_aperture_of_its_positions():
    lay = build_ula(4, 0.01)
    given = ArrayLayout(lay.positions, Archetype.ULA, 0.05)
    assert given.aperture_m == lay.aperture_m == recompute_aperture(lay.positions, Archetype.ULA)
    assert given.element_count == 4


def test_subarray_count_is_for_aosa_layouts_only():
    lay = build_ula(4, 0.01)
    with pytest.raises(InvalidArgumentError, match="for AOSA layouts only"):
        ArrayLayout(lay.positions, Archetype.ULA, lay.aperture_m, 4)  # a count, misplaced
    for arch in (Archetype.URA, Archetype.UCA, Archetype.CUSTOM):
        with pytest.raises(InvalidArgumentError, match="for AOSA layouts only"):
            ArrayLayout(lay.positions, arch, lay.aperture_m, 1)
    assert ArrayLayout(lay.positions, Archetype.AOSA, 0.02, 2).subarray_count == 2


def test_scale_layout():
    lay = scale_layout(build_ula(4, 0.01), 2.0)
    assert lay.aperture_m == pytest.approx(0.08)
    np.testing.assert_allclose(lay.positions[:, 0], [-0.03, -0.01, 0.01, 0.03])
    with pytest.raises(InvalidArgumentError):
        scale_layout(lay, 0.0)


def test_builder_argument_validation():
    with pytest.raises(InvalidArgumentError):
        build_ula(0, 0.01)
    with pytest.raises(InvalidArgumentError):
        build_ula(4, -1.0)
    with pytest.raises(InvalidArgumentError):
        build_ura(3, float("nan"))
    with pytest.raises(InvalidArgumentError):
        build_uca(3, 0.0)


def test_rigid_pose_validation():
    with pytest.raises(InvalidArgumentError):
        RigidPose(np.eye(3) * 2.0, np.zeros(3))
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidArgumentError):
        RigidPose(reflect, np.zeros(3))


def test_rigid_pose_compose_inverse_round_trip():
    rng = np.random.default_rng(3)
    # random rotation via QR of a gaussian matrix, det forced positive
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    pose = RigidPose(q, rng.standard_normal(3))
    pts = rng.standard_normal((5, 3))
    round_trip = pose.inverse().apply(pose.apply(pts))
    np.testing.assert_allclose(round_trip, pts, atol=1e-12)
    ident = pose.compose(pose.inverse())
    np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)


def test_rotate_in_link_plane_maps_x_toward_z():
    lay = build_ula(2, 1.0)
    pose = rotate_in_link_plane(lay, np.pi / 2)
    rotated = pose.apply(np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(rotated, [[0.0, 0.0, 1.0]], atol=1e-15)


def test_link_scene_places_centroids_on_axis():
    sc = link_scene(build_ula(4, 0.01), build_ula(3, 0.02), 5.0, 1e-3)
    np.testing.assert_allclose(sc.tx_positions().mean(axis=0), [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(sc.rx_positions().mean(axis=0), [0, 0, 5.0], atol=1e-15)
    assert sc.n_min == 3


def test_link_scene_transverse_offset_keeps_separation():
    off = RigidPose(np.eye(3), np.array([0.07, 0.0, 0.0]))
    sc = link_scene(build_ula(4, 0.01), build_ula(4, 0.01), 5.0, 1e-3, rx_pose=off)
    np.testing.assert_allclose(sc.rx_positions().mean(axis=0), [0.07, 0, 5.0], atol=1e-15)


def test_link_scene_rejects_axial_mismatch():
    tx = build_ula(4, 0.01)
    rx = build_ula(4, 0.01)
    sc = link_scene(tx, rx, 5.0, 1e-3)
    bad_pose = RigidPose(np.eye(3), sc.rx_pose.translation + np.array([0, 0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        type(sc)(tx, rx, sc.tx_pose, bad_pose, 5.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        link_scene(tx, rx, -1.0, 1e-3)


def test_rotation_pose_pivots_about_centroid():
    tx = build_ula(4, 0.01)
    rot = rotate_in_link_plane(tx, 0.3)
    sc = link_scene(tx, build_ula(4, 0.01), 5.0, 1e-3, tx_pose=rot)
    np.testing.assert_allclose(sc.tx_positions().mean(axis=0), [0, 0, 0], atol=1e-15)


def test_transpose_scene_swaps_exact_positions():
    rot = rotate_in_link_plane(build_ula(4, 0.01), 0.7)
    sc = link_scene(build_ula(4, 0.01), build_ura(2, 0.02), 3.0, 1e-3, tx_pose=rot)
    swapped = transpose_scene(sc)
    assert np.array_equal(swapped.tx_positions(), sc.rx_positions())
    assert np.array_equal(swapped.rx_positions(), sc.tx_positions())


def test_projected_aperture_shrinks_with_rotation():
    lay = build_ula(4, 0.01)
    for ang in (0.0, 0.3, 1.0):
        rot = rotate_in_link_plane(lay, ang).rotation
        assert projected_aperture(lay, rot) == pytest.approx(
            lay.aperture_m * math.cos(ang), rel=1e-12
        )


def test_projected_aperture_ura_takes_larger_side():
    lay = build_ura(3, 0.02)
    rot = rotate_in_link_plane(lay, 1.2).rotation
    # x side shrinks, y side survives: the convention reports the larger
    assert projected_aperture(lay, rot) == pytest.approx(0.06, rel=1e-12)


def test_channel_parameter_rayleigh_spacing_gives_unit_eta():
    lam, dist, n = 1e-3, 10.0, 4
    d = math.sqrt(lam * dist / n)
    sc = link_scene(build_ula(n, d), build_ula(n, d), dist, lam)
    assert channel_parameter(sc) == pytest.approx(1.0, rel=1e-12)


def test_channel_parameter_uses_projected_apertures():
    lam, dist, n = 1e-3, 10.0, 4
    d = math.sqrt(lam * dist / n)
    tx = build_ula(n, d)
    ang = 0.4
    sc = link_scene(
        tx,
        build_ula(n, d),
        dist,
        lam,
        tx_pose=rotate_in_link_plane(tx, ang),
    )
    assert channel_parameter(sc) == pytest.approx(math.cos(ang), rel=1e-9)


def _reference_projected_aperture(layout, rotation):
    """Per-archetype projected aperture kept as the reference for the merged switch."""
    rot = np.asarray(rotation, dtype=float)
    proj = (layout.positions @ rot.T)[:, :2]
    n = layout.element_count
    arch = layout.archetype
    if arch is Archetype.ULA:
        if n == 1:
            return layout.aperture_m * float(np.hypot(rot[0, 0], rot[1, 0]))
        return n * float(np.linalg.norm(proj[1] - proj[0]))
    if arch is Archetype.URA:
        side = math.isqrt(n)
        if side == 1:
            return layout.aperture_m * float(np.hypot(rot[0, 0], rot[1, 0]))
        dx = float(np.linalg.norm(proj[1] - proj[0]))
        dy = float(np.linalg.norm(proj[side] - proj[0]))
        return side * max(dx, dy)
    if arch is Archetype.UCA:
        return 2.0 * float(np.max(np.linalg.norm(proj, axis=1)))
    if arch is Archetype.AOSA:
        r = layout.subarray_count
        if r == 1:
            return layout.aperture_m * float(np.hypot(rot[0, 0], rot[1, 0]))
        centers = proj.reshape(r, n // r, 2).mean(axis=1)
        return r * float(np.linalg.norm(centers[1] - centers[0]))
    if n == 1:
        return 0.0
    diffs = proj[:, None, :] - proj[None, :, :]
    return float(np.sqrt((diffs**2).sum(-1)).max())


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    rot = np.eye(3)
    rot[i, i], rot[i, j], rot[j, i], rot[j, j] = c, -s, s, c
    return rot


def _centered_custom(rng, n):
    pts = rng.normal(size=(n, 3)) * 0.01
    return custom_layout(pts - pts.mean(axis=0))


def test_projected_aperture_matches_per_archetype_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    layouts = [
        build_ula(1, 0.01), build_ula(2, 0.01), build_ula(7, 0.003),
        build_ura(1, 0.02), build_ura(3, 0.02), build_ura(4, 0.0071),
        scale_layout(build_ura(4, 0.0071), 1.37),
        build_uca(1, 0.05, 0.3), build_uca(8, 0.05), build_uca(5, 0.02, 1.1),
        build_aosa(4, 1, 0.05, 0.001), build_aosa(8, 2, 0.05, 0.001),
        build_aosa(12, 4, 0.03, 0.002), scale_layout(build_aosa(8, 4, 0.05, 0.001), 0.6),
        custom_layout([[0.0, 0.0, 0.0]]), _centered_custom(rng, 5),
        _centered_custom(rng, 40), _centered_custom(rng, 400),
    ]
    # in-plane (about z) and out-of-plane (about x, y) turns, then random ones
    rotations = [_axis_rotation(axis, a) for axis in range(3)
                 for a in np.linspace(0.0, 2 * math.pi, 13)]
    for _ in range(10):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        rotations.append(q if np.linalg.det(q) > 0 else -q)
    for lay in layouts:
        for rot in rotations:
            assert projected_aperture(lay, rot) == _reference_projected_aperture(lay, rot)


def test_ura_aperture_is_the_larger_side():
    c = np.array([-1.0, 1.0]) * 0.01
    gy, gx = np.meshgrid(2 * c, c, indexing="ij")  # x step 0.02, y step 0.04
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(4)])
    for given in (0.08, 0.04):
        assert ArrayLayout(pts, Archetype.URA, given).aperture_m == 0.08


def test_custom_layout_diameter_memory_stays_small():
    pts = np.random.default_rng(3).normal(size=(2048, 3))
    pts -= pts.mean(axis=0)
    tracemalloc.start()
    try:
        lay = custom_layout(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert lay.aperture_m == pytest.approx(
        max(float(np.linalg.norm(pts - p, axis=1).max()) for p in pts), rel=1e-15
    )
