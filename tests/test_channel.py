import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    ChannelMatrix,
    DegenerateGeometryError,
    InvalidArgumentError,
    NyquistViolationError,
    RigidPose,
    Validity,
    WavefrontModel,
    build_uca,
    build_ula,
    build_ura,
    channel_matrix,
    channel_parameter,
    classify_validity,
    distance_matrix,
    gain_spectrum,
    link_scene,
    phase_profile,
    rotate_in_link_plane,
    validity_from_apertures,
)
from losmimo.channel import _channel_entries

LAM = 1e-3
DIST = 5.0


def _scene(n=4, spacing=0.01, dist=DIST, lam=LAM):
    return link_scene(build_ula(n, spacing), build_ula(n, spacing), dist, lam)


def test_distance_matrix_hand_case():
    sc = link_scene(build_ula(2, 2.0), build_ula(2, 2.0), 3.0, LAM)
    d = distance_matrix(sc)
    assert type(d) is np.ndarray and d.shape == (2, 2) and d.dtype == float
    assert not d.flags.writeable
    # aligned pairs: 3 m; crossed pairs: hypot(2, 3)
    np.testing.assert_allclose(np.diag(d), 3.0)
    np.testing.assert_allclose(d[0, 1], math.hypot(2.0, 3.0))
    np.testing.assert_allclose(d[1, 0], math.hypot(2.0, 3.0))


def test_distance_matrix_refuses_distances_past_the_float_range():
    far = RigidPose(np.eye(3), np.array([1e300, 0.0, 0.0]))
    sc = link_scene(build_ula(2, 2.0), build_ula(2, 2.0), 3.0, LAM, rx_pose=far)
    with np.errstate(over="ignore"):  # the squared offsets overflow to inf
        with pytest.raises(InvalidArgumentError, match="^distances must be finite and positive$"):
            distance_matrix(sc)


@pytest.mark.parametrize("model", list(WavefrontModel))
def test_the_kernel_holds_at_most_half_again_its_one_complex_array(model):
    # a broadside 32x32 URA pair: 2**20 entries; the pair planes, path lengths and phases
    # never hold more than 8 bytes an entry beside the 16 of the entries
    ura = build_ura(32, 0.035)
    sc = link_scene(ura, ura, DIST, LAM)
    tx, rx = sc.tx_positions(), sc.rx_positions()
    tracemalloc.start()
    try:
        entries = _channel_entries(tx, rx, LAM, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries.shape == (1024, 1024)
    assert peak <= 1.6 * entries.nbytes


@pytest.mark.parametrize("call, text", [
    (lambda: channel_matrix(None, WavefrontModel.SPHERICAL), "scene must be a LinkScene"),
    (lambda: distance_matrix("scene"), "scene must be a LinkScene"),
    (lambda: classify_validity(build_ula(2, 0.01)), "scene must be a LinkScene"),
    (lambda: channel_parameter(1.0), "scene must be a LinkScene"),
    (lambda: gain_spectrum(np.ones((2, 2))), "h must be a ChannelMatrix"),
    (lambda: rotate_in_link_plane(None, 0.0), "layout must be an ArrayLayout"),
])
def test_channel_layer_objects_are_typed_at_the_boundary(call, text):
    with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
        call()


def test_spherical_phase_matches_distances():
    sc = _scene()
    d = distance_matrix(sc)
    h = channel_matrix(sc, WavefrontModel.SPHERICAL).entries
    np.testing.assert_allclose(h, np.exp(-2j * np.pi * d / LAM), atol=1e-12)
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)


def test_fresnel_close_to_spherical_in_paraxial_regime():
    sc = _scene(n=4, spacing=0.02, dist=10.0)
    hs = channel_matrix(sc, WavefrontModel.SPHERICAL).entries
    hf = channel_matrix(sc, WavefrontModel.FRESNEL).entries
    # phases agree to third-order corrections ~ a^4 / (lambda D^3)
    assert np.abs(hs - hf).max() < 1e-4


def test_fresnel_spectrum_matches_spherical_at_rayleigh_spacing():
    d = math.sqrt(LAM * DIST / 4)
    sc = _scene(spacing=d)
    gs = gain_spectrum(channel_matrix(sc, WavefrontModel.SPHERICAL))
    gf = gain_spectrum(channel_matrix(sc, WavefrontModel.FRESNEL))
    np.testing.assert_allclose(gf.gains, 4.0, rtol=1e-10)  # perfectly polarized
    np.testing.assert_allclose(gs.gains, gf.gains, rtol=1e-3)


def test_planar_channel_is_exactly_rank_one():
    sc = _scene(n=8, spacing=0.05)
    h = channel_matrix(sc, WavefrontModel.PLANAR).entries
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] / s[0] < 1e-14


def test_planar_matches_spherical_far_field():
    # tiny arrays very far apart: first-order expansion is enough
    sc = _scene(n=2, spacing=1e-3, dist=1000.0)
    hp = channel_matrix(sc, WavefrontModel.PLANAR).entries
    hs = channel_matrix(sc, WavefrontModel.SPHERICAL).entries
    assert np.abs(hp - hs).max() < 1e-3


def test_models_disagree_in_near_field():
    sc = _scene(n=4, spacing=0.1, dist=2.0)
    hp = channel_matrix(sc, WavefrontModel.PLANAR).entries
    hs = channel_matrix(sc, WavefrontModel.SPHERICAL).entries
    assert np.abs(hp - hs).max() > 0.1


def test_intersecting_arrays_are_degenerate():
    # endfire two-element arrays one spacing apart: the inner antennas meet
    tx = build_ula(2, 1.0)
    rot = rotate_in_link_plane(tx, np.pi / 2)
    sc = link_scene(tx, build_ula(2, 1.0), 1.0, LAM, tx_pose=rot, rx_pose=rot)
    with pytest.raises(DegenerateGeometryError):
        distance_matrix(sc)


def test_fresnel_rejects_pairs_without_axial_separation():
    tx = build_ula(2, 0.2)
    rot = rotate_in_link_plane(tx, np.pi / 2)
    # endfire arrays interleaved along the axis: some pairs look "backwards"
    sc = link_scene(tx, build_ula(2, 0.2), 0.15, LAM, tx_pose=rot, rx_pose=rot)
    with pytest.raises(DegenerateGeometryError):
        channel_matrix(sc, WavefrontModel.FRESNEL)


def test_channel_matrix_rejects_non_unit_modulus():
    with pytest.raises(InvalidArgumentError):
        ChannelMatrix(np.array([[1.0 + 0j, 0.5]]), LAM, WavefrontModel.SPHERICAL)


def test_validity_threshold_is_strict():
    # L_t * L_r == 4 lambda D sits on the spherical side of the boundary
    lam, dist = 1e-3, 10.0
    boundary = math.sqrt(4 * lam * dist)
    assert (
        validity_from_apertures(boundary, boundary, lam, dist)
        is Validity.SPHERICAL_REQUIRED
    )
    assert (
        validity_from_apertures(boundary * 0.999, boundary, lam, dist)
        is Validity.PLANAR_OK
    )


def test_classify_validity_uses_projected_apertures():
    lam, dist = 1e-3, 10.0
    d = math.sqrt(lam * dist / 4) * 2  # eta = 4 broadside
    tx = build_ula(4, d)
    sc = link_scene(tx, build_ula(4, d), dist, lam)
    assert classify_validity(sc) is Validity.SPHERICAL_REQUIRED
    # rotating near endfire shrinks the projected aperture into the planar zone
    pose = rotate_in_link_plane(tx, 1.55)
    sc2 = link_scene(tx, build_ula(4, d), dist, lam, tx_pose=pose, rx_pose=pose)
    assert classify_validity(sc2) is Validity.PLANAR_OK


def test_phase_profile_longitudinal_is_linear():
    lam = 1e-3
    prof = phase_profile((0, 0, 0), (0, 0, 2.0), 2e-4, 21, (0, 0, 1), lam)
    assert prof.r2_linear > 1 - 1e-12
    assert abs(prof.quadratic_fit[2]) < 1e-6
    # slope is -2 pi / lambda along the axis
    assert prof.linear_fit[1] == pytest.approx(-2 * np.pi / lam, rel=1e-9)


def test_phase_profile_transverse_curvature():
    lam, dist = 1e-3, 2.0
    steps, step = 101, 1e-3
    start = (-(steps - 1) / 2 * step, 0.0, dist)
    prof = phase_profile((0, 0, 0), start, step, steps, (1, 0, 0), lam)
    assert prof.quadratic_fit[2] == pytest.approx(-np.pi / (lam * dist), rel=1e-2)
    assert prof.r2_quadratic > 0.9999
    assert prof.r2_quadratic - prof.r2_linear > 0.01


def test_phase_profile_nyquist_violation_reports_step():
    lam = 1e-3
    with pytest.raises(NyquistViolationError) as err:
        phase_profile((0, 0, 0), (0, 0, 2.0), 1e-3, 11, (0, 0, 1), lam)
    assert err.value.step_index == 0
    assert "step 0" in str(err.value)


def test_phase_profile_argument_validation():
    with pytest.raises(InvalidArgumentError):
        phase_profile((0, 0, 0), (0, 0, 1.0), 1e-4, 2, (0, 0, 1), 1e-3)
    with pytest.raises(InvalidArgumentError):
        phase_profile((0, 0, 0), (0, 0, 1.0), 1e-4, 10, (0, 0, 2), 1e-3)
    with pytest.raises(InvalidArgumentError):
        phase_profile((0, 0, 0), (0, 0, 1.0), -1e-4, 10, (0, 0, 1), 1e-3)


def test_uca_pair_channel_is_circulant():
    n, lam, dist = 8, 1e-3, 5.0
    sc = link_scene(build_uca(n, 0.2), build_uca(n, 0.2), dist, lam)
    h = channel_matrix(sc, WavefrontModel.SPHERICAL).entries
    for shift in range(1, n):
        np.testing.assert_allclose(np.roll(np.roll(h, shift, 0), shift, 1), h, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(side=st.integers(1, 5), eta=st.floats(0.1, 4.0))
def test_fresnel_ura_spectrum_is_the_outer_product_of_its_side_ulas(side, eta):
    # the Fresnel phase splits into an x and a y term, so H is a Kronecker
    # product of the side-ULA channels and its gains multiply pairwise
    spacing = math.sqrt(eta * LAM * DIST / side)
    model = WavefrontModel.FRESNEL

    def gains(build):
        scene = link_scene(build(side, spacing), build(side, spacing), DIST, LAM)
        return gain_spectrum(channel_matrix(scene, model)).gains

    ura, ula = gains(build_ura), gains(build_ula)
    product = np.sort(np.outer(ula, ula).ravel())[::-1]
    np.testing.assert_allclose(ura, product, rtol=0, atol=1e-9 * ura[0])
