import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    DegenerateGeometryError,
    IncompatibleModeError,
    InvalidArgumentError,
    SweepVariable,
    WavefrontModel,
    aosa_schedule,
    build_aosa,
    build_uca,
    build_ula,
    capacity_upper_bound,
    channel_matrix,
    custom_layout,
    fixed_angle_plan,
    gain_spectrum,
    link_scene,
    load_scene_config,
    optimize_rotation,
    rate_report,
    rotate_in_link_plane,
    select_fixed_angles,
    snr_db_to_linear,
    sweep,
)
from losmimo import optimize
from losmimo.cli import main

LAM = 1e-3
DIST = 10.0
GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


def _ula_scene(eta=1.0, n=4, dist=DIST, lam=LAM):
    d = math.sqrt(eta * lam * dist / n)
    return link_scene(build_ula(n, d), build_ula(n, d), dist, lam)


def test_snr_db_to_linear():
    assert snr_db_to_linear(0.0) == 1.0
    assert snr_db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert snr_db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        snr_db_to_linear(4000.0)


def test_snr_sweep_matches_direct_reports():
    sc = _ula_scene()
    grid = np.array([-5.0, 0.0, 5.0])
    points = sweep(sc, SweepVariable.SNR_DB, grid, WavefrontModel.FRESNEL, snr_db=0.0)
    h = channel_matrix(sc, WavefrontModel.FRESNEL)
    assert points.errors == {}
    for i, snr_db in enumerate(grid):
        direct = rate_report(h, snr_db_to_linear(snr_db))
        assert points.x[i] == snr_db
        assert points.snr_db[i] == snr_db
        assert points.rates.ses[i] == pytest.approx(
            direct.ses[0], rel=1e-12
        )
        assert points.descriptors[i] == f"snr_db={snr_db:.12g}"


def test_eta_sweep_hits_beamforming_limit_at_zero():
    sc = _ula_scene()
    rates = sweep(sc, SweepVariable.ETA, np.array([0.0, 1.0]), WavefrontModel.FRESNEL,
                  snr_db=10.0).rates
    # eta -> 0: one coherent beam with the full N_t*N_r power gain
    assert rates.ses[0] == pytest.approx(math.log2(1 + 10.0 * 16), rel=1e-12)
    assert rates.ranks[0] == 1
    # eta = 1: Rayleigh spacing attains the bound at full rank
    assert rates.ses[1] == pytest.approx(4 * math.log2(11), rel=1e-9)


def test_sweep_records_errors_per_point_instead_of_raising():
    sc = _ula_scene()
    points = sweep(sc, SweepVariable.ETA, np.array([-1.0, 1.0]), WavefrontModel.FRESNEL,
                   snr_db=10.0)
    assert list(points.errors) == [0]  # the bad point's error; the good point has its rates
    assert points.errors[0] and np.isfinite(points.rates.ses[1])


def test_freq_sweep_rescales_wavelength():
    sc = _ula_scene()
    freq = 300e9
    (se,) = sweep(sc, SweepVariable.FREQUENCY_HZ, np.array([freq]), WavefrontModel.FRESNEL,
                  snr_db=10.0).rates.ses
    lam = 299792458.0 / freq
    direct = link_scene(sc.tx, sc.rx, DIST, lam)
    expected = rate_report(
        channel_matrix(direct, WavefrontModel.FRESNEL), snr_db_to_linear(10.0)
    )
    assert se == pytest.approx(
        expected.ses[0], rel=1e-12
    )


def test_rotation_sweep_needs_ulas():
    sc = link_scene(build_uca(4, 0.1), build_uca(4, 0.1), DIST, LAM)
    with pytest.raises(IncompatibleModeError):
        sweep(sc, SweepVariable.ROTATION_RAD, np.array([0.0, 0.5]), WavefrontModel.FRESNEL,
              snr_db=10.0)
    # the grid is checked before the archetypes
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        sweep(sc, SweepVariable.ROTATION_RAD, np.array([0.5, 0.0]), WavefrontModel.FRESNEL)


def test_offset_sweep_degrades_capacity_smoothly():
    sc = _ula_scene()
    points = sweep(sc, SweepVariable.OFFSET_M, np.array([0.0, 0.5, 1.0]), WavefrontModel.SPHERICAL,
                   snr_db=10.0)
    ses = points.rates.ses.tolist()
    assert points.errors == {}
    assert ses[0] > ses[-1]  # sliding off boresight costs capacity


def test_tilt_sweep_matches_manual_rotation():
    sc = _ula_scene()
    ang = 0.6
    (se,) = sweep(sc, SweepVariable.TILT_RAD, np.array([ang]), WavefrontModel.FRESNEL,
                  snr_db=10.0).rates.ses
    from losmimo import rotate_in_link_plane

    manual = link_scene(
        sc.tx, sc.rx, DIST, LAM, rx_pose=rotate_in_link_plane(sc.rx, ang)
    )
    expected = rate_report(
        channel_matrix(manual, WavefrontModel.FRESNEL), snr_db_to_linear(10.0)
    )
    assert se == pytest.approx(
        expected.ses[0], rel=1e-12
    )


def test_sweep_grid_must_increase():
    sc = _ula_scene()
    with pytest.raises(InvalidArgumentError):
        sweep(sc, SweepVariable.SNR_DB, np.array([1.0, 1.0]), WavefrontModel.FRESNEL, snr_db=0.0)


def test_optimize_rotation_prefers_broadside_at_unit_eta_high_snr():
    sc = _ula_scene(eta=1.0)
    angle, rates = optimize_rotation(sc, 10.0, WavefrontModel.FRESNEL)
    assert angle == pytest.approx(0.0, abs=1e-3)
    assert rates.ses[0] == pytest.approx(
        4 * math.log2(11), rel=1e-6
    )


def test_optimize_rotation_dilutes_oversized_aperture():
    # eta = 2 broadside and both arrays turning together: the effective
    # eta shrinks by cos^2 per end, so cos^2(angle) = 1/2 restores eta = 1
    # and the bound is attained at full rank
    sc = _ula_scene(eta=2.0)
    snr = 10.0
    angle, rates = optimize_rotation(sc, snr, WavefrontModel.FRESNEL)
    assert math.cos(angle) ** 2 == pytest.approx(0.5, abs=5e-3)
    assert rates.ses[0] == pytest.approx(
        capacity_upper_bound(4, 4, snr), rel=1e-6
    )


def test_optimize_rotation_goes_endfire_at_low_snr():
    sc = _ula_scene(eta=1.0)
    angle, rates = optimize_rotation(sc, 0.1, WavefrontModel.FRESNEL)
    assert angle == pytest.approx(math.pi / 2, abs=1e-3)
    assert rates.ranks[0] == 1
    assert rates.ses[0] == pytest.approx(
        math.log2(1 + 0.1 * 16), rel=1e-9
    )


def test_optimize_rotation_independent_matches_joint_for_symmetric_scene():
    sc = _ula_scene(eta=2.0)
    (at, ar), rep_pair = optimize_rotation(
        sc, 10.0, WavefrontModel.FRESNEL, independent=True
    )
    angle, rep_joint = optimize_rotation(sc, 10.0, WavefrontModel.FRESNEL)
    assert rep_pair.ses[0] >= rep_joint.ses[0] - 1e-6
    # cos(at)*cos(ar) controls the effective eta; the product matters
    assert math.cos(at) * math.cos(ar) == pytest.approx(
        math.cos(angle) ** 2, abs=2e-2
    )


def test_fixed_angle_plan_tracks_optimum_with_dense_angles():
    sc = _ula_scene(eta=1.0)
    angles = np.linspace(0.0, math.pi / 2, 65)
    grid = list(range(-10, 21))
    plan = fixed_angle_plan(sc, angles, grid, WavefrontModel.FRESNEL)
    assert len(plan.descriptors) == len(grid)
    for snr_db, se, ub in zip(plan.snr_db.tolist(), plan.rates.ses, plan.rates.ubs):
        _, ref = optimize_rotation(sc, snr_db_to_linear(snr_db), WavefrontModel.FRESNEL)
        assert se >= ref.ses[0] - 1e-3
        assert se <= ub + 1e-9


def test_fixed_angle_plan_descriptor_names_the_winning_angle():
    sc = _ula_scene(eta=1.0)
    plan = fixed_angle_plan(sc, [0.0, math.pi / 2], [-10.0, 10.0], WavefrontModel.FRESNEL)
    assert plan.descriptors == [f"rotation_rad={math.pi / 2:.12g}", "rotation_rad=0"]


def test_select_fixed_angles_includes_extremes():
    sc = _ula_scene(eta=1.0)
    grid = list(range(-10, 21, 3))
    angles, _, _ = select_fixed_angles(sc, 2, grid, WavefrontModel.FRESNEL)
    assert len(angles) == 2
    assert angles == sorted(angles)
    assert angles[0] == pytest.approx(0.0, abs=1e-9)
    assert angles[-1] == pytest.approx(math.pi / 2, abs=1e-9)


def test_fixed_angle_candidates_are_every_other_rotation_grid_angle():
    # select_fixed_angles takes its candidates' SEs from the rotation grid
    candidates = np.linspace(0.0, math.pi / 2, optimize._ANGLE_CANDIDATES)
    grid = np.linspace(0.0, math.pi / 2, optimize._ROTATION_GRID_POINTS)
    assert (optimize._ANGLE_CANDIDATES, optimize._ROTATION_GRID_POINTS) == (33, 65)
    assert np.array_equal(candidates, grid[::2])


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("model", [WavefrontModel.SPHERICAL, WavefrontModel.FRESNEL])
def test_fixed_angle_reference_is_the_rotation_optimum(n, model, monkeypatch):
    sc = _ula_scene(eta=1.5, n=n)
    grid = list(range(-10, 21, 2))
    want = [optimize_rotation(sc, snr_db_to_linear(s), model)[1].ses[0] for s in grid]
    searches, best_rotation = [], optimize._best_rotation
    monkeypatch.setattr(optimize, "_best_rotation",
                        lambda *args: searches.append(best_rotation(*args)) or searches[-1])
    _, plan, worst_gap = select_fixed_angles(sc, 1, grid, model)
    [(_, ref, _, _)] = searches  # one rotation search: its optima are the gaps' reference
    assert ref.tolist() == want
    ses = plan.rates.ses.tolist()
    assert worst_gap == max([0.0] + [1.0 - se / r for se, r in zip(ses, want) if r > 0])


def test_angles_mode_builds_the_rotation_grid_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ula.json"
    path.write_text(json.dumps({
        "carrier_hz": 300e9, "distance_m": 5.0, "model": "spherical",
        "tx": {"type": "ula", "n": 4, "spacing_m": 0.035},
        "rx": {"type": "ula", "n": 4, "spacing_m": 0.035},
    }))
    calls = []
    entries = optimize._channel_entries

    def counted(*args):
        calls.append(1)
        return entries(*args)

    monkeypatch.setattr(optimize, "_channel_entries", counted)
    argv = ["optimize", str(path), "--mode", "angles", "--k", "3", "--snr-grid=-10:1:20"]
    assert main(argv) == 0
    # one stack of the 65 grid angles, then the golden section of all 31 SNRs together
    # (a bracket two grid steps wide takes 13 steps to shrink below 1e-4 rad): the 31
    # searches start from 5 distinct brackets, so each call looks 3 steps ahead
    # (5 * 2**3 probes of 16 channel entries fit in 1,024), the first one also taking
    # every SNR's two starting points; the plan of the 3 chosen angles comes from the
    # grid's gains
    assert len(calls) <= 1 + 5
    assert len(capsys.readouterr().out.splitlines()) == 32


def test_angles_mode_rejects_a_decreasing_snr_grid_before_any_channel(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "ula.json"
    path.write_text(json.dumps({
        "carrier_hz": 300e9, "distance_m": 5.0, "model": "spherical",
        "tx": {"type": "ula", "n": 4, "spacing_m": 0.035},
        "rx": {"type": "ula", "n": 4, "spacing_m": 0.035},
    }))
    calls = []
    entries = optimize._channel_entries

    def counted(*args):
        calls.append(1)
        return entries(*args)

    monkeypatch.setattr(optimize, "_channel_entries", counted)
    argv = ["optimize", str(path), "--mode", "angles", "--k", "2", "--snr-grid=20,10"]
    assert main(argv) == 2
    assert "increasing" in capsys.readouterr().err
    scene = load_scene_config(str(path)).scene
    with pytest.raises(InvalidArgumentError, match="increasing"):
        select_fixed_angles(scene, 2, [20.0, 10.0], WavefrontModel.SPHERICAL)
    assert calls == []


def test_aosa_schedule_rank_transitions():
    lam, dist = 1e-3, 10.0
    template = link_scene(
        build_aosa(4, 2, math.sqrt(lam * dist / 2), lam / 4),
        build_aosa(4, 2, math.sqrt(lam * dist / 2), lam / 4),
        dist,
        lam,
    )
    grid = [x * 0.5 for x in range(-16, 17)]
    plan = aosa_schedule(4, template, grid, WavefrontModel.FRESNEL)
    rs = [int(d.split("=")[1]) for d in plan.descriptors]
    assert set(rs) <= {1, 2, 4}
    # the chosen subarray count only ever grows with snr
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    assert rs[0] == 1 and rs[-1] == 4
    assert (plan.rates.ses <= plan.rates.ubs + 1e-9).all()


def test_aosa_schedule_skips_ranks_whose_clusters_overlap():
    # at 1e-3 m and 10 m the rank-r spacing sqrt(lam * dist / r) is 0.0707 m at
    # r = 2 and 0.0577 m at r = 3, narrower than the spans (0.1 m, 0.06 m) of 6
    # and 4 elements 0.02 m apart; r = 1, 4, 6 and 12 fit
    template = _ula_scene(n=12)
    grid = [2.0 * x for x in range(-10, 16)]
    plan = aosa_schedule(12, template, grid, WavefrontModel.FRESNEL, element_spacing_m=0.02)
    ranks = {int(d.split("=")[1]) for d in plan.descriptors}
    assert ranks and ranks <= {1, 4, 6, 12}
    # 100 elements 0.01 m apart fit as one cluster, or as 50 or 100 (spacing
    # 0.0141 m or 0.01 m); at r = 25 four of them span 0.03 m against 0.02 m
    plan = aosa_schedule(100, template, [-10.0, 30.0], WavefrontModel.FRESNEL,
                         element_spacing_m=0.01)
    assert set(plan.descriptors) <= {"aosa_r=1", "aosa_r=50", "aosa_r=100"}


def test_aosa_schedule_rejects_non_increasing_grid():
    sc = _ula_scene()
    with pytest.raises(InvalidArgumentError):
        aosa_schedule(4, sc, [0.0, 0.0], WavefrontModel.FRESNEL)


def test_select_fixed_angles_rejects_more_than_the_candidates():
    sc = _ula_scene(eta=1.0)
    with pytest.raises(InvalidArgumentError, match="at most"):
        select_fixed_angles(sc, 34, [0.0], WavefrontModel.FRESNEL)
    angles, _, _ = select_fixed_angles(sc, 33, [0.0], WavefrontModel.FRESNEL)
    assert angles == np.linspace(0.0, math.pi / 2, 33).tolist()


@pytest.mark.parametrize("plan", [
    lambda sc, m, snr: aosa_schedule(8, sc, [snr], m, element_spacing_m=1e-30),
    lambda sc, m, snr: fixed_angle_plan(sc, [0.0], [snr], m),
    lambda sc, m, snr: select_fixed_angles(sc, 2, [snr], m),
    lambda sc, m, snr: sweep(sc, SweepVariable.SNR_DB, np.array([snr]), m),
], ids=["aosa", "fixed_angles", "select_angles", "sweep_snr"])
def test_an_overflowing_snr_raises_before_a_failing_geometry(plan):
    # arrays 1e-10 m apart intersect; 3079 dB overflows times the array gain
    sc = _ula_scene(dist=1e-10)
    model = WavefrontModel.SPHERICAL
    with pytest.raises(DegenerateGeometryError, match="intersect"):
        plan(sc, model, 0.0)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        plan(sc, model, 3079.0)


def test_snr_whose_array_gain_overflows_gives_error_rows_or_raises():
    sc = _ula_scene()
    model = WavefrontModel.FRESNEL
    with pytest.raises(InvalidArgumentError, match="times the array gain 16 overflows"):
        sweep(sc, SweepVariable.ETA, np.array([0.0, 1.0]), model, snr_db=3079.0)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        optimize_rotation(sc, snr_db_to_linear(3079.0), model)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        fixed_angle_plan(sc, [0.0], [3079.0], model)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        aosa_schedule(4, sc, [3079.0], model)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        sweep(sc, SweepVariable.SNR_DB, np.array([3000.0, 4000.0]), model)


_NON_SNR_GRIDS = {
    SweepVariable.ETA: [0.0, 0.5, 1.0],
    SweepVariable.FREQUENCY_HZ: [-1.0, 100e9, 300e9],
    SweepVariable.ROTATION_RAD: [0.0, 0.5],
    SweepVariable.TILT_RAD: [0.0, 0.1],
    SweepVariable.OFFSET_M: [0.0, 0.01],
}


@pytest.mark.parametrize("variable", list(_NON_SNR_GRIDS))
def test_sweep_checks_its_fixed_snr_before_any_geometry(variable, monkeypatch):
    # 3079 dB overflows times the array gain 16; -3300 dB rounds to 0 in linear scale
    cfg = load_scene_config(GOLDEN_CONFIGS / "ula4.json")
    calls = []
    monkeypatch.setattr(optimize, "_channel_entries", lambda *args: calls.append(args))
    grid = np.array(_NON_SNR_GRIDS[variable])
    for snr_db, text in ((3079.0, "times the array gain 16 overflows"),
                         (-3300.0, "snr_linear must be positive, got 0.0")):
        with pytest.raises(InvalidArgumentError, match=text):
            sweep(cfg.scene, variable, grid, cfg.model, snr_db=snr_db)
    assert calls == []


_GRID_ERROR = "sweep grid must be a non-empty finite 1-D array"
_ORDER_ERROR = "sweep grid must be strictly increasing"
_BAD_SWEEP_INPUTS = {
    "2d_grid": ([[0.0, 1.0]], 0.0, _GRID_ERROR),
    "empty_grid": ([], 0.0, _GRID_ERROR),
    "nan_in_grid": ([0.0, math.nan], 0.0, _GRID_ERROR),
    "inf_in_grid": ([0.0, math.inf], 0.0, _GRID_ERROR),
    "minus_inf_in_grid": ([-math.inf, 0.0], 0.0, _GRID_ERROR),
    "repeated_value": ([0.5, 0.5], 0.0, _ORDER_ERROR),
    "decreasing_grid": ([1.0, 0.5], 0.0, _ORDER_ERROR),
    "nan_snr": ([0.0, 1.0], math.nan, "sweep snr_db must be finite, got nan"),
    "inf_snr": ([0.0, 1.0], math.inf, "sweep snr_db must be finite, got inf"),
    "minus_inf_snr": ([0.0, 1.0], -math.inf, "sweep snr_db must be finite, got -inf"),
    "grid_before_snr": ([1.0, 0.5], math.nan, _ORDER_ERROR),
}


@pytest.mark.parametrize("variable", [SweepVariable.SNR_DB, SweepVariable.ETA])
@pytest.mark.parametrize("grid, snr_db, text", _BAD_SWEEP_INPUTS.values(),
                         ids=list(_BAD_SWEEP_INPUTS))
def test_sweep_checks_its_grid_and_snr_before_any_geometry(variable, grid, snr_db, text,
                                                           monkeypatch):
    calls = []
    monkeypatch.setattr(optimize, "_channel_entries", lambda *args: calls.append(args))
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(text)}$"):
        sweep(_ula_scene(), variable, grid, WavefrontModel.FRESNEL, snr_db=snr_db)
    assert calls == []


def _zero_aperture_scene():  # one tx element: a point set of diameter 0
    return link_scene(custom_layout([[0.0, 0.0, 0.0]]), build_ula(4, 0.01), DIST, LAM)


def test_an_eta_grid_of_zero_alone_is_one_beam_row_with_no_evaluation(monkeypatch):
    calls = []
    monkeypatch.setattr(optimize, "_channel_entries", lambda *args: calls.append(args))
    for sc in (_ula_scene(), _zero_aperture_scene()):
        t = sweep(sc, SweepVariable.ETA, np.array([0.0]), WavefrontModel.SPHERICAL, snr_db=10.0)
        n = sc.tx.element_count * sc.rx.element_count
        assert t.errors == {} and t.descriptors == ["eta=0"]
        assert t.rates.ses.tolist() == [pytest.approx(math.log2(1 + 10.0 * n), rel=1e-15)]
        assert t.rates.ubs.tolist() == [capacity_upper_bound(sc.tx.element_count,
                                                             sc.rx.element_count, 10.0)]
        assert t.rates.ranks.tolist() == [1]
        assert t.rates.fractions.tolist() == [[1.0] + [0.0] * (t.rates.fractions.shape[1] - 1)]
    assert calls == []


def test_an_eta_grid_on_a_zero_aperture_layout_fails_every_point_above_zero():
    sc = _zero_aperture_scene()
    t = sweep(sc, SweepVariable.ETA, np.array([-1.0, 0.0, 0.5, 1.0]), WavefrontModel.SPHERICAL,
              snr_db=10.0)
    assert t.errors == {
        0: "InvalidArgumentError: eta must be non-negative",
        2: "IncompatibleModeError: eta sweep needs layouts with positive aperture",
        3: "IncompatibleModeError: eta sweep needs layouts with positive aperture"}
    assert t.rates.ranks.tolist() == [0, 1, 0, 0]
    assert np.isfinite(t.rates.ses[1]) and np.isnan(t.rates.ses[[0, 2, 3]]).all()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    eta=st.floats(0.25, 4.0),
    snr_db=st.floats(-200.0, 300.0),
    model=st.sampled_from(list(WavefrontModel)),
)
def test_every_row_is_finite_and_below_the_bound(n, eta, snr_db, model):
    sc = _ula_scene(eta=eta, n=n)
    plans = [sweep(sc, SweepVariable.SNR_DB, np.array([snr_db]), model),
             sweep(sc, SweepVariable.ETA, np.array([0.0, eta]), model, snr_db=snr_db),
             fixed_angle_plan(sc, [0.0, math.pi / 4, math.pi / 2], [snr_db], model),
             aosa_schedule(n, sc, [snr_db], model)]
    for plan in plans:
        r = plan.rates
        assert np.isfinite(r.ses).all()
        assert (r.ses <= r.ubs + 1e-9).all()
        assert (r.ranks == np.count_nonzero(r.fractions > 0, axis=1)).all()


def _rotated_ula_pair(n, spacing, angle_t, angle_r):
    tx, rx = build_ula(n, spacing), build_ula(n, spacing)
    return link_scene(tx, rx, DIST, LAM, tx_pose=rotate_in_link_plane(tx, angle_t),
                      rx_pose=rotate_in_link_plane(rx, angle_r))


def _fresnel_gains(scene):
    return gain_spectrum(channel_matrix(scene, WavefrontModel.FRESNEL)).gains


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8, 16]),
    eta=st.floats(0.1, 4.0),
    angle_t=st.floats(0.0, 1.5),
    angle_r=st.floats(0.0, 1.5),
)
def test_fresnel_rotation_is_aperture_scaling(n, eta, angle_t, angle_r):
    # under FRESNEL only the transverse positions matter, and a ULA turned by
    # theta keeps cos(theta) of its spacing across the link
    spacing = math.sqrt(eta * LAM * DIST / n)
    turned = _fresnel_gains(_rotated_ula_pair(n, spacing, angle_t, angle_r))
    scale = math.sqrt(math.cos(angle_t) * math.cos(angle_r))
    broadside = _fresnel_gains(_rotated_ula_pair(n, spacing * scale, 0.0, 0.0))
    np.testing.assert_allclose(turned, broadside, rtol=0, atol=1e-9 * turned[0])


def _joint_reaches_the_independent_rate(n, eta, snr_db):
    sc = _ula_scene(eta=eta, n=n)
    snr = snr_db_to_linear(snr_db)
    model = WavefrontModel.FRESNEL
    joint_angle, joint = optimize_rotation(sc, snr, model)
    (angle_t, angle_r), independent = optimize_rotation(sc, snr, model, independent=True)
    # any (angle_t, angle_r) is the joint rotation by the angle whose cos^2 is
    # cos(angle_t) * cos(angle_r), so the joint search reaches the same rate
    angle = math.acos(math.sqrt(math.cos(angle_t) * math.cos(angle_r)))
    same = rate_report(channel_matrix(_rotated_ula_pair(
        n, sc.tx.aperture_m / n, angle, angle), model), snr)
    se = independent.ses[0]
    assert same.ses[0] == pytest.approx(se, rel=1e-9, abs=1e-12)
    # and the two searches agree to what their 1e-4 rad golden-section step
    # resolves (measured at most 2e-9 relative)
    assert joint.ses[0] == pytest.approx(se, rel=1e-7, abs=1e-12)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 4, 8]),
    eta=st.floats(0.25, 4.0),
    snr_db=st.floats(-10.0, 20.0),
)
def test_fresnel_independent_rotation_cannot_beat_the_joint_one(n, eta, snr_db):
    _joint_reaches_the_independent_rate(n, eta, snr_db)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "search limit, documented as C2 is: here the FRESNEL rate over the joint angle has "
    "two peaks, 5.149796 bit/s/Hz near 1.1793 rad and 5.157269 near 1.2632 rad (the "
    "independent search's pair as one joint angle); the 65-point grid's best point, "
    "1.1781 rad, sits on the lower peak, so the golden section, which searches one grid "
    "step either side of it, brackets the wrong peak and the joint search stops 0.15% short"))
def test_fresnel_joint_rotation_misses_the_higher_peak_at_a_known_point():
    _joint_reaches_the_independent_rate(8, 2.0625, -4.6875)
