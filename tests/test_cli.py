import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import losmimo
from losmimo import (
    Archetype,
    ConfigError,
    DegenerateGeometryError,
    IncompatibleModeError,
    InvalidArgumentError,
    LosMimoError,
    NoSignalError,
    NumericalValidityError,
    NyquistViolationError,
    SweepVariable,
    UnsupportedArchetypeError,
    WavefrontModel,
    build_ula,
    capacity_upper_bound_integer,
    channel_matrix,
    link_scene,
    load_scene_config,
    rate_report,
    snr_db_to_linear,
    sweep,
    validity_from_apertures,
)
from losmimo import capacity, optimize
from losmimo.cli import build_parser, main

GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"

SCENE = """{
  "carrier_hz": 300e9,
  "distance_m": 5.0,
  "model": "spherical",
  "snr_db": 10.0,
  "tx": {"type": "ula", "n": 4, "spacing_m": 0.035},
  "rx": {"type": "ula", "n": 4, "spacing_m": 0.035}
}
"""

AOSA_SCENE = """{
  "carrier_hz": 300e9,
  "distance_m": 10.0,
  "model": "fresnel",
  "tx": {"type": "aosa", "n": 4, "n_subarrays": 2, "spacing_m": 0.0707},
  "rx": {"type": "aosa", "n": 4, "n_subarrays": 2, "spacing_m": 0.0707}
}
"""

URA_SCENE = """{
  "carrier_hz": 300e9,
  "distance_m": 5.0,
  "model": "spherical",
  "tx": {"type": "ura", "n": 2, "spacing_m": 0.05},
  "rx": {"type": "ura", "n": 2, "spacing_m": 0.05}
}
"""


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(SCENE)
    return str(path)


@pytest.fixture
def aosa_path(tmp_path):
    path = tmp_path / "aosa.json"
    path.write_text(AOSA_SCENE)
    return str(path)


def test_channel_csv_with_json_sidecar(scene_path, tmp_path):
    out = tmp_path / "h.csv"
    assert main(["channel", scene_path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,re,im"
    assert len(lines) == 17
    meta = json.loads((tmp_path / "h.csv.json").read_text())
    assert meta["n_r"] == 4 and meta["n_t"] == 4
    assert meta["model"] == "spherical"
    assert meta["wavelength_m"] == pytest.approx(299792458.0 / 300e9)


def test_channel_json_round_trip(scene_path, capsys):
    assert main(["channel", scene_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    re = np.array(doc["re"])
    im = np.array(doc["im"])
    assert re.shape == (4, 4)
    np.testing.assert_allclose(np.hypot(re, im), 1.0, atol=1e-12)


def test_channel_output_is_byte_deterministic(scene_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["channel", scene_path, "--out", str(a)])
    main(["channel", scene_path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_capacity_uses_config_snr_and_flag_overrides(scene_path, capsys):
    assert main(["capacity", scene_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "snr_db,se_bpshz,ub_bpshz,active_rank,allocation"
    assert len(out.strip().splitlines()) == 2  # config scalar snr

    assert main(["capacity", scene_path, "--snr-db", "0,5,10"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 4


def test_capacity_requires_some_snr(tmp_path, capsys):
    path = tmp_path / "nosnr.json"
    path.write_text(SCENE.replace('"snr_db": 10.0,', ""))
    assert main(["capacity", str(path)]) == 2
    assert "SNR" in capsys.readouterr().err


def test_capacity_json_reports(scene_path, capsys):
    assert main(["capacity", scene_path, "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1
    assert docs[0]["snr_db"] == 10.0
    assert set(docs[0]) == {"snr_db", "se_bpshz", "ub_bpshz", "active_rank", "allocation"}
    assert sum(docs[0]["allocation"]) == pytest.approx(1.0, abs=1e-12)


def test_capacity_takes_one_svd_per_scene(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ura.json"
    path.write_text(URA_SCENE)
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert main(["capacity", str(path), "--snr-db=-10:1:20", "--format", "json"]) == 0
    assert calls == [(4, 4)]
    monkeypatch.undo()
    docs = json.loads(capsys.readouterr().out)
    cfg = load_scene_config(str(path))
    h = channel_matrix(cfg.scene, cfg.model)
    assert len(docs) == 31
    for i, doc in enumerate(docs):
        want = rate_report(h, snr_db_to_linear(-10.0 + i))
        assert doc["se_bpshz"] == want.ses[0]
        assert doc["allocation"] == want.fractions[0].tolist()
        assert doc["active_rank"] == want.ranks[0]
        assert doc["ub_bpshz"] == want.ubs[0]


def test_sweep_grid_syntax(scene_path, capsys):
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "0:5:10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("x_value,")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "5", "10"]

    assert main(["sweep", scene_path, "--var", "snr", "--grid=-10,0,10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["-10", "0", "10"]


def test_sweep_rejects_bad_grids(scene_path, capsys):
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "0:0:10"]) == 2
    capsys.readouterr()
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "5:1:0"]) == 2
    capsys.readouterr()
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "1,1,2"]) == 2
    capsys.readouterr()
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "abc"]) == 2


def test_sweep_rejects_oversize_grid(scene_path, capsys):
    # 10**12 points would be built before the limit existed
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "0:1e-12:1"]) == 2
    assert "more than the limit of 1000000" in capsys.readouterr().err
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "0:1:1000000"]) == 2
    capsys.readouterr()


def test_sweep_rejects_grid_whose_size_overflows(scene_path, capsys):
    # (stop - start) / step is inf: was an uncaught OverflowError
    assert main(["sweep", scene_path, "--var", "snr", "--grid", "0:1e-320:1"]) == 2
    assert "bad --grid" in capsys.readouterr().err


def test_sweep_eta_fixed_snr_from_config(scene_path, capsys):
    assert main(["sweep", scene_path, "--var", "eta", "--grid", "0.5,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(ln.split(",")[1] == "10" for ln in lines[1:])


def test_sweep_json_format(scene_path, capsys):
    assert main(
        ["sweep", scene_path, "--var", "snr", "--grid", "0,10", "--format", "json"]
    ) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 2
    assert docs[0]["config_descriptor"] == "snr_db=0"


def test_sweep_rotation_on_uca_is_incompatible(tmp_path, capsys):
    path = tmp_path / "uca.json"
    path.write_text(
        SCENE.replace(
            '{"type": "ula", "n": 4, "spacing_m": 0.035}',
            '{"type": "uca", "n": 4, "diameter_m": 0.1}',
        )
    )
    code = main(["sweep", str(path), "--var", "rotation", "--grid", "0:0.1:0.5"])
    assert code == 4


def test_optimize_rotation_json(scene_path, capsys):
    assert main(
        ["optimize", scene_path, "--mode", "rotation", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"angle_rad", "report"}
    assert 0.0 <= doc["angle_rad"] <= np.pi / 2


def test_optimize_aosa_plan(aosa_path, capsys):
    assert main(
        ["optimize", aosa_path, "--mode", "aosa", "--snr-grid=-6:3:6"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x_value,snr_db,se_bpshz,ub_bpshz,active_rank,config_descriptor"
    assert len(lines) == 6
    assert all("aosa_r=" in ln for ln in lines[1:])


def test_optimize_aosa_needs_aosa_config(scene_path, capsys):
    assert main(["optimize", scene_path, "--mode", "aosa", "--snr-grid", "0"]) == 4


@pytest.mark.parametrize("rx", [
    {"n": 8, "n_subarrays": 2},
    {"element_spacing_m": 0.001},
])
def test_optimize_aosa_rejects_blocks_that_disagree(rx, tmp_path, capsys):
    doc = json.loads((GOLDEN_CONFIGS / "aosa4.json").read_text())
    doc["rx"].update(rx)
    path = tmp_path / "aosa.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", str(path), "--mode", "aosa", "--snr-grid=0"]) == 4
    assert "same 'n' and element spacing" in capsys.readouterr().err


def test_optimize_aosa_compares_effective_element_spacings(tmp_path, capsys):
    # a quarter wavelength written out equals the default of a block that omits it
    doc = json.loads((GOLDEN_CONFIGS / "aosa4.json").read_text())
    doc["tx"]["element_spacing_m"] = 299792458.0 / doc["carrier_hz"] / 4
    path = tmp_path / "aosa.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", str(path), "--mode", "aosa", "--snr-grid=0:5:10"]) == 0
    written_out = capsys.readouterr().out
    default = str(GOLDEN_CONFIGS / "aosa4.json")
    assert main(["optimize", default, "--mode", "aosa", "--snr-grid=0:5:10"]) == 0
    assert written_out == capsys.readouterr().out


def test_optimize_aosa_needs_snr_grid(aosa_path, capsys):
    assert main(["optimize", aosa_path, "--mode", "aosa"]) == 2


def test_optimize_angles_reports_gap(scene_path, capsys):
    assert main(
        [
            "optimize",
            scene_path,
            "--mode",
            "angles",
            "--k",
            "2",
            "--snr-grid=-10:10:10",
            "--format",
            "json",
        ]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["angles_rad"]) == 2
    assert doc["worst_case_gap"] >= 0.0
    assert len(doc["plan"]) == 3


def test_optimize_angles_rejects_more_angles_than_candidates(scene_path, capsys):
    args = ["optimize", scene_path, "--mode", "angles", "--snr-grid", "0"]
    assert main(args + ["--k", "34"]) == 2
    assert "k must be at most" in capsys.readouterr().err


def test_capacity_at_minus_200_db(scene_path, capsys):
    assert main(["capacity", scene_path, "--snr-db=-200", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["allocation"] == [1.0, 0.0, 0.0, 0.0]
    assert doc["active_rank"] == 1
    assert 0.0 < doc["se_bpshz"] <= doc["ub_bpshz"]


def test_validity_rejects_oversize_map(capsys):
    code = main(
        [
            "validity",
            "--freq-grid",
            "1e9:1e9:1001e9",
            "--dist-grid",
            "1:1:1000",
            "--tx-aperture",
            "0.5",
            "--rx-aperture",
            "0.5",
        ]
    )
    assert code == 2
    assert "validity map has 1001000 points" in capsys.readouterr().err


def test_validity_map(capsys):
    code = main(
        [
            "validity",
            "--freq-grid",
            "100e9,300e9",
            "--dist-grid",
            "1,100",
            "--tx-aperture",
            "0.5",
            "--rx-aperture",
            "0.5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "freq_hz,dist_m,regime"
    assert len(lines) == 5
    # 0.25 >= 4*lambda*d at (300 GHz, 1 m) -> spherical; far away -> planar
    row = dict()
    for ln in lines[1:]:
        f, d, regime = ln.split(",")
        row[(float(f), float(d))] = regime
    assert row[(300e9, 1.0)] == "spherical"
    assert row[(100e9, 100.0)] == "planar"


def test_validity_map_keeps_the_strict_threshold(capsys):
    # lambda is exactly 1 m, so 2 * 2 < 4 * lambda * d is false at d = 1 and
    # true one ulp above it
    assert main(["validity", "--freq-grid", "299792458", "--tx-aperture", "2",
                 "--rx-aperture", "2", "--dist-grid", "1,1.0000000000000002"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["spherical", "planar"]


def test_validity_at_distances_past_the_float_range_is_planar_without_a_warning(capsys):
    # 4 * lambda * D overflows to inf, which the rule reads as planar
    argv = ["validity", "--freq-grid=1e9,300e9", "--dist-grid=1.7e308", "--tx-aperture=0.1",
            "--rx-aperture=2", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the product printed a RuntimeWarning to stderr
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row["regime"] for row in json.loads(out)] == ["planar"] * 2


def test_validity_rejects_bad_apertures(capsys):
    code = main(
        [
            "validity",
            "--freq-grid",
            "100e9",
            "--dist-grid",
            "1",
            "--tx-aperture",
            "0",
            "--rx-aperture",
            "0.5",
        ]
    )
    assert code == 2


def test_phase_profile_transverse_summary(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = main(
        [
            "phase-profile",
            "--freq",
            "300e9",
            "--distance",
            "1.8",
            "--steps",
            "300",
            "--step-size",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "displacement_m,phase_rad,quadratic_fit_rad,linear_fit_rad"
    assert len(lines) == 301
    summary = json.loads((tmp_path / "prof.csv.json").read_text())
    assert set(summary) == {"c2_fitted", "c2_predicted", "r2_quadratic", "r2_linear"}
    assert summary["c2_fitted"] == pytest.approx(summary["c2_predicted"], rel=0.01)


def test_phase_profile_longitudinal_aliases_at_coarse_step(capsys):
    code = main(
        [
            "phase-profile",
            "--freq",
            "300e9",
            "--distance",
            "1.8",
            "--steps",
            "11",
            "--step-size",
            "1e-3",
            "--direction",
            "longitudinal",
        ]
    )
    assert code == 5
    assert "step 0" in capsys.readouterr().err


def test_phase_profile_rejects_too_few_steps(capsys):
    code = main(
        [
            "phase-profile",
            "--freq",
            "300e9",
            "--distance",
            "1.8",
            "--steps",
            "2",
            "--step-size",
            "1e-4",
        ]
    )
    assert code == 2


def test_phase_profile_json_embeds_samples(capsys):
    code = main(
        [
            "phase-profile",
            "--freq",
            "300e9",
            "--distance",
            "1.8",
            "--steps",
            "21",
            "--step-size",
            "2e-4",
            "--direction",
            "longitudinal",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c2_predicted"] == 0.0
    assert len(doc["samples"]["phase_rad"]) == 21


def test_unknown_command_and_missing_args_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["sweep"]) == 2


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "losmimo" in capsys.readouterr().out


def test_missing_config_file_exits_2(capsys):
    assert main(["channel", "/nonexistent/scene.json"]) == 2


def test_sweep_output_is_byte_deterministic(scene_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", scene_path, "--var", "eta", "--grid", "0.2:0.2:1.4"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_snr_whose_array_gain_overflows_exits_2(scene_path, capsys):
    # these ended in an OverflowError traceback or printed inf with exit 0
    for argv in (
        ["capacity", scene_path, "--snr-db", "4000"],
        ["capacity", scene_path, "--snr-db", "3079"],
        ["sweep", scene_path, "--var", "snr", "--grid", "3000:100:4000"],
        ["sweep", scene_path, "--var", "eta", "--grid", "0,1", "--snr-db", "3079"],
        ["sweep", scene_path, "--var", "tilt", "--grid", "0,1", "--snr-db", "3079"],
        ["optimize", scene_path, "--mode", "rotation", "--snr-db", "3079"],
    ):
        assert main(argv + ["--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err


def test_edge_eta_grids_end_in_a_beam_row_and_error_rows(tmp_path, capsys, monkeypatch):
    # a one-point custom tx has aperture 0: only eta 0, the beam, has rates
    config = tmp_path / "point.json"
    config.write_text(json.dumps({
        "carrier_hz": 300e9, "distance_m": 5.0, "model": "spherical",
        "tx": {"type": "custom", "positions": [[0.0, 0.0, 0.0]]},
        "rx": {"type": "ula", "n": 4, "spacing_m": 0.035}}))
    calls = []
    monkeypatch.setattr(optimize, "_channel_entries", lambda *args: calls.append(args))
    for path in (GOLDEN_CONFIGS / "ula4.json", config):
        assert main(["sweep", str(path), "--var", "eta", "--grid=0", "--snr-db=10",
                     "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["active_rank"] == 1 and row["config_descriptor"] == "eta=0"
        assert "error" not in row and math.isfinite(row["se_bpshz"])
    assert main(["sweep", str(config), "--var", "eta", "--grid=0:0.5:1.5", "--snr-db=10"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines[0].startswith("0,10,") and lines[0].endswith(",1,eta=0")
    assert lines[1:] == [
        f"{x},10,nan,nan,0,eta={x} IncompatibleModeError: eta sweep needs layouts with "
        "positive aperture" for x in ("0.5", "1", "1.5")]
    assert calls == []


def test_angles_and_capacity_report_the_first_overflowing_snr_alike(scene_path, capsys):
    # 3075 dB fits a float but not times the array gain 16; 3090 dB does not fit at all
    errors = []
    for argv in (["optimize", scene_path, "--mode", "angles", "--snr-grid=3075,3090"],
                 ["capacity", scene_path, "--snr-db=3075,3090"]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "times the array gain 16 overflows" in errors[0]


@pytest.mark.parametrize("job", [
    ["capacity", "ula4.json", "--snr-db=-10:1:20"],
    ["sweep", "ula4.json", "--var", "snr", "--grid=-10:1:20"],
    ["optimize", "aosa8.json", "--mode", "aosa", "--snr-grid=-10:1:20"],
    ["optimize", "ula4.json", "--mode", "angles", "--snr-grid=-10:1:20"],
    ["fixed_angle_plan", "ula4.json"],
], ids=["capacity", "sweep_snr", "optimize_aosa", "optimize_angles", "fixed_angle_plan"])
def test_each_snr_is_converted_and_checked_once(job, monkeypatch, capsys):
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((optimize, "snr_db_to_linear"), (optimize, "_check_snr"),
                         (capacity, "_check_snr"), (capacity, "capacity_upper_bound"),
                         (capacity, "_bound"), (optimize, "_bound")):
        count(module, name)
    path = str(GOLDEN_CONFIGS / job[1])
    if job[0] == "fixed_angle_plan":
        cfg = load_scene_config(path)
        plan = optimize.fixed_angle_plan(cfg.scene, [0.0, 0.5, 1.0], np.arange(-10.0, 21.0),
                                         cfg.model)
        assert len(plan.descriptors) == 31
    else:
        assert main([job[0], path] + job[2:]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 32
    # converted and checked once, where it enters; one bound over the whole SNR column
    assert calls.get("snr_db_to_linear") == 31
    assert calls.get("_check_snr", 0) == 31
    assert calls.get("capacity_upper_bound", 0) == 0
    assert calls.get("_bound", 0) == 1


@pytest.mark.parametrize("error, code", [
    (LosMimoError, 1),
    (InvalidArgumentError, 2),
    (ConfigError, 2),
    (DegenerateGeometryError, 3),
    (IncompatibleModeError, 4),
    (UnsupportedArchetypeError, 4),
    (NumericalValidityError, 5),
    (NyquistViolationError, 5),
    (NoSignalError, 5),
])
def test_each_error_class_has_its_documented_exit_code(error, code):
    assert error.exit_code == code


def test_python_dash_m_losmimo_runs_the_cli():
    src = str(Path(losmimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-m", "losmimo", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == f"losmimo {losmimo.__version__}"


_PUBLIC_NAMES = {
    "__version__",
    "LosMimoError", "InvalidArgumentError", "ConfigError", "DegenerateGeometryError",
    "IncompatibleModeError", "UnsupportedArchetypeError", "NumericalValidityError",
    "NoSignalError", "NyquistViolationError",
    "Archetype", "ArrayLayout", "RigidPose", "LinkScene", "recompute_aperture", "build_ula",
    "build_ura", "build_uca", "build_aosa", "custom_layout", "scale_layout",
    "rotate_in_link_plane", "link_scene", "transpose_scene", "projected_aperture",
    "channel_parameter",
    "SPEED_OF_LIGHT_M_S", "WavefrontModel", "Validity", "ChannelMatrix",
    "PhaseProfile", "distance_matrix", "channel_matrix", "validity_from_apertures",
    "classify_validity", "phase_profile",
    "GainSpectrum", "RateTable", "gain_spectrum", "waterfilling",
    "uniform_rate", "polarized_rate", "capacity_upper_bound", "capacity_upper_bound_integer",
    "rate_report",
    "SweepVariable", "SweepTable", "snr_db_to_linear", "optimize_rotation",
    "fixed_angle_plan", "select_fixed_angles", "aosa_schedule", "sweep",
    "SceneConfig", "parse_scene_config", "load_scene_config",
}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from losmimo import *", namespace)
    namespace.pop("__builtins__")
    assert len(_PUBLIC_NAMES) == 56 and set(namespace) == _PUBLIC_NAMES
    assert len(losmimo.__all__) == len(set(losmimo.__all__))
    for module in ("errors", "geometry", "channel", "capacity", "optimize", "config"):
        assert hasattr(losmimo, module) and module not in namespace


def _validity_with_nan(index):
    args = [0.1, 0.1, 1e-3, 1.0]
    args[index] = math.nan
    return lambda: validity_from_apertures(*args)


def _sweep_with_snr(snr_db):
    scene = link_scene(build_ula(4, 0.035), build_ula(4, 0.035), 5.0, 1e-3)
    return lambda: sweep(scene, SweepVariable.ETA, [0.5, 1.0], WavefrontModel.SPHERICAL,
                         snr_db=snr_db)


# inputs that used to end in a value, a NaN or an untyped error
_CLOSED_HOLES = {
    "bound_integer_fractional_count": lambda: capacity_upper_bound_integer(4.5, 4, 1.0),
    "bound_integer_negative_count": lambda: capacity_upper_bound_integer(-3, 4, 1.0),
    **{f"validity_nan_argument_{i}": _validity_with_nan(i) for i in range(4)},
    "ula_bool_count": lambda: build_ula(True, 0.1),
    **{f"sweep_spec_{v}_snr": _sweep_with_snr(float(v)) for v in ("nan", "inf", "-inf")},
    "cli_validity_nan_aperture": ["validity", "--freq-grid=100e9", "--dist-grid=1",
                                  "--tx-aperture", "nan", "--rx-aperture", "0.5"],
    "cli_validity_nan_freq": ["validity", "--freq-grid", "nan", "--dist-grid=1",
                              "--tx-aperture", "0.5", "--rx-aperture", "0.5"],
    "cli_phase_profile_inf_distance": ["phase-profile", "--freq", "300e9", "--distance", "inf",
                                       "--steps", "5", "--step-size", "1e-4"],
    "cli_phase_profile_scan_overflows": ["phase-profile", "--freq", "300e9", "--distance", "1",
                                         "--steps", "5", "--step-size", "1e308"],
    "cli_eta_sweep_nan_snr": ["sweep", "SCENE", "--var", "eta", "--grid", "0,1",
                              "--snr-db", "nan"],
    # lambda * distance underflows to 0 (a ZeroDivisionError) or to a subnormal (-Infinity)
    "cli_phase_profile_curvature_divides_by_zero": [
        "phase-profile", "--freq=999e6", "--distance=5e-324", "--steps", "3",
        "--step-size=0.001"],
    "cli_phase_profile_curvature_overflows": [
        "phase-profile", "--freq=0.001", "--distance=5e-324", "--steps", "100",
        "--step-size=1.0", "--format", "json"],
    # the fit's x**2 column underflows to zeros: LAPACK printed DLASCL lines, then LinAlgError
    "cli_phase_profile_displacements_underflow_the_fit": [
        "phase-profile", "--freq=1e9", "--distance=1", "--steps", "100",
        "--step-size=2e-300"],
    # configs at the ends of the float range: numpy's RuntimeWarnings came before the error
    **{f"cli_{argv[0]}_{name}": argv + [config]
       for argv in (["channel"], ["capacity"], ["optimize", "--mode", "rotation"])
       for name, config in {
           # 2 * D underflows, so the Fresnel phase overflows: channel entries must be finite
           "fresnel_subnormal_distance": {
               "model": "fresnel", "distance_m": 5e-324,
               "tx": {"type": "ula", "n": 2, "spacing_m": 0.01},
               "rx": {"type": "ula", "n": 3, "spacing_m": 0.01}},
           # the centroid mean overflows: posed centroids are inf m apart
           "distance_past_the_float_range": {"distance_m": 1.7e308},
           # the CUSTOM diameter overflows: aperture_m must be finite and non-negative
           "custom_diameter_overflows": {
               "tx": {"type": "custom", "positions": [[1e308, 0, 0], [-1e308, 0, 0]]}},
       }.items()},
}


@pytest.mark.parametrize("case", sorted(_CLOSED_HOLES))
def test_bad_inputs_end_in_typed_errors(case, scene_path, tmp_path, capfd):
    hole = _CLOSED_HOLES[case]
    if callable(hole):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN results came with a RuntimeWarning
            with pytest.raises(InvalidArgumentError):
                hole()
        return
    if isinstance(hole[-1], dict):  # keys over SCENE's, in a config of its own
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({**json.loads(SCENE), **hole[-1]}))
        hole = hole[:-1] + [str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        assert main([scene_path if arg == "SCENE" else arg for arg in hole]) == 2
    out, err = capfd.readouterr()  # at the descriptors, where LAPACK writes
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("config, error", [
    ("ula4", "distances must be finite and positive"),
    ("ula8_fresnel", "channel entries must be finite"),
    ("ura2_planar", "channel entries must be finite"),
])
def test_overflowing_offset_ends_in_an_error_row_without_a_warning(config, error, capsys):
    argv = ["sweep", str(GOLDEN_CONFIGS / f"{config}.json"), "--var", "offset",
            "--grid=0,1,1e300", "--snr-db=10", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the squared offset used to warn of an overflow
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = json.loads(out)
    assert [row.get("error") for row in rows] == [None, None, f"InvalidArgumentError: {error}"]


def test_error_rows_print_plain_floats(tmp_path, capsys):
    # one-element arrays 3e12 m off the link axis, 2 mm apart: tilting rx cancels
    # its posed z to 0.001953125 m, which _check_axial reports
    far = {"type": "custom", "positions": [[3e12, 3e12, 0.0]]}
    config = tmp_path / "far.json"
    config.write_text(json.dumps({"carrier_hz": 300e9, "distance_m": 0.002,
                                  "model": "spherical", "tx": far, "rx": far}))
    error = ("InvalidArgumentError: posed centroids are 0.001953125 m apart along the "
             "link axis, expected separation_m = 0.002")
    for fmt in ("csv", "json"):
        argv = ["sweep", str(config), "--var", "tilt", "--grid", "0:0.5:1", "--snr-db=10"]
        assert main(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "np.float64(" not in out
        if fmt == "json":
            assert [row.get("error") for row in json.loads(out)] == [None, error, error]
        else:
            assert out.splitlines()[2].endswith(error.replace(",", ";"))


def _traced_peak(fn):
    """fn() and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_angles_selection_memory_does_not_grow_with_the_snr_grid(scene_path, tmp_path):
    # 1,001 SNR points: scoring all 5,456 triples at once would hold 5456 x 3 x 1001 floats
    argv = ["optimize", scene_path, "--mode", "angles", "--k", "3",
            "--snr-grid=-10:0.02:10", "--out", str(tmp_path / "angles.csv")]
    code, peak = _traced_peak(lambda: main(argv))
    assert code == 0
    assert len((tmp_path / "angles.csv").read_text().splitlines()) == 1 + 1001
    assert peak < 8 << 20


def test_phase_profile_rejects_steps_over_the_limit_before_allocating(capsys):
    argv = ["phase-profile", "--freq", "300e9", "--distance", "1",
            "--steps", "1000001", "--step-size", "1e-12"]
    code, peak = _traced_peak(lambda: main(argv))
    assert code == 2
    assert "--steps has 1000001 points, more than the limit" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("block", [
    {"type": "ula", "n": 100000, "spacing_m": 2**-10},
    {"type": "ura", "n": 65, "spacing_m": 1e-3},
    {"type": "custom", "positions": [[(i - 2048) / 1024, 0.0, 0.0] for i in range(4097)]},
], ids=["ula", "ura", "custom"])
def test_config_blocks_over_4096_elements_exit_2_before_building(block, tmp_path, capsys):
    doc = json.loads(SCENE)
    doc["tx"] = block
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    # a built scene would stop at the aosa mode check instead (exit 4)
    argv = ["optimize", str(path), "--mode", "aosa", "--snr-grid=0"]
    code, peak = _traced_peak(lambda: main(argv))
    assert code == 2
    assert "tx block has" in capsys.readouterr().err
    assert peak < 4 << 20


# one command line per subcommand (and per optimize mode), on small inputs
_EVERY_COMMAND = {
    "channel": ["channel", "ula4.json"],
    "capacity": ["capacity", "ula4.json", "--snr-db=0,10"],
    "sweep": ["sweep", "ula4.json", "--var", "snr", "--grid=0:5:10"],
    "optimize-rotation": ["optimize", "ula4.json", "--mode", "rotation", "--snr-db=10"],
    "optimize-aosa": ["optimize", "aosa4.json", "--mode", "aosa", "--snr-grid=0:5:10"],
    "optimize-angles": ["optimize", "ula4.json", "--mode", "angles", "--k", "2",
                        "--snr-grid=0:5:10"],
    "validity": ["validity", "--freq-grid=100e9,300e9", "--dist-grid=1,10",
                 "--tx-aperture=0.1", "--rx-aperture=0.1"],
    "phase-profile": ["phase-profile", "--freq=300e9", "--distance=5", "--steps=11",
                      "--step-size=1e-4"],
}
_WITH_SIDECAR = {"channel", "phase-profile"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_every_command_writes_one_output_by_the_same_rule(command, fmt, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [str(GOLDEN_CONFIGS / a) if a.endswith(".json") else a
            for a in _EVERY_COMMAND[command]] + ["--format", fmt]

    assert main(argv) == 0  # stdout: the result there, and no file anywhere
    printed = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    if fmt == "json":
        json.loads(printed)
    else:
        assert printed.count("\n") >= 2 and "," in printed.splitlines()[0]

    assert main(argv + ["--out", "result"]) == 0  # --out: the same text, nothing printed
    assert capsys.readouterr().out == ""
    expected = ["result"]
    if fmt == "csv" and command in _WITH_SIDECAR:  # sidecar only for CSV with --out
        expected.append("result.json")
        assert isinstance(json.loads((tmp_path / "result.json").read_text()), dict)
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert (tmp_path / "result").read_text() == printed


def test_every_output_keeps_its_bytes_without_the_pure_python_json_encoder(
        tmp_path, monkeypatch):
    calls = {f"{command}-{fmt}": _EVERY_COMMAND[command] + ["--format", fmt]
             for command in _EVERY_COMMAND for fmt in ("csv", "json")}

    def run_all(directory):
        directory.mkdir()
        for name, argv in calls.items():
            argv = [str(GOLDEN_CONFIGS / a) if a.endswith(".json") else a for a in argv]
            assert main(argv + ["--out", str(directory / name)]) == 0
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    want = run_all(tmp_path / "want")
    assert len(want) == len(calls) + len(_WITH_SIDECAR)  # the CSV sidecars too
    for name, text in want.items():  # JSON as the stdlib lays it out itself
        if name.endswith("json"):
            assert text.decode() == json.dumps(json.loads(text), indent=2,
                                               sort_keys=True) + "\n", name

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python indenting encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    assert run_all(tmp_path / "got") == want


@pytest.mark.parametrize("command", ["validity", "channel"])
@pytest.mark.parametrize("target", ["missing directory", "directory", "sidecar directory"])
def test_an_unwritable_out_ends_in_one_error_line(command, target, tmp_path, capsys):
    out = {"missing directory": tmp_path / "missing" / "x.csv", "directory": tmp_path,
           "sidecar directory": tmp_path / "x.csv"}[target]
    if target == "sidecar directory":
        (tmp_path / "x.csv.json").mkdir()
    argv = [str(GOLDEN_CONFIGS / a) if a.endswith(".json") else a
            for a in _EVERY_COMMAND[command]]
    code = main(argv + ["--out", str(out)])
    printed, err = capsys.readouterr()
    if target == "sidecar directory" and command not in _WITH_SIDECAR:
        assert (code, err) == (0, "")  # no sidecar to write
        return
    assert code == 2 and printed == ""
    assert err.startswith(f"error: cannot write output {out}") and err.count("\n") == 1


# argv for main: the real subcommands, flags and choices (plus one invalid
# choice each), each value either one a user would type for that flag or an
# extreme, from the smallest subnormal to the largest float
_EXTREMES = st.sampled_from(("5e-324", "1e-300", "-1", "0", "1.7e308", "-1.7e308", "nan",
                             "inf", "-inf", "-0.5", "1" + "0" * 30, "1.5"))
_GRIDS = st.one_of(_EXTREMES, st.tuples(_EXTREMES, _EXTREMES, _EXTREMES).map(":".join),
                   st.lists(_EXTREMES, min_size=1, max_size=3).map(",".join))


def _typed(*typical, extremes=_EXTREMES):
    """A typical value of a flag, or (about one time in four) an extreme one."""
    return st.integers(0, 3).flatmap(
        lambda i: extremes if i == 3 else st.sampled_from(typical))


def _grid(*typical):
    return _typed(*typical, extremes=_GRIDS)


def _choice(*names):
    return _typed(*names, extremes=st.just("bogus"))


_CONFIGS = ("ula4", "aosa4", "uca8", "ura2_planar", "custom4", "ula8_fresnel", "missing")
_SNRS = _grid("10", "0:5:10", "-200,300", "0,10,20", "10:-5:0")
_SUBCOMMANDS = {  # subcommand: (takes a config, {flag: value strategy})
    "channel": (True, {}),
    "capacity": (True, {"--snr-db": _SNRS}),
    "sweep": (True, {"--var": _choice(*(v.value for v in SweepVariable)),
                     "--grid": _grid("0.5:0.25:1.5", "0,0.1", "1e9,300e9", "1"),
                     "--snr-db": _SNRS}),
    "optimize": (True, {"--mode": _choice("rotation", "aosa", "angles"),
                        "--k": _typed("1", "2", "3", "65", "66"),
                        "--snr-grid": _SNRS, "--snr-db": _SNRS}),
    "validity": (False, {"--freq-grid": _grid("100e9,300e9", "1e9:1e11:1e12"),
                         "--dist-grid": _grid("1,10", "0.5:0.5:2"),
                         "--tx-aperture": _typed("0.1", "1e-3"),
                         "--rx-aperture": _typed("0.1", "2")}),
    "phase-profile": (False, {"--freq": _typed("300e9", "1e9"),
                              "--distance": _typed("1.8", "100"),
                              "--steps": _typed("3", "11", "101", "1000001"),
                              "--step-size": _typed("1e-4", "1e-3", "0.1"),
                              "--direction": _choice("transverse", "longitudinal")}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    takes_config, flags = _SUBCOMMANDS[command]
    argv = [command]
    if takes_config:
        argv.append(str(GOLDEN_CONFIGS / f"{draw(st.sampled_from(_CONFIGS))}.json"))
    for flag, values in {**flags, "--format": _choice("csv", "json")}.items():
        if draw(st.integers(0, 9)) < 9:  # each flag is present about 9 times in 10
            value = draw(values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} in a JSON output")


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_every_argv_ends_in_a_result_or_one_error_line(argv, tmp_path, capfd):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr outside pytest
        code = main(argv + ["--out", str(out)])
    _, err = capfd.readouterr()  # at the descriptors, where LAPACK writes
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    else:
        assert err == ""
        if "json" in argv or "--format=json" in argv:
            json.loads(out.read_text(), parse_constant=_no_constant)


def _run(argv, tmp_path, capsys):
    """main(argv)'s exit code, stdout, stderr, and the bytes of --out and its
    sidecar (None for a file not written)."""
    files = [tmp_path / "reuse.out", tmp_path / "reuse.out.json"]
    for path in files:
        path.unlink(missing_ok=True)
    code = main([str(GOLDEN_CONFIGS / a) if a.endswith(".json") else a for a in argv])
    printed, err = capsys.readouterr()
    return (code, printed, err) + tuple(p.read_bytes() if p.exists() else None for p in files)


def test_main_reuses_one_parser_across_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage are wrapped to the terminal width
    out = ["--out", str(tmp_path / "reuse.out")]
    calls = [argv + out for argv in _EVERY_COMMAND.values()] + [
        ["frobnicate"], ["sweep", "ula4.json", "--grid=0,1"],
        ["channel", "ula4.json", "--format", "xml"], ["--help"], ["sweep", "--help"],
        ["--version"],
        ["phase-profile", "--freq=300e9", "--distance=1.8", "--steps=11", "--step-size=1e-3",
         "--direction", "longitudinal"],
        ["capacity", "ula4.json", "--snr-db=0,10"],  # to stdout
    ]
    fresh = []
    for argv in calls:  # each call with a parser of its own
        build_parser.cache_clear()
        fresh.append(_run(argv, tmp_path, capsys))
    assert [r[0] for r in fresh] == [0] * len(_EVERY_COMMAND) + [2, 2, 2, 0, 0, 0, 5, 0]
    assert "invalid choice: 'frobnicate'" in fresh[len(_EVERY_COMMAND)][2]

    build_parser.cache_clear()
    assert build_parser() is build_parser()
    order = [i for pair in zip(range(len(calls)), reversed(range(len(calls)))) for i in pair]
    for i in order:  # interleaved, twice each, on the one shared parser
        assert _run(calls[i], tmp_path, capsys) == fresh[i], calls[i]
    assert build_parser.cache_info().currsize == 1


# scene configs for main: every archetype at 1 to 4 elements, with lengths, carriers,
# rotations, offsets and SNRs either typical or extreme (a JSON config can also hold NaN
# and Infinity), each run through every command that takes a config, in both formats
_CONFIG_EXTREMES = (5e-324, 1e-300, 1e-30, -1.0, 0.0, 1e30, 1.7e308, -1.7e308,
                    math.nan, math.inf, -math.inf)
_SNR_DB = st.tuples(st.integers(0, 3), st.floats(-200.0, 300.0), st.sampled_from(
    (-200.0, 300.0, 3079.0, 3090.0, 1e6, -1e6))).map(  # 3079 dB overflows with the array gain
        lambda t: t[2] if t[0] == 3 else t[1])  # (about one time in four) an extreme SNR


def _number(*typical):
    """A typical config number, or (about one time in five) an extreme one."""
    return st.sampled_from(typical * -(-4 * len(_CONFIG_EXTREMES) // len(typical))
                           + _CONFIG_EXTREMES)


def _values(values):
    """A grid of 1 to 3 values, in increasing order unless one is NaN."""
    return st.lists(values, min_size=1, max_size=3).map(
        lambda v: ",".join(map(repr, sorted(set(v)))))


_SIZES = _number(1e-3, 0.0035, 0.035, 0.1, 1.0)
_SNR_GRIDS = st.one_of(_values(_SNR_DB), st.sampled_from(("-200:100:300", "-10:1:20")))
_SWEEP_GRIDS = {"snr": _SNR_GRIDS, "eta": _values(_number(0.0, 0.5, 1.0, 2.0)),
                "freq": _values(_number(1e9, 140e9, 300e9, 10e12)),
                "rotation": _values(_number(0.0, 0.5, math.pi / 2, -1.0)),
                "tilt": _values(_number(0.0, 0.1, 0.5, -1.0)),
                "offset": _values(_number(0.0, 0.01, 1.0, 1e3))}


@st.composite
def _block(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    block = {"type": kind}
    if kind == "custom":  # one point anywhere, or points mirrored through the origin
        point = st.tuples(_number(0.01, 0.035, 1.0), _number(0.0, 0.02), _number(0.0, 1e-3))
        points = [list(p) for p in draw(st.lists(point, min_size=1, max_size=2))]
        if len(points) == 2 or draw(st.booleans()):
            points += [[-c for c in p] for p in points]
        block["positions"] = points
    else:
        block["n"] = draw(st.integers(1, 2 if kind == "ura" else 4))  # ura: n per side
        sizing = ("diameter_m",) if kind == "uca" else ("spacing_m", "aperture_m")
        block[draw(st.sampled_from(sizing))] = draw(_SIZES)
    if kind == "aosa":  # any count from 1 to 4, the divisors of n twice as often
        divisors = [d for d in range(1, block["n"] + 1) if block["n"] % d == 0]
        block["n_subarrays"] = draw(st.sampled_from(divisors + [1, 2, 3, 4]))
        if draw(st.booleans()):
            block["element_spacing_m"] = draw(_number(2.5e-4, 1e-3))
    if draw(st.booleans()):
        block["rotation_deg"] = draw(_number(0.0, 10.0, 45.0, 90.0, -30.0))
    return block


@st.composite
def _config(draw):
    # a third of the configs hold ULAs and a third AOSAs (the optimize modes and the rotation
    # sweep need a pair of them), the rest any two blocks
    kinds = draw(st.sampled_from((("ula",), ("aosa",), [a.value for a in Archetype])))
    doc = {"carrier_hz": draw(_number(300e9, 140e9, 1e9, 10e12)),
           "distance_m": draw(_number(0.5, 5.0, 10.0, 100.0)),
           "model": draw(st.sampled_from([m.value for m in WavefrontModel])),
           "tx": draw(_block(kinds))}
    doc["rx"] = doc["tx"] if draw(st.integers(0, 3)) < 3 else draw(_block(kinds))  # mostly alike
    if draw(st.booleans()):
        doc["snr_db"] = draw(st.one_of(_SNR_DB, st.lists(_SNR_DB, min_size=1, max_size=3)))
    return doc


@st.composite
def _config_commands(draw):
    """Command lines, after the config path, for every command that takes a config; one SNR
    flag value and one SNR grid serve them all."""
    snr, snrs = draw(_SNR_DB), draw(_SNR_GRIDS)

    def maybe(flag):  # each flag is present about 4 times in 5
        return [flag] if draw(st.integers(0, 4)) < 4 else []

    return ([["channel"], ["capacity", *maybe(f"--snr-db={snrs}")]]
            + [["sweep", "--var", var, f"--grid={draw(grid)}", *maybe(f"--snr-db={snr!r}")]
               for var, grid in _SWEEP_GRIDS.items()]
            + [["optimize", "--mode", "rotation", *maybe(f"--snr-db={snr!r}")],
               ["optimize", "--mode", "aosa", *maybe(f"--snr-grid={snrs}")],
               ["optimize", "--mode", "angles", *maybe(f"--snr-grid={snrs}"),
                f"--k={draw(st.integers(1, 4))}"]])


def _rate_rows(text: str, fmt: str):
    """(SE, UB) of every rate row of an output, error rows left out."""
    if fmt == "json":
        stack, rows = [json.loads(text, parse_constant=_no_constant)], []
        while stack:
            node = stack.pop()
            if isinstance(node, dict) and "se_bpshz" in node:
                assert (node["se_bpshz"] is None) == ("error" in node)
                rows += [] if "error" in node else [(node["se_bpshz"], node["ub_bpshz"])]
            stack += node if isinstance(node, list) else (
                node.values() if isinstance(node, dict) else [])
        return rows
    header, *lines = text.splitlines()
    if "se_bpshz" not in header:
        return []
    cols = header.split(",")
    se, ub, rank = (cols.index(c) for c in ("se_bpshz", "ub_bpshz", "active_rank"))
    cells = [line.split(",") for line in lines]
    assert all((c[se] == "nan") == (c[rank] == "0") for c in cells)  # error rows
    return [(float(c[se]), float(c[ub])) for c in cells if c[rank] != "0"]


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_config(), commands=_config_commands())
def test_every_config_ends_in_a_result_or_one_error_line(doc, commands, tmp_path, capfd):
    config, out = tmp_path / "scene.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    for command, fmt in ((c, f) for c in commands for f in ("csv", "json")):
        out.unlink(missing_ok=True)
        argv = [command[0], str(config), *command[1:], "--format", fmt, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr outside pytest
            code = main(argv)
        _, err = capfd.readouterr()  # at the descriptors, where LAPACK writes
        assert code in (0, 2, 3, 4, 5), argv
        if code:
            assert [line for line in err.splitlines() if "error:" in line] == [
                err.splitlines()[-1]], argv
            continue
        assert err == "", argv
        for se, ub in _rate_rows(out.read_text(), fmt):
            assert math.isfinite(se) and math.isfinite(ub) and se <= ub + 1e-9, argv
