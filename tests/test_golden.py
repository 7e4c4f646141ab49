"""Byte-for-byte comparison of CLI outputs with recorded golden files.

Each case runs one CLI command on a small scene config from
``tests/golden/configs`` and compares every file it writes with the file of
the same name in ``tests/golden``.  Outputs must match byte for byte,
except the capacity bound ``ub_bpshz``, which must agree to 1e-12
relative.

The golden files were recorded by running this module as a script from the
repository root, ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``
(no case names: every case), on the code of these commits:

* every case not named below: the code as it was before the optimizers and
  sweeps shared one evaluation path (when the bound still came from a
  golden-section search), commit 2384391;
* ``capacity_ura2_unsorted``, ``optimize_angles_k3_ula4`` and
  ``optimize_angles_k1_ula8_fresnel``: commit f54810c, before ``capacity``
  took one spectrum per scene and ``optimize --mode angles`` one rotation
  grid per job;
* ``sweep_freq_error_csv``, ``sweep_offset_error_csv`` and
  ``sweep_tilt_degenerate_csv``: re-recorded on purpose by the child of
  commit 274f939, which writes the full error text of an error row into the
  CSV ``config_descriptor`` (it used to stop at the exception class name);
  only their error rows changed.

Do not rerecord them to make a changed output pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from losmimo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "configs"
UB_RTOL = 1e-12
SNRS = "--snr-grid=-10:5:20"

# name -> (config or None, command line after the config, format)
CASES = {
    "capacity_ula4": ("ula4", ["capacity", "--snr-db=-10:5:20"], "csv"),
    "capacity_ula8_fresnel": ("ula8_fresnel", ["capacity", "--snr-db=-10:5:20"], "json"),
    "capacity_ura2_planar": ("ura2_planar", ["capacity"], "csv"),
    "capacity_uca8": ("uca8", ["capacity", "--snr-db=-20,0,30"], "json"),
    "capacity_aosa8": ("aosa8", ["capacity", "--snr-db=-10:10:30"], "csv"),
    "capacity_custom4": ("custom4", ["capacity", "--snr-db=-5,5,15"], "json"),
    "capacity_rotated": ("ula4_rotated", ["capacity"], "csv"),
    "capacity_ura2_unsorted": ("ura2_planar", ["capacity", "--snr-db=20,-10,20,0"], "json"),
    "sweep_snr_ula4": ("ula4", ["sweep", "--var", "snr", "--grid=-10:2:20"], "csv"),
    "sweep_snr_ula8_fresnel": ("ula8_fresnel", ["sweep", "--var", "snr", "--grid=-30:7.5:30"], "json"),
    "sweep_eta_ula4": ("ula4", ["sweep", "--var", "eta", "--grid=0:0.125:2", "--snr-db=10"], "csv"),
    "sweep_eta_rotated": ("ula4_rotated", ["sweep", "--var", "eta", "--grid=0:0.25:2"], "json"),
    "sweep_eta_ura2": ("ura2_planar", ["sweep", "--var", "eta", "--grid=0.5:0.5:3", "--snr-db=0"], "json"),
    "sweep_eta_error": ("ula8_fresnel", ["sweep", "--var", "eta", "--grid=-1,0,1,1e300", "--snr-db=3"], "json"),
    "sweep_eta_uca8": ("uca8", ["sweep", "--var", "eta", "--grid=0.25:0.25:2", "--snr-db=5"], "csv"),
    "sweep_freq_ula4": ("ula4", ["sweep", "--var", "freq", "--grid=100e9:50e9:400e9", "--snr-db=10"], "csv"),
    "sweep_freq_error_json": ("ula4", ["sweep", "--var", "freq", "--grid=1e-300,1e9,300e9", "--snr-db=10"], "json"),
    "sweep_freq_error_csv": ("ula4", ["sweep", "--var", "freq", "--grid=1e-300,1e9,300e9", "--snr-db=10"], "csv"),
    "sweep_rotation_ula4": ("ula4", ["sweep", "--var", "rotation", "--grid=0:0.1:1.5", "--snr-db=0"], "csv"),
    "sweep_rotation_degenerate": ("ula4_close", ["sweep", "--var", "rotation", "--grid=0:0.3:1.5", "--snr-db=10"], "json"),
    "sweep_rotation_ula8_fresnel": ("ula8_fresnel", ["sweep", "--var", "rotation", "--grid=0:0.05:1.55", "--snr-db=10"], "json"),
    "sweep_tilt_rotated": ("ula4_rotated", ["sweep", "--var", "tilt", "--grid=-1.5:0.25:1.5"], "csv"),
    "sweep_tilt_degenerate_json": ("ula4_close", ["sweep", "--var", "tilt", "--grid=0:0.2:1.6", "--snr-db=10"], "json"),
    "sweep_tilt_degenerate_csv": ("ula4_close", ["sweep", "--var", "tilt", "--grid=0:0.2:1.6", "--snr-db=10"], "csv"),
    "sweep_offset_ula4": ("ula4", ["sweep", "--var", "offset", "--grid=-0.5:0.125:0.5", "--snr-db=10"], "csv"),
    "sweep_offset_rotated": ("ula4_rotated", ["sweep", "--var", "offset", "--grid=-0.2:0.1:0.2"], "json"),
    "sweep_offset_error_json": ("ula4", ["sweep", "--var", "offset", "--grid=0,1,1e300", "--snr-db=10"], "json"),
    "sweep_offset_error_csv": ("ula4", ["sweep", "--var", "offset", "--grid=0,1,1e300", "--snr-db=10"], "csv"),
    "optimize_rotation_ula4": ("ula4", ["optimize", "--mode", "rotation"], "csv"),
    "optimize_rotation_ula8_fresnel": ("ula8_fresnel", ["optimize", "--mode", "rotation", "--snr-db=0"], "json"),
    "optimize_rotation_rotated": ("ula4_rotated", ["optimize", "--mode", "rotation", "--snr-db=-5"], "csv"),
    "optimize_aosa4": ("aosa4", ["optimize", "--mode", "aosa", SNRS], "csv"),
    "optimize_aosa8": ("aosa8", ["optimize", "--mode", "aosa", SNRS], "json"),
    "optimize_angles_ula4": ("ula4", ["optimize", "--mode", "angles", "--k", "2", SNRS], "csv"),
    "optimize_angles_ula8_fresnel": ("ula8_fresnel", ["optimize", "--mode", "angles", "--k", "2", SNRS], "json"),
    "optimize_angles_k4": ("ula4_rotated", ["optimize", "--mode", "angles", "--k", "4", "--snr-grid=-10:10:20"], "json"),
    "optimize_angles_k3_ula4": ("ula4", ["optimize", "--mode", "angles", "--k", "3", "--snr-grid=-10:1:20"], "csv"),
    "optimize_angles_k1_ula8_fresnel": ("ula8_fresnel", ["optimize", "--mode", "angles", "--k", "1", "--snr-grid=-10:1:20"], "json"),
    "channel_ula4": ("ula4", ["channel"], "csv"),
    "channel_ula8_fresnel": ("ula8_fresnel", ["channel"], "json"),
    "channel_ura2_planar": ("ura2_planar", ["channel"], "csv"),
    "channel_rotated": ("ula4_rotated", ["channel"], "json"),
    "validity_csv": (None, ["validity", "--freq-grid=10e9:40e9:300e9", "--dist-grid=1:1.5:10",
                            "--tx-aperture", "0.3", "--rx-aperture", "0.2"], "csv"),
    "validity_json": (None, ["validity", "--freq-grid=60e9,140e9", "--dist-grid=0.5:0.5:3",
                             "--tx-aperture", "0.1", "--rx-aperture", "0.25"], "json"),
    "phase_profile_transverse": (None, ["phase-profile", "--freq", "140e9", "--distance", "2",
                                        "--steps", "41", "--step-size", "0.0005"], "csv"),
    "phase_profile_longitudinal": (None, ["phase-profile", "--freq", "300e9", "--distance", "1",
                                          "--steps", "25", "--step-size", "0.0002",
                                          "--direction", "longitudinal"], "json"),
}


def _argv(case, out: Path) -> list[str]:
    config, command, fmt = CASES[case]
    argv = list(command)
    if config is not None:
        argv.insert(1, str(CONFIGS / f"{config}.json"))
    return argv + ["--format", fmt, "--out", str(out)]


def _run(case, directory: Path) -> dict[str, bytes]:
    """Run one case; returns every file it wrote, by golden file name."""
    fmt = CASES[case][2]
    out = directory / f"{case}.{fmt}"
    assert main(_argv(case, out)) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name.startswith(f"{case}.")}


def _close(got, want) -> bool:
    return math.isclose(float(got), float(want), rel_tol=UB_RTOL, abs_tol=0.0)


def _same_csv(got: str, want: str) -> bool:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return False
    header = want_rows[0]
    for g, w in zip(got_rows[1:], want_rows[1:]):
        if len(g) != len(w):
            return False
        for name, a, b in zip(header, g, w):
            if not (a == b or (name == "ub_bpshz" and _close(a, b))):
                return False
    return True


def _same_json(got, want, key=None) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same_json(got[k], want[k], k) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_json(g, w, key) for g, w in zip(got, want)))
    if key == "ub_bpshz" and isinstance(want, float) and isinstance(got, float):
        return _close(got, want)
    return type(got) is type(want) and got == want


def _matches(name: str, got: bytes, want: bytes) -> bool:
    if got == want:
        return True
    # only ub_bpshz may differ; everything else must still be identical
    if name.endswith(".csv"):
        return _same_csv(got.decode(), want.decode())
    if _same_json(json.loads(got), json.loads(want)):
        # and the text apart from those numbers keeps its layout
        return len(got.splitlines()) == len(want.splitlines())
    return False


def _pure_python_encoder(*args, **kwargs):
    raise AssertionError("the pure-Python indenting JSON encoder ran")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    # every document goes through the C encoder: the stdlib's indenting one must not run
    monkeypatch.setattr(json.encoder, "_make_iterencode", _pure_python_encoder)
    outputs = _run(case, tmp_path)
    want_names = sorted(p.name for p in GOLDEN.glob(f"{case}.*"))
    assert sorted(outputs) == want_names
    for name, got in outputs.items():
        assert _matches(name, got, (GOLDEN / name).read_bytes()), name


def test_golden_sweep_error_rows_carry_constructor_messages():
    offsets = json.loads((GOLDEN / "sweep_offset_error_json.json").read_text())
    assert offsets[2]["error"] == "InvalidArgumentError: distances must be finite and positive"
    freqs = json.loads((GOLDEN / "sweep_freq_error_json.json").read_text())
    assert freqs[0]["error"] == (
        "InvalidArgumentError: wavelength_m must be positive and finite, got inf"
    )
    for doc in (offsets, freqs):
        assert sum("error" in row for row in doc) == 1
    # CSV error rows carry the same text, commas turned into semicolons
    for case in ("sweep_offset_error", "sweep_freq_error", "sweep_tilt_degenerate"):
        rows = json.loads((GOLDEN / f"{case}_json.json").read_text())
        descriptors = [r[-1] for r in csv.reader(io.StringIO(
            (GOLDEN / f"{case}_csv.csv").read_text()))][1:]
        assert len(descriptors) == len(rows)
        for row, descriptor in zip(rows, descriptors):
            want = row["config_descriptor"]
            if "error" in row:
                want += " " + row["error"].replace(",", ";")
            assert descriptor == want


def _record(cases):
    """Write the golden files of ``cases`` (default: every case) from the
    code on the import path."""
    for case in cases or sorted(CASES):
        for old in GOLDEN.glob(f"{case}.*"):
            old.unlink()
        fmt = CASES[case][2]
        code = main(_argv(case, GOLDEN / f"{case}.{fmt}"))
        if code != 0:
            sys.exit(f"{case}: exit code {code}")


if __name__ == "__main__":
    _record(sys.argv[1:])
