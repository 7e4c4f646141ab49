"""``tools/grid_limit.py``: each row runs at its stated point count, and a run reports the
child's exit code, wall time and peak resident set, the medians of repeated runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from losmimo.cli import _parse_values
from losmimo.config import load_scene_config

_PATH = Path(__file__).resolve().parents[1] / "tools" / "grid_limit.py"
_SPEC = importlib.util.spec_from_file_location("grid_limit", _PATH)
grid_limit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(grid_limit)


def _points(argv) -> int:
    """The points of a row: its grid's, a validity map's cells or, for the 32x32 URA pair,
    its channel's entries."""
    values = dict(a.split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    if Path(argv[1]).name == "ura32.json":
        scene = load_scene_config(argv[1]).scene
        return scene.tx.element_count * scene.rx.element_count
    if argv[0] == "validity":
        return len(_parse_values(values["--freq-grid"], "f")) * len(
            _parse_values(values["--dist-grid"], "d"))
    grid = values.get("--grid") or values.get("--snr-grid") or values["--snr-db"]
    return len(_parse_values(grid, "grid"))


def test_each_row_holds_its_stated_points(tmp_path):
    ura32 = tmp_path / "ura32.json"
    ura32.write_text(json.dumps(grid_limit.URA32))
    rows = grid_limit.rows(str(ura32))
    assert len(rows) == 9
    for name, points, argv in rows:
        assert _points(argv) == points, name


def test_a_run_reports_the_exit_code_time_and_peak_memory():
    src = str(Path(grid_limit.ROOT) / "src")
    code, seconds, rss_mb = grid_limit.run(src, ["--version"])
    assert code == 0 and seconds > 0 and rss_mb > 1
    assert grid_limit.run(src, ["validity"])[0] == 2  # argparse's usage error


def test_repeated_runs_report_medians_of_that_many_processes(monkeypatch):
    waits, wait4 = [], os.wait4
    monkeypatch.setattr(grid_limit.os, "wait4", lambda *a: waits.append(a) or wait4(*a))
    src = str(Path(grid_limit.ROOT) / "src")
    code, seconds, rss_mb = grid_limit.run(src, ["--version"], 3)
    assert len(waits) == 3  # three children, each waited for before the next starts
    assert code == 0 and seconds > 0 and rss_mb > 1
    assert grid_limit.run(src, ["validity"], 2)[0] == 2
    with pytest.raises(SystemExit):
        grid_limit.main(["--repeat", "0"])
