"""``tools/bench_record.py``: the spread and win counts of a record, and its
refusal to record a run whose outputs were wrong."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _runs(pairs):
    """Runs of alternating sides from (parent metrics, change metrics) pairs."""
    runs = []
    for i, (parent, change) in enumerate(pairs):
        runs.append({"pair": i, "side": "parent", "metrics": parent})
        runs.append({"pair": i, "side": "change", "metrics": change})
    return runs


def test_spread_of_one_run_has_no_width():
    assert bench_record.spread([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "iqr": 0.0}


def test_spread_uses_inclusive_quartiles():
    s = bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}


def test_summarize_counts_wins_by_the_direction_of_each_metric():
    pairs = [
        ({"pass_s": 1.0, "ratio": 0.5}, {"pass_s": 0.5, "ratio": 0.7}),  # change wins both
        ({"pass_s": 1.0, "ratio": 0.5}, {"pass_s": 1.0, "ratio": 0.5}),  # ties: neither side
        ({"pass_s": 1.0, "ratio": 0.5}, {"pass_s": 2.0, "ratio": 0.4}),  # parent wins both
        ({"pass_s": 3.0, "ratio": 0.1}, {"pass_s": 2.5, "ratio": 0.2}),  # change wins both
    ]
    summary = bench_record.summarize(_runs(pairs), {"pass_s": "lower", "ratio": "higher"})
    assert summary["pass_s"]["change_wins"] == 2
    assert summary["ratio"]["change_wins"] == 2
    assert summary["pass_s"]["pairs"] == 4
    assert summary["pass_s"]["parent"]["median"] == 1.0
    assert summary["pass_s"]["change"]["median"] == pytest.approx(1.5)


def test_summarize_treats_unlisted_metrics_as_lower_is_better():
    summary = bench_record.summarize(_runs([({"x": 2.0}, {"x": 1.0})]), {})
    assert summary["x"]["change_wins"] == 1
    assert summary["x"]["parent"]["iqr"] == 0.0


def _fake_tree(tmp_path, correct):
    """A tree whose bench/run.py prints an environment line and a result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    result = {"correct": correct, "attempted": 3, "failed": 0,
              "metrics": {"pass_s": {"value": 0.5}}}
    lines = [json.dumps({"env": {"git_commit": "abc"}}), json.dumps(result)]
    (bench / "run.py").write_text("".join(f"print({line!r})\n" for line in lines))
    return tmp_path


def test_run_once_returns_a_correct_run(tmp_path):
    run = bench_record.run_once(_fake_tree(tmp_path, True), "export", 0, 0)
    assert run["metrics"] == {"pass_s": 0.5}
    assert run["env"] == {"git_commit": "abc"}


def test_run_once_refuses_a_run_with_wrong_output(tmp_path):
    tree = _fake_tree(tmp_path, False)
    with pytest.raises(SystemExit) as exc:
        bench_record.run_once(tree, "optimize_small", 1, 0)
    message = str(exc.value.code)
    assert str(tree) in message and "optimize_small" in message
    assert exc.value.code != 0
