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


def test_report_lines_give_medians_change_iqr_and_wins_per_listed_metric():
    pairs = [({"pass_s": 1.0, "x": 1.0}, {"pass_s": 0.8, "x": 1.0}),
             ({"pass_s": 1.2, "x": 1.0}, {"pass_s": 0.9, "x": 1.0}),
             ({"pass_s": 1.1, "x": 1.0}, {"pass_s": 1.2, "x": 1.0})]
    summary = bench_record.summarize(_runs(pairs), {})
    assert bench_record.report_lines(summary, ["pass_s", "absent"]) == [
        "pass_s: parent 1.1 -> change 0.9 (-18.2%), parent IQR 0.1, change wins 2/3"]


def test_main_prints_one_line_per_listed_metric_after_recording(tmp_path, capsys):
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        trees.append(_fake_tree(tmp_path / side, True))
    spec = {"end_to_end": [{"name": "pass_s", "better": "lower"}],
            "per_layer": [{"name": "channel.self_s", "better": "lower"}]}
    (trees[1] / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees[0]), "--change", str(trees[1]), "--workload", "export",
            "--pairs", "2", "--out", str(out)]
    assert bench_record.main(argv) == 0
    assert len(json.loads(out.read_text())["records"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == ["export seed 0 trace 0, 2 pairs:",
                        "  pass_s: parent 0.5 -> change 0.5 (+0.0%), parent IQR 0, "
                        "change wins 0/2"]


def test_main_refuses_trees_at_paths_of_different_lengths_before_any_run(tmp_path):
    trees = []
    for side in ("parent", "changed"):
        (tmp_path / side).mkdir()
        trees.append(_fake_tree(tmp_path / side, True))
    # a run would leave this file behind
    run_py = trees[0] / "bench" / "run.py"
    run_py.write_text("open('ran', 'w').close()\n" + run_py.read_text())
    (trees[1] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees[0]), "--change", str(trees[1]), "--workload", "export",
            "--pairs", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code != 0
    message = str(exc.value.code)
    assert str(trees[0].resolve()) in message and str(trees[1].resolve()) in message
    assert not (trees[0] / "ran").exists() and not out.exists()


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("cached", ["src/losmimo/__pycache__", "src/losmimo/old.pyc"])
def test_main_refuses_a_tree_with_bytecode_under_src_before_any_run(tmp_path, side, cached):
    trees = {}
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
        trees[name] = _fake_tree(tmp_path / name, True)
        (trees[name] / "src" / "losmimo").mkdir(parents=True)
        (trees[name] / "src" / "losmimo" / "__init__.py").write_text("")
        run_py = trees[name] / "bench" / "run.py"  # a run would leave this file behind
        run_py.write_text("open('ran', 'w').close()\n" + run_py.read_text())
    bytecode = trees[side] / cached
    if bytecode.suffix == ".pyc":
        bytecode.write_bytes(b"")
    else:
        bytecode.mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--workload", "export", "--pairs", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code != 0
    assert str(bytecode.resolve()) in str(exc.value.code)
    assert not any((tree / "ran").exists() for tree in trees.values()) and not out.exists()


def test_record_keeps_both_resolved_tree_paths(tmp_path):
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        trees.append(_fake_tree(tmp_path / side, True))
    (trees[1] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees[0] / "." / ".." / "parent"), "--change", str(trees[1]),
            "--workload", "export", "--pairs", "1", "--out", str(out)]
    assert bench_record.main(argv) == 0
    record = json.loads(out.read_text())["records"][0]
    assert record["trees"] == {"parent": str(trees[0].resolve()),
                               "change": str(trees[1].resolve())}
