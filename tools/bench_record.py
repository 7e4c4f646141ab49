"""Record a parent/change benchmark comparison in a ``BENCH_*.json`` file.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --parent ../parent --change . \\
        --workload export --seed 0 --pairs 10 --out BENCH_N.json

``--parent`` and ``--change`` are two source trees that each hold ``bench/``
and ``src/`` (for example a ``git clone`` of the parent commit, and this
checkout).  The script runs ``python3 bench/run.py --workload W --seed S
--trace X`` in each tree ``--pairs`` times, one run at a time, at the run
length the benchmark sets, alternating which side of a pair runs first.  It
keeps every run's environment line (whose ``git_commit`` names the tree when
it is a git checkout) and result, and per metric the median, the quartiles and
the interquartile range (IQR) of each side, plus the number of pairs the
change won (ties count for neither side; "better" comes from the change
tree's ``BENCHMARK.json``).  The record is appended to the ``--out`` file,
so one file keeps every comparison run.  Then each metric of the record that
``BENCHMARK.json`` lists (the end-to-end ones, or the per-layer ones of a
``--trace 1`` record) is printed to stderr as one line: parent and change
medians, relative change, parent IQR and wins.  A run whose outputs fail the
benchmark's checks (``"correct": false``) stops the script with a non-zero
exit that names the tree and the workload.  So does, before the first run, a
pair of trees whose resolved paths differ in length, or a tree that holds
bytecode (a ``__pycache__`` directory or a ``*.pyc`` file) under ``src/``;
the record keeps both paths.  Neither tree's benchmark is modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench run failed in {tree} ({proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"bench run in {tree} gave wrong output on workload {workload} "
                         f"(seed {seed}, trace {trace}); no record written")
    return {
        "env": json.loads(lines[-2])["env"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def check_trees(trees: dict):
    """Stop unless both trees sit at paths of equal length and hold no bytecode under
    ``src/``.  The harness's ``peak_rss_mb`` settles on one of two levels a megabyte or
    two apart, and the level follows the length of the checkout's path, not the code.
    A tree with cached bytecode imports its unchanged modules without compiling them,
    which moves ``setup_s``."""
    parent, change = str(trees["parent"]), str(trees["change"])
    if len(parent) != len(change):
        raise SystemExit(f"the trees' paths differ in length ({len(parent)} vs {len(change)} "
                         f"characters), which moves peak_rss_mb: parent {parent}, "
                         f"change {change}; put both at paths of equal length")
    for side, tree in trees.items():
        for path in sorted((tree / "src").rglob("*")):
            if path.name == "__pycache__" or path.suffix == ".pyc":
                raise SystemExit(f"the {side} tree holds bytecode at {path}, which moves "
                                 f"setup_s; remove it")


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict) -> dict:
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    summary = {}
    for name in by_side["change"][0]["metrics"]:
        parent = [r["metrics"][name] for r in by_side["parent"]]
        change = [r["metrics"][name] for r in by_side["change"]]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        summary[name] = {"parent": spread(parent), "change": spread(change),
                         "change_wins": wins, "pairs": len(change)}
    return summary


def report_lines(summary: dict, names: list[str]) -> list[str]:
    """One line per metric of ``names`` in ``summary``: the two medians, the relative
    change of the median, the parent's IQR and the pairs the change won."""
    lines = []
    for name in names:
        if name not in summary:
            continue
        s = summary[name]
        parent, change = s["parent"]["median"], s["change"]["median"]
        rel = f"{(change - parent) / parent:+.1%}" if parent else "n/a"
        lines.append(f"{name}: parent {parent:.4g} -> change {change:.4g} ({rel}), "
                     f"parent IQR {s['parent']['iqr']:.4g}, "
                     f"change wins {s['change_wins']}/{s['pairs']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    check_trees(trees)
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(trees[side], args.workload, args.seed, args.trace)
            runs.append({"pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: failed {run['failed']}/{run['attempted']}",
                  file=sys.stderr, flush=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--trace {args.trace}",
        "trees": {side: str(tree) for side, tree in trees.items()},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    doc = {"records": []}
    if args.out.is_file():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["records"].append(record)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed} trace {args.trace}, {args.pairs} pairs:",
          file=sys.stderr)
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for line in report_lines(record["summary"], listed):
        print(f"  {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
