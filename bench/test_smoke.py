"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, checks that the printed metrics
are exactly the ones ``BENCHMARK.json`` declares, and shows that the
checker flags a deliberately perturbed output of every job kind.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(workload, trace, tmp_path):
    result, passes = run.run(workload, 7, 0.0, trace, str(tmp_path), tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > len(passes[0].jobs)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _edit_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _edit_json(path, edit):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(doc)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _scale(rows, i, j, factor):
    rows[i][j] = repr(float(rows[i][j]) * factor)


def _flip(regime):
    return "planar" if regime == "spherical" else "spherical"


def _plan(doc):
    return doc["plan"] if isinstance(doc, dict) else doc


# one plausible defect per job kind and format: a conjugated channel entry,
# an inflated bound, a lost sweep row, a shifted phase sample, a flipped regime
CSV_EDITS = {
    "channel": lambda rows: _scale(rows, 1, 3, -1.0),
    "capacity": lambda rows: _scale(rows, 1, 2, 1.01),
    "sweep": lambda rows: rows.pop(),
    "optimize_rotation": lambda rows: _scale(rows, 1, 3, 1.01),
    "optimize_angles": lambda rows: _scale(rows, 1, 3, 1.01),
    "optimize_aosa": lambda rows: _scale(rows, 1, 3, 1.01),
    "phase_profile": lambda rows: rows[2].__setitem__(1, repr(float(rows[2][1]) + 1e-3)),
    "validity": lambda rows: rows[1].__setitem__(2, _flip(rows[1][2])),
}
JSON_EDITS = {
    "channel": lambda doc: doc["im"][0].__setitem__(0, -doc["im"][0][0]),
    "capacity": lambda doc: doc[0].__setitem__("ub_bpshz", doc[0]["ub_bpshz"] * 1.01),
    "sweep": lambda doc: doc.pop(),
    "optimize_rotation": lambda doc: doc["report"].__setitem__(
        "ub_bpshz", doc["report"]["ub_bpshz"] * 1.01),
    "optimize_angles": lambda doc: _plan(doc)[0].__setitem__(
        "ub_bpshz", _plan(doc)[0]["ub_bpshz"] * 1.01),
    "optimize_aosa": lambda doc: _plan(doc)[0].__setitem__(
        "ub_bpshz", _plan(doc)[0]["ub_bpshz"] * 1.01),
    "phase_profile": lambda doc: doc["samples"]["phase_rad"].__setitem__(
        1, doc["samples"]["phase_rad"][1] + 1e-3),
    "validity": lambda doc: doc[0].__setitem__("regime", _flip(doc[0]["regime"])),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_flags_perturbed_outputs(workload, tmp_path):
    losmimo = run.import_package()
    jobs = workloads.generate(workload, 11, 1, str(tmp_path), tiny=True)
    flagged = set()
    for job in jobs:
        assert losmimo.cli.main(job.argv) == 0
        check.check_job(job)  # the untouched output passes
        if job.fmt == "json":
            _edit_json(job.outputs[0], JSON_EDITS[job.kind])
        else:
            _edit_csv(job.outputs[0], CSV_EDITS[job.kind])
        with pytest.raises(check.CheckError):
            check.check_job(job)
        flagged.add((job.kind, job.fmt))
    assert {kind for kind, _ in flagged} == set(workloads.KINDS)


def test_reference_fingerprints_catch_small_changes():
    d = check._Digest()
    d.add([1.0, 2.0, 3.0])
    want = d.fingerprint()
    assert check.fingerprints_match(want, want)
    d2 = check._Digest()
    d2.add([1.0, 2.0, 3.0001])
    assert not check.fingerprints_match(d2.fingerprint(), want)
    d3 = check._Digest()
    d3.add([2.0, 1.0, 3.0])
    assert not check.fingerprints_match(d3.fingerprint(), want)
