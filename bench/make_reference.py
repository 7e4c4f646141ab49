"""Rewrite the reference outputs that ``run.py`` compares against.

Runs the warm-up pass and the first timed pass of every workload at the
reference seed and stores a fingerprint of each job's output (see
``check.py``) in ``reference/<workload>.json``.  Run it from the root of a
checkout, only when an output format or a result is meant to change::

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    out_dir = run.BENCH / "reference"
    out_dir.mkdir(exist_ok=True)
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for workload in run.workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="ref-", dir=scratch)
        try:
            # seconds=0: the warm-up pass and one timed pass
            result, passes = run.run(workload, run.REFERENCE_SEED, 0.0, False, workdir,
                                     reference_check=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not result["correct"]:
            print(f"{workload}: outputs fail their checks; no reference written", file=sys.stderr)
            return 1
        doc = {
            "seed": run.REFERENCE_SEED,
            "passes": {str(p.index): p.fingerprints for p in passes[: run.REFERENCE_PASSES]},
        }
        with open(out_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {sum(len(p.fingerprints) for p in passes)} outputs")
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
