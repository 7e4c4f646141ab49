"""Each demo prints exactly the output recorded in ``tests/golden/demos``.

The recordings were made from a ``git archive`` copy of commit 274f939 with
``PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt``;
rerecord one only when a change to that demo's output is intended.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_prints_its_recorded_output(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (RECORDED / f"{demo}.txt").read_bytes()

