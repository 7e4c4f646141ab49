"""Each demo prints exactly the output recorded in ``tests/golden/demos``, and the
README's library quickstart runs.

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


def test_readme_quickstart_runs(capsys):
    # the first python block of README.md, so the public example cannot go stale silently
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 21  # report, rotation, plan rows
    assert lines[0] == "13.837726402667101 4"
