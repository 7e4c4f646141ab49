"""Time the CLI at its grid limit: each row of the grid-limit table in a fresh process.

Usage, from the root of a checkout::

    python3 tools/grid_limit.py [--src DIR] [--repeat N] [ROW ...]

Each row runs ``python3 -m losmimo ARGV`` N times (default 1), each in a fresh process,
one process at a time, with ``DIR`` (default: this checkout's ``src/``) on ``PYTHONPATH``
and stdout going to the null device.  It prints one line per row: the row's name, its
point count, its exit code (the first non-zero one of its runs, else 0), the wall time
from start to exit (interpreter start and import included) and the peak resident set of
the process (``ru_maxrss``), each the median of the row's N runs.  ROW arguments pick
rows whose name contains one of them (every row when none is given).

Rows use the golden 4x4 ULA config, the golden ``aosa8`` config for aosa mode, and a
broadside 32x32 URA pair (1,024 elements a side, so 2^20, about 10^6, channel entries)
written to a temporary directory: its ``channel`` rows write that matrix, and its
``capacity`` row sends it through the singular values at one SNR.  Grid steps are powers of
two, so each grid holds exactly its stated number of points.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "tests" / "golden" / "configs"


def _grid(start: float, step: float, count: int) -> str:
    return f"{start!r}:{step!r}:{start + (count - 1) * step!r}"


SNR_GRID = _grid(-100.0, 2.0 ** -12, 10 ** 6)  # -100 to ~144 dB
ANGLES_GRID = _grid(-100.0, 2.0 ** -9, 100_001)  # -100 to ~95 dB
OFFSET_GRID = _grid(0.0, 2.0 ** -20, 10 ** 6)  # 0 to ~0.95 m
URA32 = {"carrier_hz": 300e9, "distance_m": 5.0, "model": "spherical",
         "tx": {"type": "ura", "n": 32, "spacing_m": 0.035},
         "rx": {"type": "ura", "n": 32, "spacing_m": 0.035}}


def rows(ura32: str) -> list[tuple[str, int, list[str]]]:
    """(name, points, argv) of each row of the table."""
    ula4, aosa8 = str(CONFIGS / "ula4.json"), str(CONFIGS / "aosa8.json")
    return [
        ("capacity", 10 ** 6, ["capacity", ula4, f"--snr-db={SNR_GRID}"]),
        ("sweep --var snr", 10 ** 6, ["sweep", ula4, "--var", "snr", f"--grid={SNR_GRID}"]),
        ("sweep --var offset", 10 ** 6,
         ["sweep", ula4, "--var", "offset", f"--grid={OFFSET_GRID}", "--snr-db=10"]),
        ("optimize --mode aosa", 10 ** 6,
         ["optimize", aosa8, "--mode", "aosa", f"--snr-grid={SNR_GRID}"]),
        ("optimize --mode angles --k 3", 100_001,
         ["optimize", ula4, "--mode", "angles", "--k", "3", f"--snr-grid={ANGLES_GRID}"]),
        ("validity", 10 ** 6, ["validity", "--freq-grid=1e9:1e9:1e12", "--dist-grid=1:1:1000",
                               "--tx-aperture=0.1", "--rx-aperture=0.1"]),
        ("channel 32x32 URA csv", 32 ** 4, ["channel", ura32]),
        ("channel 32x32 URA json", 32 ** 4, ["channel", ura32, "--format", "json"]),
        ("capacity 32x32 URA", 32 ** 4, ["capacity", ura32, "--snr-db=10"]),
    ]


def run(src: str, argv: list[str], repeat: int = 1) -> tuple[int, float, float]:
    """Exit code, wall seconds and ``ru_maxrss`` in MB of ``python3 -m losmimo ARGV`` run
    ``repeat`` times, one process at a time: the first non-zero exit code (else 0) and the
    median time and memory."""
    env, runs = {**os.environ, "PYTHONPATH": src}, []
    for _ in range(repeat):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "losmimo", *argv], env=env,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        runs.append((proc.returncode, seconds, usage.ru_maxrss / 1024.0))
    codes, seconds, rss_mb = zip(*runs)
    return (next((c for c in codes if c), 0), statistics.median(seconds),
            statistics.median(rss_mb))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each row, whose medians are printed (default 1)")
    parser.add_argument("row", nargs="*", help="run only rows whose name contains one of these")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src, failed = str(Path(args.src).resolve()), 0
    with tempfile.TemporaryDirectory() as tmp:
        ura32 = str(Path(tmp) / "ura32.json")
        Path(ura32).write_text(json.dumps(URA32))
        for name, points, cli_argv in rows(ura32):
            if args.row and not any(r in name for r in args.row):
                continue
            code, seconds, rss_mb = run(src, cli_argv, args.repeat)
            failed += code != 0
            print(f"{name:30s} {points:>9,d} points  exit {code}  {seconds:6.2f} s  "
                  f"{rss_mb:6.1f} MB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
