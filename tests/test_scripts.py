"""Smoke tests of the scripts under scripts/: each runs at a small size and exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import disclab

ROOT = Path(__file__).resolve().parents[1]

KERNEL_ROWS = ("random", "grid-65", "stack", "grid-513", "spline-1000", "spline-grid-129", "lift")


def test_benchmark_kernels_prints_one_line_per_row():
    # the script imports private flows and kernels API that no test
    # imports the same way; a rename there breaks it here, not silently
    src = str(Path(disclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_kernels.py"),
         "--points", "2000", "--steps", "50", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split(":")[0].strip() for line in out.stdout.splitlines()[1:]]
    assert tuple(rows) == KERNEL_ROWS
