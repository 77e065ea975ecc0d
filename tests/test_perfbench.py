"""The benchmark reads solver results by attribute name (`reachable`,
`states`, `moves`, `answer`, `distance`, `jumps`, `conflicts`) and
rebuilds them with `dataclasses.replace`.  Its self-test hands each of
its output checks a genuine and a tampered result, so renaming any of
those attributes fails here, in the test suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    child = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
