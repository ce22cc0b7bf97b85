"""The benchmark's output checks still accept good outputs and reject bad
ones (bench/selftest.py), so a check that rots fails the test suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
