"""The benchmark's own self-test, run as part of the suite.

perfbench/layers.py wraps package functions by name (for example
maker.find_closing_pair and rotation.advance_tracked_path) to time each
layer, so a change under src/ that renames or moves one of them breaks
the traced benchmark.  perfbench/selftest.py plays every workload at
n = 60, traced and untraced, and reports each broken check.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "0 problem(s)", out.stdout
