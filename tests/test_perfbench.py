"""The benchmark's answer checks, run against this checkout.

perfbench/ holds the benchmark and its own validator suite; running that
suite here means a change to certificate JSON or CLI output that the
benchmark would reject fails the ordinary test run too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_validator_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
