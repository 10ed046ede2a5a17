"""The benchmark harness under ``perfbench/`` runs on this checkout's
sources.  Its self-test builds and checks every workload at tiny sizes, so
a change to the structure that breaks the harness (a state that
``copy.deepcopy`` cannot copy, say) fails the test suite too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
