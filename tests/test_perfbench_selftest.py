"""The benchmark's toy-size self-test runs green against this package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_perfbench_selftest():
    out = subprocess.run([sys.executable, os.path.join("perfbench",
                                                       "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr[-2000:]
