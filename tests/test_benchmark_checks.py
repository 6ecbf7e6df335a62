"""Real CLI output passes the benchmark's independent reference checks.

``perfbench/selftest.py`` analyzes one model of each benchmark kind through
the CLI, checks the reports against references computed without semistab
(closed forms, scipy matrix exponentials, dense SVD), and checks that
perturbed reports are rejected.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_selftest_passes():
    pytest.importorskip("scipy")  # the 4x4 matrix references use scipy.linalg.expm
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
