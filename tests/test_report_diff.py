import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_tree_against_itself_has_no_difference():
    src = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "report_diff.py"), src, src,
         "--specs", "scalar-decay nu=2", "gaussian-shift"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 specs, 0 differ; sweep identical; help identical"
