import os
import shutil
import subprocess
import sys

from semistab import __version__

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


def test_a_changed_report_is_named(tmp_path):
    # the same tree with another version string writes another JSON report
    other = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), other,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    init = other / "semistab" / "__init__.py"
    text = init.read_text()
    assert '__version__ = "' in text
    init.write_text(text.replace('__version__ = "', '__version__ = "changed-', 1))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "report_diff.py"), os.path.join(ROOT, "src"),
         str(other), "--specs", "scalar-decay nu=2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: scalar-decay nu=2: json",
        f'  tool.version: "{__version__}" -> "changed-{__version__}"',
        "1 specs, 1 differ; sweep identical; help identical",
    ]
