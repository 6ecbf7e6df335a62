"""Real CLI output passes the benchmark's independent reference checks.

``perfbench/selftest.py`` analyzes one model of each benchmark kind through
the CLI, checks the reports against references computed without semistab
(closed forms, scipy matrix exponentials, dense SVD), and checks that
perturbed reports are rejected.  The benchmark's span tracer, which wraps
semistab functions by name, installs and leaves the output unchanged.
"""

import importlib.util
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


def test_traced_analysis_is_byte_identical(tmp_path):
    # --trace 1 looks functions up by name; a renamed or deleted one makes
    # Tracer.install raise.  The report records the CSV's base name, so both
    # runs write the same file name, in two directories
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from semistab import cli

    argv = ["analyze", "--model", "matrix [[-1,10],[0,-1]]", "--rmax", "20", "--out"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    assert cli.main(argv + [str(plain / "j10")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.run_analysis(0, lambda: cli.main(argv + [str(traced / "j10")])) == 0
    finally:
        tracer.uninstall()
    assert tracer.round_metrics()["numerics.expm_calls"] > 0
    for name in ("j10.json", "j10.entry.csv"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes()
