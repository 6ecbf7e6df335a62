import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

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
    assert proc.stdout.splitlines()[-2:] == ["2 specs, 0 differ; sweep identical; help identical",
                                             "summary: 0 non-float moved; no float moved"]


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
        "summary: 1 non-float moved; no float moved",
    ]


def _report_diff_module():
    spec = importlib.util.spec_from_file_location(
        "_report_diff", os.path.join(ROOT, "tools", "report_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moved_entry_rows_are_named(tmp_path):
    # the same tree with another name for the exact status writes another
    # entry CSV, and the row that moved is printed under the JSON leaves
    other = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), other,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    module = other / "semistab" / "entrytime.py"
    text = module.read_text()
    assert 'STATUS_EXACT = "exact"\n' in text
    module.write_text(text.replace('STATUS_EXACT = "exact"\n', 'STATUS_EXACT = "exactly"\n', 1))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "report_diff.py"), os.path.join(ROOT, "src"),
         str(other), "--specs", "scalar-decay nu=2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: scalar-decay nu=2: entry.csv, json",
        "  entry.statuses.exact: 1 -> (absent)",
        "  entry.statuses.exactly: (absent) -> 1",
        "  entry.csv r=0: 0,0.500000003725,exact -> 0,0.500000003725,exactly",
        "differs: sweep: csv",
        "1 specs, 1 differ; sweep differs; help identical",
        "summary: 3 non-float moved; no float moved",
    ]


def test_moved_rows_show_t_and_u():
    moved_rows = _report_diff_module().moved_rows
    a = "r,t_r,u_r,status\n0,0,12,exact\n1,12,0.1655,bisected\n2,12.1655,,bisected\n"
    b = "r,t_r,u_r,status\n0,0,12.1,exact\n1,12.1,0.0655,bisected\n2,12.1655,,bisected\n"
    assert moved_rows(a, b) == ["entry.csv r=0: 0,12 -> 0,12.1", "entry.csv r=1: 12,0.1655 -> 12.1,0.0655"]
    assert moved_rows(a, a) == []
    assert moved_rows(a, None)[0] == "entry.csv r=0: 0,12,exact -> (absent)"


def test_moved_stderr_lines_are_named(tmp_path):
    # the same tree with another wording of an error writes another stderr,
    # for the analysis and for the sweep, and both lines are printed.  The
    # second case shows that --rmax reaches analyze and the sweep: at 4
    # both refuse it
    cases = [
        ("models.py", "unknown model kind {kind!r}", "no model kind {kind!r}", "bogus x=1", [],
         ["error: unknown model kind 'bogus' (at position 0)"
          " -> error: no model kind 'bogus' (at position 0)",
          "bogus x=1: unknown model kind 'bogus' (at position 0)"
          " -> bogus x=1: no model kind 'bogus' (at position 0)"]),
        ("cli.py", "--rmax must be at least", "--rmax must reach", "scalar-decay nu=2",
         ["--rmax", "4"],
         ["error: --rmax must be at least 16 for classification"
          " -> error: --rmax must reach 16 for classification"] * 2),
    ]
    for k, (module_name, old, new, spec, options, moved) in enumerate(cases):
        other = tmp_path / str(k) / "src"
        shutil.copytree(os.path.join(ROOT, "src"), other,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        module = other / "semistab" / module_name
        text = module.read_text()
        assert text.count(old) == 1
        module.write_text(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "report_diff.py"),
             os.path.join(ROOT, "src"), str(other), "--specs", spec, *options],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            f"differs: {spec}: stderr",
            f"  stderr: {moved[0]}",
            "differs: sweep: stderr",
            f"  stderr: {moved[1]}",
            "1 specs, 1 differ; sweep differs; help identical",
            "summary: 2 non-float moved; no float moved",
        ]


def test_moved_lines_pair_the_nth_lines():
    moved_lines = _report_diff_module().moved_lines
    assert moved_lines("stderr", "a\nb\n", "a\nc\n") == ["stderr: b -> c"]
    assert moved_lines("stdout", "a\n", "a\nb\n") == ["stdout: (absent) -> b"]
    assert moved_lines("exit", 0, 3) == ["exit: 0 -> 3"]
    assert moved_lines("stderr", "same\n", "same\n") == []


def test_moves_count_non_floats_and_rank_floats():
    moves = _report_diff_module().moves
    doc = lambda kind, value, t: ('{"pazy": {"criteria": [{"kind": "%s", "value": %r}]}, '
                                  '"entry": {"t_last": %r, "statuses": {"exact": 1}}}' % (kind, value, t))
    csv = lambda t, status: f"r,t_r,u_r,status\n0,0,{t},exact\n1,{t},,{status}\n"
    a = {"exit": 0, "stderr": "", "json": doc("value", 2.0, 8.0), "entry.csv": csv(8, "bisected")}
    assert moves("m", a, dict(a)) == (0, [])
    # a float leaf and a CSV time moved: their relative moves, nothing else
    b = dict(a, json=doc("value", 2.0 + 4e-9, 8.0), **{"entry.csv": csv(8.000001, "bisected")})
    count, floats = moves("m", a, b)
    assert count == 0
    assert {where: rel for rel, where in floats} == pytest.approx({
        "m: pazy.criteria[0].value": 2e-9, "m: entry.csv r=0 u_r": 1.25e-7,
        "m: entry.csv r=1 t_r": 1.25e-7})
    # a kind, a status, a float that turned text, and an exit code are non-float moves
    c = dict(a, exit=3, json=doc("divergent", 2.0, 8.0).replace("8.0", '"inf"'),
             **{"entry.csv": csv(8, "widened")})
    assert moves("m", a, c) == (4, [])
    # so is a CSV time that turned infinite with its status unchanged
    assert moves("m", a, dict(a, **{"entry.csv": csv("inf", "bisected")})) == (2, [])
