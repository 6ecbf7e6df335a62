"""tools/stage_times.py counts what the counting wrapper of the tests counts."""

import os
import re
import subprocess
import sys

import semistab as ss

from conftest import counting

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = "scalar-decay nu=2"


def _wrapper_counts(spec):
    """[curve calls, norms] of each stage of ``analyze_model`` on ``spec``, by the tests' wrapper."""
    traj, calls = counting(ss.build_model_from_spec(spec).trajectory())
    cfg, th = ss.SearchConfig(), ss.ClassifyThresholds()
    marks = [[0, 0]]
    mark = lambda: marks.append([calls["calls"], calls["points"]])
    table = ss.entry_time_table(traj, 40, cfg)
    mark()
    ss.classify(table, th)
    mark()
    ss.growth_characteristic(traj, table, ss.default_growth_grid(traj, table), th=th)
    mark()
    ss.stability_and_extinction_indices(traj, table, th=th)
    mark()
    ss.pazy_criteria(traj, 0.0, cfg=cfg, quad=ss.QuadratureSpec(0.0), t0=table.t[0])
    mark()
    stages = [[b - a for a, b in zip(x, y)] for x, y in zip(marks, marks[1:])]
    return dict(zip(("entry", "classify", "growth", "indices", "pazy"), stages),
                build=[0, 0], total=marks[-1])


def test_stage_counts_match_the_counting_wrapper():
    # one tree, one round of one timed run: the table has a row per stage,
    # and each row's (calls, norms) are the counting wrapper's
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "stage_times.py"), "--src",
         os.path.join(ROOT, "src"), "--rounds", "1", "--runs", "1", SPEC],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {}
    for line in proc.stdout.splitlines()[2:]:
        match = re.fullmatch(rf"\| `{SPEC}` \| (\w+) \| [0-9.]+ \((\d+), (\d+)\) \|", line)
        assert match, line
        rows[match[1]] = [int(match[2]), int(match[3])]
    want = _wrapper_counts(SPEC)
    assert list(rows) == ["build", "entry", "classify", "growth", "indices", "pazy", "total"]
    assert rows == want
    assert want["pazy"][1] > 0 and want["entry"][1] > 0
