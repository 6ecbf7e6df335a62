"""Wall time and norm counts of each stage of ``analyze_model``, per source tree.

    python tools/stage_times.py --src SRC [--src SRC ...] [--rounds 4] [--runs 5]
                                [--json OUT] SPEC [SPEC ...]

Each SRC is a directory that holds a ``semistab`` package, such as ``src``
of two checkouts.  Each tree runs in its own interpreter with only its
directory on PYTHONPATH; a round runs every tree once, and the order of the
trees alternates from round to round.  In a run each spec is built and
analyzed once untimed, to warm caches, then ``--runs`` times timed.  The
stages are those of ``cli.analyze_model`` with the CLI defaults (rmax 40):

* ``build``    -- ``model.trajectory()`` (fractional integration runs its
  growth-rate sample here);
* ``entry``    -- ``entry_time_table``;
* ``classify`` -- ``classify``;
* ``growth``   -- ``default_growth_grid`` and ``growth_characteristic``;
* ``indices``  -- ``stability_and_extinction_indices``;
* ``pazy``     -- ``pazy_criteria``;
* ``total``    -- all of them.

The table printed to stdout gives, per spec, stage and tree, the minimum
wall time over every timed run of every round, and the curve calls and
norms read.  The counts come from one more run through a wrapper of the
trajectory that counts the calls of its one log path and the times in each;
every norm is a pure function of t, so they repeat exactly.  ``build`` reads
no norm through the trajectory it builds, so it counts none.  ``--json``
also writes the samples and counts to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

STAGES = ("build", "entry", "classify", "growth", "indices", "pazy", "total")
RMAX = 40


def _counting(traj, calls):
    """``traj`` read through one more log path that adds to ``calls`` at every read."""
    from semistab import NormTrajectory

    def log_evaluate_many(ts):
        calls["calls"] += 1
        calls["points"] += ts.size
        return traj.log_evaluate_many(ts)

    return NormTrajectory(log_evaluate_many=log_evaluate_many, growth_rate=traj.growth_rate,
                          eval_error_bound=traj.eval_error_bound,
                          extinction_time=traj.extinction_time, label=traj.label)


def analyze_stages(spec, calls=None):
    """The stages of ``analyze_model`` on ``spec``: {stage: seconds}.

    With a ``calls`` dict, the stages read the curve through the counting
    wrapper, and ``calls[stage]`` becomes that stage's [curve calls, norms].
    """
    from semistab import (ClassifyThresholds, QuadratureSpec, SearchConfig, classify,
                          default_growth_grid, entry_time_table, growth_characteristic,
                          pazy_criteria, stability_and_extinction_indices)
    from semistab.models import build_model_from_spec

    cfg, th = SearchConfig(), ClassifyThresholds()
    model = build_model_from_spec(spec)
    counter = {"calls": 0, "points": 0}
    times, state = {}, {}

    def stage(name, run):
        before = dict(counter)
        start = time.perf_counter()
        run()
        times[name] = time.perf_counter() - start
        if calls is not None:
            calls[name] = [counter[key] - before[key] for key in ("calls", "points")]

    def build():
        traj = model.trajectory()
        state["traj"] = traj if calls is None else _counting(traj, counter)

    def growth():
        grid = default_growth_grid(state["traj"], state["table"])
        growth_characteristic(state["traj"], state["table"], grid, th=th)

    stage("build", build)
    stage("entry", lambda: state.update(table=entry_time_table(state["traj"], RMAX, cfg)))
    stage("classify", lambda: classify(state["table"], th))
    stage("growth", growth)
    stage("indices", lambda: stability_and_extinction_indices(state["traj"], state["table"], th=th))
    stage("pazy", lambda: pazy_criteria(state["traj"], 0.0, cfg=cfg, quad=QuadratureSpec(0.0),
                                        t0=state["table"].t[0]))
    times["total"] = sum(times.values())
    if calls is not None:
        calls["total"] = [sum(calls[name][i] for name in STAGES[:-1]) for i in (0, 1)]
    return times


def _worker(specs, runs):
    """One tree's samples and counts, as a JSON-ready dict by spec."""
    out = {}
    for spec in specs:
        analyze_stages(spec)
        samples = [analyze_stages(spec) for _ in range(runs)]
        counts = {}
        analyze_stages(spec, counts)
        out[spec] = {"times": {name: [s[name] for s in samples] for name in STAGES},
                     "counts": counts}
    return out


def _run_tree(src, specs, runs):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                           "--runs", str(runs), *specs],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{src}: the worker failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure(srcs, specs, rounds, runs):
    """{src: {spec: {"times": {stage: samples}, "counts": {stage: [calls, norms]}}}}.

    Round k runs the trees in the given order when k is even, reversed when odd.
    """
    merged = {src: {} for src in srcs}
    for k in range(rounds):
        for src in (srcs if k % 2 == 0 else srcs[::-1]):
            for spec, data in _run_tree(src, specs, runs).items():
                seen = merged[src].setdefault(spec, {"times": {name: [] for name in STAGES},
                                                     "counts": data["counts"]})
                if seen["counts"] != data["counts"]:
                    raise SystemExit(f"{src}: {spec}: counts did not repeat across rounds")
                for name in STAGES:
                    seen["times"][name] += data["times"][name]
    return merged


def table(merged, specs):
    """The stage table: per spec and stage, each tree's min time, calls and norms."""
    srcs = list(merged)
    head = "| spec | stage | " + " | ".join(f"{src} ms (calls, norms)" for src in srcs) + " |"
    lines = [head, "|" + "---|" * (2 + len(srcs))]
    for spec in specs:
        for name in STAGES:
            cells = []
            for src in srcs:
                data = merged[src][spec]
                n_calls, norms = data["counts"][name]
                cells.append(f"{1e3 * min(data['times'][name]):.3f} ({n_calls}, {norms})")
            lines.append(f"| `{spec}` | {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", metavar="SPEC", help="model specs to analyze")
    parser.add_argument("--src", action="append", default=[],
                        help="directory holding a semistab package; give one per tree")
    parser.add_argument("--rounds", type=int, default=4, help="runs of every tree (default: 4)")
    parser.add_argument("--runs", type=int, default=5,
                        help="timed analyses of each spec per round (default: 5)")
    parser.add_argument("--json", help="also write the samples and counts to this file")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.runs < 1:
        parser.error("--rounds and --runs must be at least 1")
    if args.worker:
        json.dump(_worker(args.specs, args.runs), sys.stdout)
        return 0
    if not args.src:
        parser.error("give at least one --src")
    merged = measure(args.src, args.specs, args.rounds, args.runs)
    print(table(merged, args.specs))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(merged, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
