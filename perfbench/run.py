"""semistab benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload closed-gallery --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The workload runs in a fresh interpreter (``worker.py``) with
BLAS/OpenMP pinned to one thread; set-up is sampled in ``SETUPS`` separate
processes and reported as their median.  Every analysis's JSON and CSV are
then checked here against independent references (``checks.py``).  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gallery  # noqa: E402

SETUPS = 5                     # set-up samples per run: the timed worker plus four more
WORKER_TIMEOUT = 150.0         # seconds; a run must end within 180
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _launch(args, out_dir, setup_only):
    """Run one worker process; returns its set-up time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - launched


def _check_outputs(result):
    """Check every distinct output; returns {(case, variant): problems}."""
    import checks
    from semistab.models import FractionalIntegration

    problems = {}
    for idx, case in enumerate(result["cases"]):
        kernel = None
        if case["kind"] == "fractional-integration":
            kernel = FractionalIntegration(case["params"]["n"]).kernel_matrix
        for v, (report, table) in enumerate(result["variants"][idx]):
            problems[(idx, v)] = checks.check(case["kind"], case["params"], report, table,
                                              kernel_matrix=kernel)
    return problems


def _end_to_end(result, setups):
    """End-to-end metrics from the per-analysis times of every round.

    Each analysis time is divided by the reference probe timed around it
    (``worker.Probe``), so that the machine's speed at that moment cancels.
    Each analysis of the gallery keeps the median of its ratios over the
    run's rounds.  ``analyze_ref`` is the gallery's total in probe units and
    ``latency_p50_ref`` the median over its analyses.  The same statistics
    of the raw wall times are returned separately, for display.
    """
    ratios, raw = {}, {}
    for _, idx, _, seconds, _, _, _, probe in result["analyses"]:
        ratios.setdefault(idx, []).append(seconds / probe)
        raw.setdefault(idx, []).append(seconds)
    per_case = [statistics.median(v) for v in ratios.values()]
    per_case_raw = [statistics.median(v) for v in raw.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "analyze_ref": (sum(per_case), "ref"),
        "latency_p50_ref": (statistics.median(per_case), "ref"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    wall = {
        "analyze_s": (sum(per_case_raw), "s"),
        "latency_p50_ms": (1e3 * statistics.median(per_case_raw), "ms"),
        "probe_ms": (1e3 * statistics.median(a[7] for a in result["analyses"]), "ms"),
    }
    return metrics, wall


def _per_layer(result, notes):
    """Per-layer metrics; counts must repeat exactly across traced rounds."""
    traced = result["layer_rounds"]
    metrics = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                notes.append(f"count {name} differs between traced rounds: {values}")
            metrics[name] = (values[0], "count")
        elif name.endswith("_ratio"):
            metrics[name] = (statistics.median(values), "ratio")
        else:
            metrics[name] = (statistics.median(values), "s")
    plain = [t for was_traced, t in result["rounds"] if not was_traced]
    with_trace = [t for was_traced, t in result["rounds"] if was_traced]
    metrics["trace.overhead_s"] = (statistics.median(with_trace) - statistics.median(plain), "s")
    return metrics


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "semistab", "cli.py")):
        raise BenchError(f"semistab sources not found under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setups = [_launch(args, out_dir, setup_only=True) for _ in range(SETUPS - 1)]
        setups.append(_launch(args, out_dir, setup_only=False))
        with open(os.path.join(out_dir, "result.json")) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = _check_outputs(result)
    notes = []
    failed = 0
    wrong = 0
    for rnd, idx, variant, _, rc, error, *_ in result["analyses"]:
        spec = result["cases"][idx]["spec"]
        if rc != 0:
            failed += 1
            notes.append(f"round {rnd} {spec}: exit {rc} {error}")
        elif variant < 0:
            failed += 1
            wrong += 1
            notes.append(f"round {rnd} {spec}: no output written")
        elif problems[(idx, variant)]:
            failed += 1
            wrong += 1
    for (idx, variant), found in problems.items():
        for line in found[:5]:
            notes.append(f"{result['cases'][idx]['spec']} (output {variant}): {line}")
    if args.trace:
        # every case must have one output, so traced and untraced rounds agree byte for byte
        for idx, outs in enumerate(result["variants"]):
            if len(outs) > 1:
                notes.append(f"{result['cases'][idx]['spec']}: traced and untraced outputs differ")
                wrong += 1
        count_notes = []
        metrics = _per_layer(result, count_notes)
        notes += count_notes
        wrong += len(count_notes)
    else:
        metrics, wall = _end_to_end(result, setups)

    for line in notes[:40]:
        print(f"check: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(result['analyses'])} analyses in "
          f"{len(result['rounds'])} rounds, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print("  wall time, for reference: " + ", ".join(
            f"{name} = {value:.6g} {unit}" for name, (value, unit) in wall.items()))
    return {
        "correct": wrong == 0,
        "attempted": len(result["analyses"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gallery.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be positive")
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
