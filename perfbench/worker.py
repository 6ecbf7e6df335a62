"""One workload process: set up, then time whole rounds of ``semistab analyze``.

Started by ``run.py`` in a fresh interpreter with the BLAS/OpenMP pools
pinned to one thread.  Every analysis goes through
``semistab.cli.main(["analyze", ...])`` in-process with the CLI defaults, so
each one builds a fresh model from its spec and no memo, lattice or
warm-start state carries over between analyses.  The line the CLI prints is
captured.  Between analyses, outside the timed region, garbage is
collected, outputs are read back and the reference ``Probe`` is timed.

With ``--setup-only`` the process stops once it is ready to time (used to
sample set-up time several times per run).  With ``--trace 1`` rounds
alternate untraced and traced, so the same process gives the tracing
overhead and a byte comparison of traced against untraced output.

Prints ``{"ready": <time.monotonic() when ready to time>}`` as its last
line and writes ``result.json`` into ``--out``; the parent checks the
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _analyze(cli, spec, prefix, tracer=None, analysis_id=0):
    """One timed analysis; returns (seconds, exit code or None, error text).

    With a tracer, the CLI call is the root span of analysis ``analysis_id``.
    """
    argv = ["analyze", "--model", spec, "--out", prefix]
    for path in (prefix + ".json", prefix + ".entry.csv"):
        if os.path.exists(path):
            os.unlink(path)
    gc.collect()
    captured = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.run_analysis(analysis_id, lambda: cli.main(argv))
    except Exception as exc:  # an analysis that raises is a failed operation
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc not in (0, None):
        error = captured.getvalue().strip()[-300:]
    return elapsed, rc, error


class Probe:
    """Times a fixed reference computation that uses nothing from semistab.

    It mixes the kinds of work the program does: an interpreted loop, many
    small-matrix numpy calls, vectorized numpy on a 96 x 96 array, and
    cache-missing lookups in a 50k-entry float-keyed dict and a 200k-element
    array (the shape of the norm memo and the lattice caches).  Calling it
    returns the median of five timings, which gauges how fast the machine
    runs this kind of code at that moment.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        keys = [round(float(k), 12) for k in rng.uniform(0.0, 50.0, 50_000)]
        self.memo = dict.fromkeys(keys, 1.0)
        self.queries = [keys[i] for i in rng.integers(0, len(keys), 2000)]
        self.big = rng.standard_normal(200_000)
        self.gather = rng.integers(0, self.big.size, 20_000)
        self.grid = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
        self.step = np.array([[0.9, 0.1], [0.0, 0.8]])

    def _once(self):
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        m = self.step
        for _ in range(250):
            m = m @ self.step
            m = m / np.abs(m).max()
        for _ in range(3):
            np.exp(-1.3 * self.grid)
        memo = self.memo
        for key in self.queries:
            acc += memo[key] > 0.0
        return acc + float(self.big[self.gather].sum())

    def __call__(self, repeats=5):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _read_outputs(prefix):
    try:
        with open(prefix + ".json") as fh:
            report = fh.read()
        with open(prefix + ".entry.csv") as fh:
            table = fh.read()
    except OSError:
        return None
    return report, table


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from semistab import cli
    import gallery

    cases = gallery.build(args.workload, args.seed)
    _analyze(cli, gallery.WARMUP_SPEC, os.path.join(args.out, "warmup"))
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    variants = [[] for _ in cases]   # distinct (report, table) texts per case
    # (round, case, variant, seconds, rc, error, traced, probe seconds)
    analyses = []
    rounds = []                      # (traced, total seconds)
    layer_rounds = []                # per-layer metrics of each traced round
    probe = Probe()
    probe_before = probe()
    began = time.monotonic()
    r = 0
    while True:
        traced = bool(tracer) and r % 2 == 1
        if traced:
            tracer.install()
        total = 0.0
        for idx, case in enumerate(cases):
            prefix = os.path.join(args.out, f"a{idx}")
            elapsed, rc, error = _analyze(cli, case.spec, prefix,
                                          tracer if traced else None, len(analyses))
            total += elapsed
            out = _read_outputs(prefix) if rc == 0 else None
            variant = -1
            if out is not None:
                if out not in variants[idx]:
                    variants[idx].append(out)
                variant = variants[idx].index(out)
            # the machine's speed around this analysis: probes just before
            # and just after it, both outside the timed region
            probe_after = probe()
            analyses.append((r, idx, variant, elapsed, rc, error, traced,
                             0.5 * (probe_before + probe_after)))
            probe_before = probe_after
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.round_metrics())
        rounds.append((traced, total))
        r += 1
        spent = time.monotonic() - began
        mean_round = spent / r
        # whole rounds only, at least two (best-of-rounds timing; a traced run
        # needs an untraced and a traced one); stop at the boundary nearest
        # the budget
        if r >= 2 and spent + 0.5 * mean_round >= args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "peak_rss_mib": peak_kib / 1024.0,
        "cases": [{"kind": c.kind, "spec": c.spec, "params": c.params} for c in cases],
        "variants": variants,
        "analyses": analyses,
        "rounds": rounds,
        "layer_rounds": layer_rounds,
    }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    print(json.dumps({"ready": ready}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
