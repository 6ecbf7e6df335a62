"""Show that every output check passes real output and rejects perturbed output.

    python3 perfbench/selftest.py

Runs one analysis of each model kind the workloads use through the CLI,
checks that ``checks.check`` accepts it, then perturbs the report in ways a
wrong program could (a shifted entry time with its u_r kept consistent, a
swapped verdict, a moved rate, a moved or re-labelled criterion, a changed
fired set) and checks that each perturbation is rejected.  Exits non-zero
if any real output is rejected or any perturbation is accepted.  Takes
about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gallery  # noqa: E402
from semistab import cli  # noqa: E402
from semistab.models import FractionalIntegration  # noqa: E402


def _move_t(r, new_t):
    """Replace t_r by new_t(t_r), rewriting u_{r-1} and u_r to stay consistent."""
    def apply(report, csv):
        lines = csv.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        t = [float(row[1]) for row in rows]
        t[r] = new_t(t[r])
        rows[r][1] = checks.format_number(t[r])
        for k in (r - 1, r):
            if 0 <= k < len(rows) - 1:
                rows[k][2] = checks.format_number(t[k + 1] - t[k])
        return report, "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"
    return apply


def _edit_report(fn):
    def apply(report, csv):
        doc = json.loads(report)
        fn(doc)
        return json.dumps(doc), csv
    return apply


def _set(path, value):
    def fn(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return _edit_report(fn)


def _first_value_entry(fn):
    def edit(doc):
        entry = next(e for e in doc["pazy"]["criteria"] if e["kind"] == "value")
        fn(entry)
    return _edit_report(edit)


def _swap_verdict(doc):
    c = doc["classification"]
    c["verdict"] = {"stable": "superstable", "superstable": "stable",
                    "finite-time-extinction": "superstable", "unstable": "stable"}[c["verdict"]]


COMMON = {
    "shifted t_5": _move_t(5, lambda t: t + 1e-4),
    "swapped verdict": _edit_report(_swap_verdict),
}
CLOSED = dict(COMMON, **{
    "criterion value off by 1e-4": _first_value_entry(lambda e: e.update(value=e["value"] * 1.0001)),
    "criterion relabelled divergent": _first_value_entry(lambda e: e.update(kind="divergent")),
})
PERTURBATIONS = {
    "scalar-decay": dict(CLOSED, **{"nu off by 1e-4": _set(("classification", "nu"),
                                                             lambda v: v * 1.0001)}),
    "gaussian-shift": CLOSED,
    "nilpotent-shift": dict(COMMON, **{"k off by 1e-4": _set(("classification", "k"),
                                                              lambda v: v + 1e-4)}),
    "damped-nilpotent": CLOSED,
    "matrix-2x2": dict(COMMON, **{"nu above |alpha|": _set(("classification", "nu"), 100.0)}),
    "matrix-4x4": dict(COMMON, **{"shifted t_30": _move_t(30, lambda t: t + 1e-4)}),
    "matrix-unstable": {"finite t_3": _move_t(3, lambda t: 5.0),
                        "swapped verdict": _edit_report(_swap_verdict)},
    "fractional-integration": dict(COMMON, **{
        "criterion iii not fired": _set(("pazy", "fired"), lambda f: [x for x in f if x != "iii"]),
        "criterion iv fired": _set(("pazy", "fired"), lambda f: f + ["iv"]),
    }),
}


def _samples():
    closed = {c.kind: c for c in gallery.build("closed-gallery", 0)}
    matrix = gallery.build("matrix-transient", 0)
    two = next(c for c in matrix if len(c.params["a"]) == 2 and c.params["a"][0][0] < 0)
    four = next(c for c in matrix if len(c.params["a"]) == 4)
    unstable = next(c for c in matrix if c.spec == "matrix [[0,1],[0,0]]")
    frac = min(gallery.build("fractional", 0), key=lambda c: c.params["n"])
    return [(kind, closed[kind]) for kind in ("scalar-decay", "gaussian-shift",
                                              "nilpotent-shift", "damped-nilpotent")] + [
        ("matrix-2x2", two), ("matrix-4x4", four), ("matrix-unstable", unstable),
        ("fractional-integration", frac)]


def main():
    out_dir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    bad = 0
    try:
        for label, case in _samples():
            prefix = os.path.join(out_dir, "a")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["analyze", "--model", case.spec, "--out", prefix])
            with open(prefix + ".json") as fh:
                report = fh.read()
            with open(prefix + ".entry.csv") as fh:
                csv = fh.read()
            kernel = None
            if case.kind == "fractional-integration":
                kernel = FractionalIntegration(case.params["n"]).kernel_matrix

            def run_check(rep, table):
                return checks.check(case.kind, case.params, rep, table, kernel_matrix=kernel)

            found = run_check(report, csv)
            ok = rc == 0 and not found
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: real output accepted {found[:3]}")
            for name, perturb in PERTURBATIONS[label].items():
                found = run_check(*perturb(report, csv))
                bad += not found
                print(f"{'ok  ' if found else 'FAIL'} {label}: {name} rejected"
                      f"{' (' + found[0][:90] + ')' if found else ''}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selftest passed" if bad == 0 else f"selftest: {bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
