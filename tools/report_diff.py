"""Compare the reports of two semistab source trees, spec by spec.

    python tools/report_diff.py SRC_A SRC_B [--seeds 1 7 41] [--specs SPEC ...] [--rmax N]

SRC_A and SRC_B are directories that hold a ``semistab`` package, such as
``src`` of two checkouts.  Each side runs in its own interpreter with its
own directory on PYTHONPATH, under a temporary directory: one
``semistab analyze`` per spec, through ``cli.main``, then one ``sweep``
over every spec, both with ``--rmax N`` when it is given, then
``analyze --help`` and ``sweep --help``.  For each analysis the JSON
report, the entry CSV, stdout, stderr and the exit code are compared; for
the sweep its CSV, stdout, stderr and exit code.  Every spec whose
outputs differ is named, with up to five of its JSON leaves
that moved, as ``pazy.criteria[1].value: 3270.0870796 -> 3270.08707929``,
up to five of its entry-CSV rows that moved, as
``entry.csv r=36: 11.9999999963,0.165525063872 -> 12.0000000037,0.165525056422``
(t_r and u_r, and the status too where it moved), and up to five moved
lines each of its exit code, stderr and stdout, the n-th line against the
n-th, as ``stderr: numerics failure: ... at t = 8 -> numerics failure: ...
at t = 1.2`` or ``exit: 0 -> 3``; the sweep's are named the same way.

The output ends with one summary line: how many non-float items moved
(JSON leaves that are not floats on both sides, such as kinds, ``fired``,
``implied``, verdicts and status counts; entry-CSV statuses; and lines of
exit codes, stdout, stderr and help), and the largest relative move of a
float (JSON float leaves and entry-CSV t_r and u_r), with its spec and
path, as ``summary: 0 non-float moved; largest float move 1.39e-09 at
gaussian-shift: pazy.criteria[1].value``.  The sweep CSV repeats the
analyses' values and is left out of it.  The exit code is 1 on any
difference, else 0.

The specs are those of the three galleries in ``perfbench/gallery.py`` at
each seed, deduplicated in order, plus a few fixed specs that reach the
other outcomes: a transient, a rotation, an unstable Jordan block, a stiff
diagonal generator whose slow mode the spectral shift reads exactly, a
stiff generator with a non-normal slow block (exit 3), a dense defective
generator (``DEFECTIVE_4``: P J P^-1 for the 4x4 Jordan block at -0.3 with
superdiagonal 4 and P = ``default_rng(4).uniform(-1, 1, (4, 4)) + 2I``, at
12 digits), whose deep tail moves with any change to the exponential, a
large fractional discretization, an extinction plateau and the pure
exponential that the benchmark analyzes to warm up.  ``--specs`` replaces
all of them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXTRA_SPECS = (
    "matrix [[-1,10],[0,-1]]",
    "matrix [[-3,5],[-5,-3]]",
    "matrix [[0,1],[0,0]]",
    "matrix [[-1e17,0],[0,-1]]",
    "matrix [[-1e17,0,0],[0,-1,1],[0,0,-2]]",
    "matrix [[0.234978928611,5.28381770581,-2.78972247362,4.35219825545],"
    "[-0.526548667247,-0.309613141219,2.27005647382,1.19075297613],"
    "[0.980426408977,-0.405227261393,-2.7357830176,6.70588424493],"
    "[0.074414524056,-0.965357935961,0.347204877085,1.6104172302]]",
    "fractional-integration n=400",
    "nilpotent-shift L=1",
    "scalar-decay nu=1",
)

#: Differing JSON leaves, and differing entry-CSV rows, printed per spec.
MAX_LEAVES = 5

# Runs in the side's interpreter, in its output directory: argv[1] is a JSON
# file of specs, argv[2:] options for analyze and sweep, and the outputs go
# to results.json there.
WORKER = r"""
import contextlib, io, json, sys
from semistab import cli

def call(argv, files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for name in files:
        try:
            with open(name) as fh:
                result[name.split(".", 1)[1]] = fh.read()
        except OSError:
            result[name.split(".", 1)[1]] = None
    return result

specs, options = json.load(open(sys.argv[1])), sys.argv[2:]
results = {"analyze": [call(["analyze", "--model", spec, "--out", f"a{i}", *options],
                            [f"a{i}.json", f"a{i}.entry.csv"])
                       for i, spec in enumerate(specs)],
           "sweep": call(["sweep", "--models", ";".join(specs), "--out", "s.csv", *options],
                         ["s.csv"]),
           "help": [call([command, "--help"], []) for command in ("analyze", "sweep")]}
json.dump(results, open("results.json", "w"))
"""


def gallery_specs(seeds):
    """The specs of every perfbench gallery at ``seeds``, in order."""
    spec = importlib.util.spec_from_file_location(
        "_report_diff_gallery", os.path.join(ROOT, "perfbench", "gallery.py"))
    gallery = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    return [case.spec for seed in seeds for workload in gallery.WORKLOADS
            for case in gallery.build(workload, seed)]


def start(src, specs_path, out_dir, options):
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    return subprocess.Popen([sys.executable, "-c", WORKER, specs_path, *options], cwd=out_dir,
                            env=env)


def differing(a, b):
    """The names of the fields of two result dicts that differ."""
    return [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def _leaves(node, path=""):
    """(path, value) of every leaf of a parsed JSON document, as ``pazy.criteria[1].value``."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        yield path, node
        return
    for sub, value in items:
        yield from _leaves(value, sub)


_ABSENT = object()


def _shown(value):
    return "(absent)" if value is _ABSENT else json.dumps(value)


def _moved_leaf_values(text_a, text_b):
    """(path, a, b) for each JSON leaf that differs between two reports, in document order.

    A leaf missing on one side is ``_ABSENT`` there.
    """
    a, b = (dict(_leaves(json.loads(text))) if text else {} for text in (text_a, text_b))
    pairs = ((path, a.get(path, _ABSENT), b.get(path, _ABSENT)) for path in dict.fromkeys([*a, *b]))
    return [(path, va, vb) for path, va, vb in pairs if _shown(va) != _shown(vb)]


def moved_leaves(text_a, text_b):
    """``path: a -> b`` for each JSON leaf that differs between two reports, in document order."""
    return [f"{path}: {_shown(va)} -> {_shown(vb)}"
            for path, va, vb in _moved_leaf_values(text_a, text_b)]


def _csv_rows(text):
    """The fields after r of each entry-CSV row, by r."""
    return {row.split(",", 1)[0]: row.split(",")[1:] for row in (text or "").splitlines()[1:]}


def moved_rows(csv_a, csv_b):
    """``entry.csv r=R: t,u -> t,u`` for each entry-CSV row that differs, in r order."""
    a, b = _csv_rows(csv_a), _csv_rows(csv_b)
    lines = []
    for r in dict.fromkeys([*a, *b]):
        ra, rb = a.get(r), b.get(r)
        if ra != rb:
            # t_r and u_r, and the status too where it moved
            n = 2 if ra and rb and ra[2] == rb[2] else 3
            va, vb = (",".join(row[:n]) if row else "(absent)" for row in (ra, rb))
            lines.append(f"entry.csv r={r}: {va} -> {vb}")
    return lines


def moved_lines(name, text_a, text_b):
    """``name: a -> b`` for each line of two outputs that differs, n-th line against n-th."""
    a, b = (str(text).splitlines() for text in (text_a, text_b))
    lines = []
    for i in range(max(len(a), len(b))):
        va, vb = (side[i] if i < len(side) else "(absent)" for side in (a, b))
        if va != vb:
            lines.append(f"{name}: {va} -> {vb}")
    return lines


def _relative(a, b):
    return abs(b - a) / abs(a) if a else math.inf


def moves(name, ra, rb):
    """(non-float moves, [(relative move, where)] of floats) between two results of ``name``.

    Non-float: JSON leaves not float on both sides, entry-CSV rows whose
    status moved or that one side lacks, t_r and u_r that are not finite
    numbers, and lines of exit, stdout and stderr.  Float: JSON float leaves, and
    t_r and u_r of the entry CSV.
    """
    nonfloat, floats = 0, []
    for path, va, vb in _moved_leaf_values(ra.get("json"), rb.get("json")):
        if isinstance(va, float) and isinstance(vb, float):
            floats.append((_relative(va, vb), f"{name}: {path}"))
        else:
            nonfloat += 1
    a, b = _csv_rows(ra.get("entry.csv")), _csv_rows(rb.get("entry.csv"))
    for r in dict.fromkeys([*a, *b]):
        fa, fb = a.get(r), b.get(r)
        if fa == fb:
            continue
        if fa is None or fb is None or fa[2:] != fb[2:]:
            nonfloat += 1
            continue
        for column, x, y in zip(("t_r", "u_r"), fa, fb):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                x = y = math.nan
            if math.isfinite(x) and math.isfinite(y):
                floats.append((_relative(x, y), f"{name}: entry.csv r={r} {column}"))
            else:
                nonfloat += 1
    for field in ("exit", "stdout", "stderr"):
        nonfloat += len(moved_lines(field, ra.get(field), rb.get(field)))
    return nonfloat, floats


def _print_moved(fields, ra, rb):
    """The JSON leaves, entry-CSV rows and exit, stderr and stdout lines that moved, capped."""
    if "json" in fields:
        _print_capped(moved_leaves(ra["json"], rb["json"]))
    if "entry.csv" in fields:
        _print_capped(moved_rows(ra["entry.csv"], rb["entry.csv"]))
    for field in ("exit", "stderr", "stdout"):
        if field in fields:
            _print_capped(moved_lines(field, ra[field], rb[field]))


def _print_capped(lines):
    for line in lines[:MAX_LEAVES]:
        print(f"  {line}")
    if len(lines) > MAX_LEAVES:
        print(f"  ... and {len(lines) - MAX_LEAVES} more")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="directory holding the first side's semistab package")
    parser.add_argument("src_b", help="directory holding the second side's semistab package")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 7, 41],
                        help="gallery seeds (default: 1 7 41)")
    parser.add_argument("--specs", nargs="+",
                        help="compare these specs instead of the galleries and the fixed specs")
    parser.add_argument("--rmax", type=int,
                        help="pass --rmax RMAX to every analyze and to the sweep")
    args = parser.parse_args(argv)
    options = [] if args.rmax is None else ["--rmax", str(args.rmax)]
    specs = args.specs or list(dict.fromkeys(gallery_specs(args.seeds) + list(EXTRA_SPECS)))

    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        specs_path = os.path.join(tmp, "specs.json")
        with open(specs_path, "w") as fh:
            json.dump(specs, fh)
        sides = [os.path.join(tmp, side) for side in ("a", "b")]
        procs = [start(src, specs_path, out, options)
                 for src, out in zip((args.src_a, args.src_b), sides)]
        if any([proc.wait() for proc in procs]):
            print("a side failed to run; see its traceback above", file=sys.stderr)
            return 2
        results = []
        for out in sides:
            with open(os.path.join(out, "results.json")) as fh:
                results.append(json.load(fh))

    a, b = results
    diffs = []
    for spec, ra, rb in zip(specs, a["analyze"], b["analyze"]):
        fields = differing(ra, rb)
        if not fields:
            continue
        diffs.append(spec)
        print(f"differs: {spec}: {', '.join(fields)}")
        _print_moved(fields, ra, rb)
    sweep = differing(a["sweep"], b["sweep"])
    if sweep:
        print(f"differs: sweep: {', '.join(sweep)}")
        _print_moved(sweep, a["sweep"], b["sweep"])
    help_diff = [command for command, ha, hb in zip(("analyze", "sweep"), a["help"], b["help"])
                 if ha != hb]
    for command in help_diff:
        print(f"differs: {command} --help")
    print(f"{len(specs)} specs, {len(diffs)} differ; sweep {'differs' if sweep else 'identical'}; "
          f"help {'differs' if help_diff else 'identical'}")
    pairs = [*zip(specs, a["analyze"], b["analyze"]), ("sweep", a["sweep"], b["sweep"]),
             *zip(("analyze --help", "sweep --help"), a["help"], b["help"])]
    nonfloat, floats = 0, []
    for name, ra, rb in pairs:
        count, moved = moves(name, ra, rb)
        nonfloat += count
        floats += moved
    worst = max(floats, default=None)
    largest = f"largest float move {worst[0]:.3g} at {worst[1]}" if worst else "no float moved"
    print(f"summary: {nonfloat} non-float moved; {largest}")
    return 1 if diffs or sweep or help_diff else 0


if __name__ == "__main__":
    sys.exit(main())
