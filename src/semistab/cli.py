"""Command-line front door: analyze a model spec or sweep a batch of them.

``semistab analyze`` runs the full pipeline (entry times -> classification ->
growth routes -> integral criteria) on one model and writes ``<out>.json``
plus ``<out>.entry.csv``.  ``semistab sweep`` runs many models into one
long-format CSV.  Exit codes: 0 success, 2 bad spec/arguments or a file
that cannot be read or written, 3 numerics failure, 4 verdict written but
inconclusive (widened entry times, or every integral criterion
inconclusive).  A horizon-limited table is not inconclusive: it reads as
unstable and exits 0.

All numbers in reports are rounded to 12 significant digits and +/-inf is
encoded as the strings "inf"/"-inf", so identical runs produce byte-identical
output.  The pipeline uses no random numbers and takes no seed, and a norm
is a pure function of t: the fractional-integration Lanczos kernel starts
from the all-ones vector every time, with no warm start.

Which norm counts as an exact zero is not an option: it is a log of -inf
that the model states, and no stage reads a floor of its own.  Fractional
integration reads norms at or below ``numerics.NORM_FLOOR`` (1e-300) as
zero, and the report's ``config`` block echoes that constant, as it echoes
the fixed p grid of criterion (iv).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .classify import (
    ClassifyThresholds,
    classify,
    default_growth_grid,
    growth_characteristic,
    stability_and_extinction_indices,
)
from .entrytime import SearchConfig, _csv_number, entry_time_table
from .errors import InvalidArgument, InvalidModel, NumericsFailure, SpecError
from .models import build_model_from_spec
from .numerics import NORM_FLOOR, QuadratureSpec
from .pazy import DEFAULT_P_TRACE, pazy_criteria

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERICS = 3
EXIT_INCONCLUSIVE = 4

SWEEP_COLUMNS = "model,r,t_r,u_r,status,verdict,nu,k,omega_entry"


def _json_text(obj, indent=""):
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, every float at 12 digits.

    A finite float is written as the float of its CSV text, and inf, -inf
    and nan as that text in quotes.  Numpy scalars read as the Python
    numbers they hold, and tuples as lists; dict keys must be strings.
    """
    if isinstance(obj, (float, np.floating)):
        text = _csv_number(obj)
        return repr(float(text)) if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in obj) + f"\n{indent}]"
    raise TypeError(f"{type(obj).__name__} is not a report value")


def _temp_beside(path):
    """``(fd, name)`` of a new file beside ``path``; an error names ``path``, not that file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        return tempfile.mkstemp(dir=directory, prefix=".semistab-")
    except OSError as exc:
        exc.filename = path
        raise


def _check_writable(path):
    """Raise now the OSError that writing ``path`` after the analysis would raise."""
    fd, tmp = _temp_beside(path)
    os.close(fd)
    os.unlink(tmp)


def _write_atomic(path, text):
    fd, tmp = _temp_beside(path)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: help text of each option that sets a SearchConfig or ClassifyThresholds field
_HELP = {
    "time_tol": "bisection width for entry times",
    "grid_step": "scan resolution for non-monotone trajectories",
    "horizon_start": "initial search span and sustained-below window length",
    "horizon_cap": "absolute search horizon; beyond it entry times report inf",
    "eps_super": "u tail mean below this is superstable",
    "eps_tailsum": "second-half u sum below this accepts finite-time extinction",
    "plateau_window": "length of the tail averaging window",
    "tail_decay_ratio": "tail/mid window mean ratio at or below this is superstable",
}


def _config(cls, args):
    """An instance of the config dataclass ``cls`` from its options in ``args``."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def analyze_model(model, *, rmax, cfg, th, pazy_a, quad_tols):
    """Run the full pipeline on one built model; returns the report dict."""
    traj = model.trajectory()
    table = entry_time_table(traj, rmax, cfg)
    verdict = classify(table, th)
    grid = default_growth_grid(traj, table)
    growth = growth_characteristic(traj, table, grid, th=th)
    indices = stability_and_extinction_indices(traj, table, th=th)
    quad = QuadratureSpec(lower=0.0, abs_tol=quad_tols[0], rel_tol=quad_tols[1])
    pazy = pazy_criteria(traj, pazy_a, cfg=cfg, quad=quad, t0=table.t[0])

    report = {
        "tool": {"name": "semistab", "version": __version__},
        "model": model.spec_string(),
        "config": {
            "rmax": rmax,
            **asdict(cfg),
            "norm_floor": NORM_FLOOR,
            **asdict(th),
            "pazy_a": pazy_a,
            "pazy_p_trace": list(DEFAULT_P_TRACE),
            "quad_abs_tol": quad_tols[0],
            "quad_rel_tol": quad_tols[1],
        },
        "entry": {
            "r_max": table.r_max,
            "t_first": table.t[0],
            "t_last": table.t[-1],
            "monotonicity_defect": table.monotonicity_defect,
            "statuses": _status_counts(table),
        },
        "classification": {
            "verdict": verdict.verdict,
            "nu": verdict.nu,
            "k": verdict.k,
            "confident": verdict.confident,
            "diagnostics": dict(verdict.diagnostics),
        },
        "growth": {
            "omega_entry": growth.omega_entry,
            "omega_large_t": growth.omega_large_t,
            "omega_inf_grid": growth.omega_inf_grid,
            "agreement_spread": growth.agreement_spread,
            "spread_is_minus_infinity": growth.spread_is_minus_infinity,
        },
        "indices": {
            "nu_hat": indices.nu_hat,
            "k_hat_sum": indices.k_hat_sum,
            "sum_converged": indices.sum_converged,
            "k_hat_overshoot": indices.k_hat_overshoot,
            "notes": list(indices.notes),
        },
        "pazy": {
            "a": pazy.a,
            "t0": pazy.t0,
            "overall": pazy.overall,
            "fired": list(pazy.fired),
            "implied": pazy.implied,
            "k_surrogate": pazy.k_surrogate,
            "contradictions": list(pazy.contradictions),
            "criteria": [
                {"criterion": e.criterion, "weight": e.weight, "p": e.p,
                 "kind": e.kind, "value": e.value}
                for e in pazy.entries
            ],
            "p_limit_trace": [
                {"p": p, "kind": kind, "value": value}
                for p, kind, value in pazy.p_limit_trace
            ],
        },
    }
    return report, table, verdict, pazy


def _status_counts(table):
    counts = {}
    for e in table.statuses:
        counts[e.status] = counts.get(e.status, 0) + 1
    return counts


def _read_spec_file(path):
    """The model spec in the file ``path``: its non-comment lines, stripped and joined by spaces."""
    with open(path) as fh:
        return " ".join(ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#"))


def _read_model_arg(args):
    if args.model and args.model_file:
        raise SpecError("give either --model or --model-file, not both")
    if args.model:
        return args.model
    if args.model_file:
        return _read_spec_file(args.model_file)
    raise SpecError("a model is required (--model or --model-file)")


def _pipeline(args):
    """The analysis the options ask for, as a function of a built model.

    It returns what :func:`analyze_model` returns, and calls it by its
    module-level name, so that a wrapper installed there sees every run.
    """
    cfg = _config(SearchConfig, args)
    th = _config(ClassifyThresholds, args)
    if args.rmax < 2 * th.plateau_window:
        raise InvalidArgument(
            f"--rmax must be at least {2 * th.plateau_window} for classification"
        )
    quad_tols = (args.quad_abs_tol, args.quad_rel_tol)
    return lambda model: analyze_model(
        model, rmax=args.rmax, cfg=cfg, th=th, pazy_a=args.pazy_a, quad_tols=quad_tols)


def cmd_analyze(args):
    csv_path = f"{args.out}.entry.csv"
    json_path = f"{args.out}.json"
    _check_writable(csv_path)
    model = build_model_from_spec(_read_model_arg(args))
    report, table, verdict, pazy = _pipeline(args)(model)
    report["entry"]["csv"] = os.path.basename(csv_path)
    _write_atomic(csv_path, table.to_csv())
    _write_atomic(json_path, _json_text(report) + "\n")
    summary = f"verdict={verdict.verdict}"
    if verdict.nu is not None:
        summary += f" nu={verdict.nu:.6g}"
    if verdict.k is not None:
        summary += f" k={verdict.k:.6g}"
    print(f"{model.spec_string()}: {summary} -> {json_path}")
    causes = []
    if not verdict.confident:
        causes.append("widened entry-time searches left crossings uncertified")
    if pazy.overall == "inconclusive":
        causes.append("every integral criterion was inconclusive")
    if causes:
        print(f"inconclusive: {'; '.join(causes)}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _iter_sweep_specs(models_arg):
    if os.path.isdir(models_arg):
        names = sorted(os.listdir(models_arg))
        for name in names:
            if name.endswith(".model"):
                yield _read_spec_file(os.path.join(models_arg, name))
    else:
        for part in models_arg.split(";"):
            part = part.strip()
            if part:
                yield part


def _quoted(text):
    """``text`` as one quoted CSV field, each double quote doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def cmd_sweep(args):
    _check_writable(args.out)
    analyze = _pipeline(args)
    specs = list(_iter_sweep_specs(args.models))
    if not specs:
        raise SpecError("no model specs found")
    lines = [SWEEP_COLUMNS]
    failures = 0
    for spec_text in specs:
        try:
            model = build_model_from_spec(spec_text)
            report, table, verdict, _ = analyze(model)
        except (SpecError, InvalidArgument, InvalidModel, NumericsFailure) as exc:
            failures += 1
            print(f"{spec_text}: {exc}", file=sys.stderr)
            lines.append(f'{_quoted(spec_text)},summary,,,error:{type(exc).__name__},,,,')
            continue
        name = _quoted(model.spec_string())
        for r in range(table.r_max + 1):
            t = _csv_number(table.t[r])
            u = _csv_number(table.u[r])
            lines.append(f'{name},{r},{t},{u},{table.statuses[r].status},,,,')
        growth = report["growth"]
        lines.append(
            f'{name},summary,,,ok,{verdict.verdict},'
            f"{_csv_number(verdict.nu)},{_csv_number(verdict.k)},{_csv_number(growth['omega_entry'])}"
        )
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(specs)} models, {failures} failed)")
    if failures == len(specs):
        return EXIT_SPEC
    return EXIT_OK


def _add_shared(parser):
    """The analysis options: one per SearchConfig and ClassifyThresholds field, its default."""
    parser.add_argument("--rmax", type=int, default=40, help="largest r in the entry-time table")
    for f in (*fields(SearchConfig), *fields(ClassifyThresholds)):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default, help=_HELP[f.name])
    parser.add_argument("--pazy-a", dest="pazy_a", type=float, default=0.0,
                        help="requested lower integration limit (raised to t_0 automatically)")
    parser.add_argument("--quad-abs-tol", dest="quad_abs_tol", type=float, default=1e-9)
    parser.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float, default=1e-9)


@functools.cache
def build_parser():
    """The ``semistab`` argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="Entry-time analysis and stability classification of semigroup norm curves.",
        epilog="Exit codes: 0 ok, 2 bad spec/arguments or file error, 3 numerics failure, "
               "4 inconclusive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="analyze one model",
        description="Writes <out>.json (full report) and <out>.entry.csv "
                    "(rows r,t_r,u_r,status; inf rendered as 'inf').",
    )
    pa.add_argument("--model", help='inline model spec, e.g. "scalar-decay nu=2"')
    pa.add_argument("--model-file", dest="model_file",
                    help="file holding one model spec; its non-comment lines are joined")
    pa.add_argument("--out", default="analysis", help="output path prefix")
    _add_shared(pa)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser(
        "sweep",
        help="analyze a batch of models into one CSV",
        description="Models come from a directory of .model files or a "
                    "semicolon-separated list of inline specs.  Output columns, in "
                    f"order: {SWEEP_COLUMNS}.  Per-r rows fill the first five "
                    "columns; one summary row per model fills the rest.  A failing "
                    "model yields a summary row with an error status; the exit "
                    "code is 0 unless every model fails.",
    )
    ps.add_argument("--models", required=True,
                    help="directory of .model files, or 'spec1;spec2;...'")
    ps.add_argument("--out", default="sweep.csv", help="output CSV path")
    _add_shared(ps)
    ps.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, InvalidArgument, InvalidModel, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NumericsFailure as exc:
        print(f"numerics failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
