"""Command-line front door: analyze a model spec or sweep a batch of them.

``semistab analyze`` runs the full pipeline (entry times -> classification ->
growth routes -> integral criteria) on one model and writes ``<out>.json``
plus ``<out>.entry.csv``.  ``semistab sweep`` runs many models into one
long-format CSV.  Exit codes: 0 success, 2 bad spec/arguments, 3 numerics
failure, 4 inconclusive classification.

All numbers in reports are rounded to 12 significant digits and +/-inf is
encoded as the strings "inf"/"-inf", so identical runs produce byte-identical
output.  The pipeline uses no random numbers and takes no seed, and a norm
is a pure function of t: the fractional-integration Lanczos kernel starts
from the all-ones vector every time, with no warm start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

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
from .numerics import QuadratureSpec, TAIL_DOUBLING
from .pazy import DEFAULT_P_TRACE, pazy_criteria

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERICS = 3
EXIT_INCONCLUSIVE = 4

SWEEP_COLUMNS = "model,r,t_r,u_r,status,verdict,nu,k,omega_entry"


def _fmt(x):
    """12-significant-digit float formatting; inf as a literal string."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return float(f"{x:.12g}")
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".semistab-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _search_config(args):
    return SearchConfig(
        time_tol=args.time_tol,
        grid_step=args.grid_step,
        horizon_start=args.horizon_start,
        horizon_cap=args.horizon_cap,
        norm_floor=args.norm_floor,
    )


def _thresholds(args):
    return ClassifyThresholds(
        eps_super=args.eps_super,
        eps_tailsum=args.eps_tailsum,
        plateau_window=args.plateau_window,
        tail_decay_ratio=args.tail_decay_ratio,
    )


def analyze_model(model, *, rmax, cfg, th, pazy_a, quad_tols):
    """Run the full pipeline on one built model; returns the report dict."""
    traj = model.trajectory()
    table = entry_time_table(traj, rmax, cfg)
    verdict = classify(table, th)
    grid = default_growth_grid(traj, table, floor=cfg.norm_floor)
    growth = growth_characteristic(traj, table, grid, th=th, floor=cfg.norm_floor)
    indices = stability_and_extinction_indices(traj, table, th=th, floor=cfg.norm_floor)
    quad = QuadratureSpec(lower=0.0, abs_tol=quad_tols[0], rel_tol=quad_tols[1],
                          tail_policy=TAIL_DOUBLING)
    pazy = pazy_criteria(traj, pazy_a, cfg=cfg, quad=quad,
                         norm_floor=cfg.norm_floor, t0=table.t[0])

    report = {
        "tool": {"name": "semistab", "version": __version__},
        "model": model.spec_string(),
        "config": {
            "rmax": rmax,
            "time_tol": cfg.time_tol,
            "grid_step": cfg.grid_step,
            "horizon_start": cfg.horizon_start,
            "horizon_cap": cfg.horizon_cap,
            "norm_floor": cfg.norm_floor,
            "eps_super": th.eps_super,
            "eps_tailsum": th.eps_tailsum,
            "plateau_window": th.plateau_window,
            "tail_decay_ratio": th.tail_decay_ratio,
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


def _read_model_arg(args):
    if args.model and args.model_file:
        raise SpecError("give either --model or --model-file, not both")
    if args.model:
        return args.model
    if args.model_file:
        with open(args.model_file) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
        if len(lines) != 1:
            raise SpecError(f"model file must contain exactly one spec line, found {len(lines)}")
        return lines[0]
    raise SpecError("a model is required (--model or --model-file)")


def cmd_analyze(args):
    spec_text = _read_model_arg(args)
    model = build_model_from_spec(spec_text)
    cfg = _search_config(args)
    th = _thresholds(args)
    if args.rmax < 2 * th.plateau_window:
        raise InvalidArgument(
            f"--rmax must be at least {2 * th.plateau_window} for classification"
        )
    report, table, verdict, pazy = analyze_model(
        model, rmax=args.rmax, cfg=cfg, th=th, pazy_a=args.pazy_a,
        quad_tols=(args.quad_abs_tol, args.quad_rel_tol),
    )
    csv_path = f"{args.out}.entry.csv"
    json_path = f"{args.out}.json"
    report["entry"]["csv"] = os.path.basename(csv_path)
    _write_atomic(csv_path, table.to_csv())
    _write_atomic(json_path, json.dumps(_round_tree(report), indent=2) + "\n")
    summary = f"verdict={verdict.verdict}"
    if verdict.nu is not None:
        summary += f" nu={verdict.nu:.6g}"
    if verdict.k is not None:
        summary += f" k={verdict.k:.6g}"
    print(f"{model.spec_string()}: {summary} -> {json_path}")
    if not verdict.confident or pazy.overall == "inconclusive":
        print("classification inconclusive (horizon-limited searches)", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _iter_sweep_specs(models_arg):
    if os.path.isdir(models_arg):
        names = sorted(os.listdir(models_arg))
        for name in names:
            if name.endswith(".model"):
                with open(os.path.join(models_arg, name)) as fh:
                    text = " ".join(
                        ln.strip() for ln in fh
                        if ln.strip() and not ln.strip().startswith("#")
                    )
                yield text
    else:
        for part in models_arg.split(";"):
            part = part.strip()
            if part:
                yield part


def cmd_sweep(args):
    cfg = _search_config(args)
    th = _thresholds(args)
    if args.rmax < 2 * th.plateau_window:
        raise InvalidArgument(
            f"--rmax must be at least {2 * th.plateau_window} for classification"
        )
    specs = list(_iter_sweep_specs(args.models))
    if not specs:
        raise SpecError("no model specs found")
    lines = [SWEEP_COLUMNS]
    failures = 0
    for spec_text in specs:
        try:
            model = build_model_from_spec(spec_text)
            report, table, verdict, _ = analyze_model(
                model, rmax=args.rmax, cfg=cfg, th=th, pazy_a=args.pazy_a,
                quad_tols=(args.quad_abs_tol, args.quad_rel_tol),
            )
        except (SpecError, InvalidArgument, InvalidModel, NumericsFailure) as exc:
            failures += 1
            print(f"{spec_text}: {exc}", file=sys.stderr)
            lines.append(f'"{spec_text}",summary,,,error:{type(exc).__name__},,,,')
            continue
        name = model.spec_string()
        for r in range(table.r_max + 1):
            t = _csv_number(table.t[r])
            u = _csv_number(table.u[r])
            lines.append(f'"{name}",{r},{t},{u},{table.statuses[r].status},,,,')
        growth = report["growth"]
        lines.append(
            f'"{name}",summary,,,ok,{verdict.verdict},'
            f"{_csv_number(verdict.nu)},{_csv_number(verdict.k)},{_csv_number(growth['omega_entry'])}"
        )
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(specs)} models, {failures} failed)")
    if failures == len(specs):
        return EXIT_SPEC
    return EXIT_OK


def _add_shared(parser):
    parser.add_argument("--rmax", type=int, default=40, help="largest r in the entry-time table")
    parser.add_argument("--time-tol", dest="time_tol", type=float, default=1e-8,
                        help="bisection width for entry times")
    parser.add_argument("--grid-step", dest="grid_step", type=float, default=1e-3,
                        help="scan resolution for non-monotone trajectories")
    parser.add_argument("--horizon-start", dest="horizon_start", type=float, default=16.0,
                        help="initial search span and sustained-below window length")
    parser.add_argument("--horizon-cap", dest="horizon_cap", type=float, default=1e4,
                        help="absolute search horizon; beyond it entry times report inf")
    parser.add_argument("--norm-floor", dest="norm_floor", type=float, default=1e-300,
                        help="norm values at or below this count as exact zero")
    parser.add_argument("--eps-super", dest="eps_super", type=float, default=1e-2,
                        help="u tail mean below this is superstable")
    parser.add_argument("--eps-tailsum", dest="eps_tailsum", type=float, default=1e-3,
                        help="second-half u sum below this accepts finite-time extinction")
    parser.add_argument("--plateau-window", dest="plateau_window", type=int, default=8,
                        help="length of the tail averaging window")
    parser.add_argument("--tail-decay-ratio", dest="tail_decay_ratio", type=float, default=0.85,
                        help="tail/mid window mean ratio at or below this is superstable")
    parser.add_argument("--pazy-a", dest="pazy_a", type=float, default=0.0,
                        help="requested lower integration limit (raised to t_0 automatically)")
    parser.add_argument("--quad-abs-tol", dest="quad_abs_tol", type=float, default=1e-9)
    parser.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float, default=1e-9)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="Entry-time analysis and stability classification of semigroup norm curves.",
        epilog="Exit codes: 0 ok, 2 bad spec/arguments, 3 numerics failure, 4 inconclusive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="analyze one model",
        description="Writes <out>.json (full report) and <out>.entry.csv "
                    "(rows r,t_r,u_r,status; inf rendered as 'inf').",
    )
    pa.add_argument("--model", help='inline model spec, e.g. "scalar-decay nu=2"')
    pa.add_argument("--model-file", dest="model_file", help="file containing one model spec line")
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
    except (SpecError, InvalidArgument, InvalidModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NumericsFailure as exc:
        print(f"numerics failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
