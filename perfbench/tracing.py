"""Span tracing around semistab's module boundaries, from outside the package.

``Tracer.install()`` replaces selected module attributes and class methods
with timing wrappers; ``Tracer.uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.  Wrappers are placed where the caller
looks the name up: the stage functions as ``semistab.cli`` imports them,
the numerics kernels as ``semistab.models`` imports them, and the
quadrature as ``semistab.pazy`` imports it.

Spans are kept in memory in flat columns (one row per call): the span's
name, its parent span, the analysis it belongs to, start and end times, the
time covered by its children (so self time is end - start - children), a
size (points, matrices or iterations) and a flag (memo hit).  Two inherited
columns record the enclosing pipeline stage and whether the call sits under
a quadrature, so counts can be attributed to the stage that caused them.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (target, attribute, span name, layer).  Targets are resolved lazily so the
# module imports without semistab on the path.
_STAGES = (
    ("cli", "analyze_model", "cli.analyze_model", "cli"),
    ("cli", "build_model_from_spec", "cli.build_model_from_spec", "models"),
    ("cli", "entry_time_table", "cli.entry_time_table", "entrytime"),
    ("cli", "classify", "cli.classify", "classify"),
    ("cli", "default_growth_grid", "cli.default_growth_grid", "classify"),
    ("cli", "growth_characteristic", "cli.growth_characteristic", "classify"),
    ("cli", "stability_and_extinction_indices", "cli.stability_and_extinction_indices", "classify"),
    ("cli", "pazy_criteria", "cli.pazy_criteria", "pazy"),
)
_KERNELS = (
    ("models", "_expm", "models._expm", "numerics"),
    ("models", "matrix_exponential", "models.matrix_exponential", "numerics"),
    ("models", "_power_iteration", "models._power_iteration", "numerics"),
    ("models", "operator_norm", "models.operator_norm", "numerics"),
    ("models", "operator_norms_batch", "models.operator_norms_batch", "numerics"),
    ("pazy", "integrate_adaptive", "pazy.integrate_adaptive", "numerics"),
)
_TRAJECTORY_METHODS = ("evaluate", "evaluate_many", "log_evaluate_many")
_MODEL_CLASSES = ("ScalarDecay", "GaussianShift", "NilpotentShift", "DampedNilpotent",
                  "MatrixSemigroup", "FractionalIntegration")
_MODEL_METHODS = ("norm_at", "norm_at_many", "trajectory", "log_norm_at", "kernel_matrix")

LAYERS = ("cli", "entrytime", "classify", "pazy", "models", "numerics")
ROOT = "cli.main"


def _points(args):
    return int(np.size(args[1]))


def _matrices(args):
    return int(np.shape(args[0])[0]) if np.ndim(args[0]) == 3 else 0


def _memo_hit(args):
    model, t = args[0], args[1]
    memo = getattr(model, "_memo", None)
    return 1 if memo is not None and round(float(t), 12) in memo else 0


class Tracer:
    def __init__(self):
        import semistab.cli
        import semistab.models
        import semistab.pazy

        self._modules = {"cli": semistab.cli, "models": semistab.models, "pazy": semistab.pazy}
        self.names = [ROOT]
        self.layer_of = {ROOT: "cli"}
        self._stage_codes = {0}
        self._quad_code = None
        self._patches = []
        self.analysis = -1
        self._stack = []
        self._totals = {}
        self.reset()

    # -- storage ---------------------------------------------------------

    def reset(self):
        self.c_name = array("h")
        self.c_parent = array("i")
        self.c_analysis = array("i")
        self.c_stage = array("h")
        self.c_quad = array("b")
        self.c_start = array("d")
        self.c_end = array("d")
        self.c_child = array("d")
        self.c_size = array("i")
        self.c_flag = array("b")
        self._stack = []

    def _code(self, name, layer):
        if name not in self.layer_of:
            self.layer_of[name] = layer
            self.names.append(name)
        return self.names.index(name)

    def open(self, code, size=0, flag=0):
        stack = self._stack
        parent = stack[-1] if stack else -1
        if code in self._stage_codes or parent < 0:
            stage = code
        else:
            stage = self.c_stage[parent]
        quad = 1 if code == self._quad_code else (self.c_quad[parent] if parent >= 0 else 0)
        i = len(self.c_name)
        self.c_name.append(code)
        self.c_parent.append(parent)
        self.c_analysis.append(self.analysis)
        self.c_stage.append(stage)
        self.c_quad.append(quad)
        self.c_child.append(0.0)
        self.c_size.append(size)
        self.c_flag.append(flag)
        self.c_end.append(0.0)
        stack.append(i)
        self.c_start.append(time.perf_counter())
        return i

    def close(self, i):
        end = time.perf_counter()
        self.c_end[i] = end
        self._stack.pop()
        parent = self.c_parent[i]
        if parent >= 0:
            self.c_child[parent] += end - self.c_start[i]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, layer, size=None, flag=None, result_size=None):
        code = self._code(name, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(code, size(args) if size else 0, flag(args) if flag else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if result_size is not None:
                tracer.c_size[i] = result_size(out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            return
        mods = self._modules
        for target, attr, name, layer in _STAGES:
            self._stage_codes.add(self._code(name, layer))
            self._patch(mods[target], attr, self._wrap(getattr(mods[target], attr), name, layer))
        for target, attr, name, layer in _KERNELS:
            kwargs = {}
            if attr == "_power_iteration":
                kwargs["result_size"] = lambda out: int(out[2])
            elif attr == "operator_norms_batch":
                kwargs["size"] = _matrices
            self._patch(mods[target], attr,
                        self._wrap(getattr(mods[target], attr), name, layer, **kwargs))
        self._quad_code = self._code("pazy.integrate_adaptive", "numerics")
        traj_cls = mods["models"].NormTrajectory
        for attr in _TRAJECTORY_METHODS:
            size = None if attr == "evaluate" else _points
            self._patch(traj_cls, attr, self._wrap(getattr(traj_cls, attr),
                                                   f"NormTrajectory.{attr}", "models", size=size))
        for cls_name in _MODEL_CLASSES:
            cls = getattr(mods["models"], cls_name)
            for attr in _MODEL_METHODS:
                if not hasattr(cls, attr):
                    continue
                kwargs = {}
                if attr == "norm_at":
                    kwargs["flag"] = _memo_hit
                elif attr == "norm_at_many":
                    kwargs["size"] = _points
                self._patch(cls, attr, self._wrap(getattr(cls, attr), f"{cls_name}.{attr}",
                                                  "models", **kwargs))

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- metrics ---------------------------------------------------------

    def _sums(self):
        """Per-layer sums over the spans recorded since the last reset."""
        names = np.array(self.names, dtype=object)
        code = np.frombuffer(self.c_name, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.c_parent, dtype=np.int32).astype(np.int64)
        stage = np.frombuffer(self.c_stage, dtype=np.int16).astype(np.int64)
        quad = np.frombuffer(self.c_quad, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.c_end, dtype=float) - np.frombuffer(self.c_start, dtype=float)
        self_time = dur - np.frombuffer(self.c_child, dtype=float)
        size = np.frombuffer(self.c_size, dtype=np.int32).astype(np.int64)
        flag = np.frombuffer(self.c_flag, dtype=np.int8)

        def mask(*wanted):
            return np.isin(code, [self.names.index(w) for w in wanted if w in self.names])

        def suffix(tail):
            return mask(*[n for n in self.names if n.endswith(tail)])

        def stage_is(name):
            return stage == self.names.index(name)

        layer_code = np.array([LAYERS.index(self.layer_of[n]) for n in names])
        span_layer = layer_code[code]
        m = {}
        main = mask(ROOT)
        analyze = mask("cli.analyze_model")
        m["cli.report_s"] = float(dur[main].sum() - dur[analyze].sum())

        ev = mask("NormTrajectory.evaluate")
        ev_many = mask("NormTrajectory.evaluate_many")
        log_many = mask("NormTrajectory.log_evaluate_many")
        in_table = stage_is("cli.entry_time_table")
        m["entrytime.table_s"] = float(dur[mask("cli.entry_time_table")].sum())
        m["entrytime.evaluate_calls"] = int((ev & in_table).sum())
        m["entrytime.evaluate_many_points"] = int(size[ev_many & in_table].sum())

        m["classify.classify_s"] = float(dur[mask("cli.classify")].sum())
        m["classify.growth_s"] = float(dur[mask("cli.default_growth_grid",
                                                "cli.growth_characteristic")].sum())
        m["classify.indices_s"] = float(dur[mask("cli.stability_and_extinction_indices")].sum())

        integ = mask("pazy.integrate_adaptive")
        m["pazy.criteria_s"] = float(dur[mask("cli.pazy_criteria")].sum())
        m["pazy.integrals"] = int(integ.sum())
        # integrand evaluations: the outermost trajectory calls under a quadrature
        top_traj = (ev | ev_many | log_many) & quad
        top_traj &= ~np.isin(parent, np.flatnonzero(ev | ev_many | log_many))
        m["pazy.integrand_points"] = int(size[top_traj & (ev_many | log_many)].sum()
                                         + (top_traj & ev).sum())

        traj_any = ev | ev_many | log_many
        nested = np.isin(parent, np.flatnonzero(traj_any))
        m["models.trajectory_s"] = float(dur[traj_any & ~nested].sum())
        norm_at = suffix(".norm_at")
        many = suffix(".norm_at_many")
        m["models.norm_at_calls"] = int(norm_at.sum())
        m["models.norm_at_s"] = float(dur[norm_at].sum())
        m["models.norm_at_many_points"] = int(size[many].sum())
        m["models.norm_at_many_s"] = float(dur[many].sum())
        m["models.log_norm_points"] = int(size[log_many].sum())
        kern = suffix(".kernel_matrix")
        m["models.kernel_matrix_calls"] = int(kern.sum())
        m["models.kernel_matrix_s"] = float(dur[kern].sum())
        under_many = np.zeros(code.size, dtype=bool)
        has_parent = parent >= 0
        under_many[has_parent] = many[parent[has_parent]]
        fallback = norm_at & under_many
        m["models.fallback_points"] = int(fallback.sum())
        mat_many = mask("MatrixSemigroup.norm_at_many")
        mat_points = int(size[mat_many].sum())
        mat_fallback = np.zeros(code.size, dtype=bool)
        mat_fallback[has_parent] = mat_many[parent[has_parent]]
        mat_fallback &= norm_at
        m["lattice_points"] = mat_points
        m["lattice_fallback"] = int(mat_fallback.sum())
        memo_models = mask("MatrixSemigroup.norm_at", "FractionalIntegration.norm_at")
        m["memo_calls"] = int(memo_models.sum())
        m["memo_hits"] = int(flag[memo_models].sum())

        expm = mask("models._expm", "models.matrix_exponential")
        power = mask("models._power_iteration", "models.operator_norm")
        batch = mask("models.operator_norms_batch")
        m["numerics.expm_calls"] = int(expm.sum())
        m["numerics.expm_s"] = float(dur[expm].sum())
        m["numerics.power_iter_calls"] = int(power.sum())
        m["numerics.power_iter_iters"] = int(size[mask("models._power_iteration")].sum())
        m["numerics.power_iter_s"] = float(dur[power].sum())
        m["numerics.norms_batch_matrices"] = int(size[batch].sum())
        m["numerics.norms_batch_s"] = float(dur[batch].sum())
        m["numerics.quad_self_s"] = float(self_time[integ].sum())

        for i, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = float(self_time[span_layer == i].sum())
        m["trace.spans"] = int(code.size)
        return m

    def run_analysis(self, analysis_id, call):
        """Run ``call()`` as the root span of analysis ``analysis_id``.

        The analysis's spans are folded into the round totals when it ends
        and then dropped, so memory holds one analysis's spans at a time.
        """
        self.analysis = analysis_id
        i = self.open(0)
        try:
            return call()
        finally:
            self.close(i)
            for name, value in self._sums().items():
                self._totals[name] = self._totals.get(name, 0) + value
            self.reset()

    def round_metrics(self):
        """Per-layer metrics of the analyses run since the last call."""
        m = self._totals
        self._totals = {}
        points, fallback = m.pop("lattice_points"), m.pop("lattice_fallback")
        m["models.lattice_ratio"] = (points - fallback) / points if points else 0.0
        calls, hits = m.pop("memo_calls"), m.pop("memo_hits")
        m["models.memo_hit_ratio"] = hits / calls if calls else 0.0
        return m
