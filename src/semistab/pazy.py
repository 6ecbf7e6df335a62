"""Integral criteria on the norm trajectory and the sandwich bound.

Four sufficient conditions, each an improper integral of a weight of the
norm curve over [a, inf):

  (i)   ||T(t)||^p          finite for some p > 0        -> stable
  (ii)  |log||T(t)|||^-p    finite for some p > 1        -> stable
  (iii) |log||T(t)|||^-1    finite                       -> superstable
  (iv)  |log||T(t)|||^-p    bounded as p -> 0            -> extinction

Every criterion integrand has the shape F(-log||T(t)||) for a decreasing
weight F with F(inf) = 0 (exp(-p*x) for norm powers, x^-p for reciprocal
log powers), which is what the sandwich bound exploits: between consecutive
entry times the normalized norm is pinched between e^-r and e^-(r-1), so the
integral is bracketed by sum(u_r * F(r+1)) and sum(u_r * F(r)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import VERDICT_ORDER
from .errors import InvalidArgument
from .entrytime import SearchConfig, final_entry_time
from .numerics import (
    DIVERGENT,
    INCONCLUSIVE,
    VALUE,
    IntegralResult,
    QuadratureSpec,
    TAIL_CLOSED,
    TAIL_DOUBLING,
    integrate_adaptive,
)

INAPPLICABLE = "inapplicable"

#: p values hard-wired to each criterion; (iv) additionally traces a grid.
CRITERION_PS = {"i": (1.0, 2.0), "ii": (1.5, 2.0), "iii": (1.0,)}
DEFAULT_P_TRACE = tuple(2.0**-j for j in range(1, 11))

IMPLIED_CLASS = {"i": "stable", "ii": "stable", "iii": "superstable",
                 "iv": "finite-time-extinction"}


@dataclass(frozen=True)
class NormPower:
    """Weight ||T(t)||^p, i.e. F(x) = exp(-p*x)."""

    p: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise InvalidArgument(f"p must be positive and finite, got {self.p}")

    def of_norms(self, vals):
        return vals**self.p

    def F(self, x):
        if x == math.inf:
            return 0.0
        return math.exp(-self.p * x)

    def label(self):
        return f"norm-power p={self.p:g}"


@dataclass(frozen=True)
class InverseLogPower:
    """Weight |log||T(t)|||^-p, i.e. F(x) = x^-p (F(0) = +inf)."""

    p: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise InvalidArgument(f"p must be positive and finite, got {self.p}")

    def of_norms(self, vals):
        with np.errstate(divide="ignore"):
            x = -np.log(vals)
        out = np.where(x > 0.0, np.where(x > 0.0, x, 1.0) ** (-self.p), math.inf)
        return out

    def F(self, x):
        if x == math.inf:
            return 0.0
        if x <= 0.0:
            return math.inf
        return x**(-self.p)

    def label(self):
        return f"inverse-log-power p={self.p:g}"


def _integrand(traj, weight, norm_floor):
    if isinstance(weight, InverseLogPower):
        # the log-norm route stays exact long after the norm itself would
        # underflow, which is what keeps slowly decaying reciprocal-log tails
        # honest; -inf (extinct) maps to integrand 0
        def f(ts):
            x = -traj.log_evaluate_many(np.asarray(ts, dtype=float), floor=norm_floor)
            out = np.zeros_like(x)
            live = np.isfinite(x)
            with np.errstate(divide="ignore"):
                out[live] = np.where(x[live] > 0.0, np.abs(x[live]) ** (-weight.p), math.inf)
            return out

        return f

    def f(ts):
        vals = traj.evaluate_many(np.asarray(ts, dtype=float))
        out = np.zeros_like(vals)
        live = vals > norm_floor
        if np.any(live):
            out[live] = weight.of_norms(vals[live])
        return out

    return f


def pazy_integral(traj, weight, a, quad=None, *, norm_floor=1e-300, check_applicable=True):
    """Integrate the weighted norm curve from ``a`` to infinity.

    The integrand is zero wherever the norm has sunk to the floor (an extinct
    trajectory contributes nothing past its extinction time, where the
    integration is cut off exactly).  For reciprocal-log weights the norm
    must sit strictly below 1 just past ``a``; a sampled plateau at 1 returns
    the distinct ``inapplicable`` verdict since the integrand would be
    identically infinite there.
    """
    a = float(a)
    if a < 0 or not math.isfinite(a):
        raise InvalidArgument(f"lower limit must be finite and nonnegative, got {a}")
    upper = math.inf
    if traj.extinction_time is not None:
        upper = max(float(traj.extinction_time), a)
    if quad is None:
        quad = QuadratureSpec(lower=a, upper=upper,
                              tail_policy=TAIL_CLOSED if math.isfinite(upper) else TAIL_DOUBLING)
    else:
        upper = min(upper, quad.upper)
        quad = replace(quad, lower=a, upper=upper,
                       tail_policy=TAIL_CLOSED if math.isfinite(upper) else TAIL_DOUBLING)
    if check_applicable and isinstance(weight, InverseLogPower):
        probe_end = min(a + 1.0, upper) if math.isfinite(upper) else a + 1.0
        probes = np.linspace(a, probe_end, 33)
        vals = traj.evaluate_many(probes)
        if np.any((vals >= 1.0) & (vals > norm_floor)):
            return IntegralResult(INAPPLICABLE)
    return integrate_adaptive(_integrand(traj, weight, norm_floor), quad)


# ---------------------------------------------------------------------------
# the four criteria


@dataclass(frozen=True)
class CriterionEntry:
    criterion: str
    weight: str
    p: float
    kind: str
    value: float | None


@dataclass(frozen=True)
class PazyReport:
    """Outcome of all four criteria at a common lower limit ``a``.

    ``fired`` lists the criteria whose integrals certified their class;
    ``implied`` is the strongest class so certified.  ``p_limit_trace``
    records the (iv) integrals along the shrinking p grid and
    ``k_surrogate`` the supremum of the converged small-p half, which
    approximates the extinction time when (iv) fires.
    """

    a: float
    t0: float
    entries: tuple
    p_limit_trace: tuple
    fired: tuple
    implied: str | None
    k_surrogate: float | None
    contradictions: tuple
    overall: str


def pazy_criteria(traj, a=0.0, p_grid=DEFAULT_P_TRACE, *, cfg=None, quad=None,
                  norm_floor=1e-300, t0=None):
    """Evaluate criteria (i)-(iv) with lower limit max(a, t_0) + 1e-6.

    The shift past t_0 keeps the norm at or below 1 on the integration range
    (below it strictly wherever the curve decays), dodging the logarithmic
    singularity at norm 1.  ``t0`` may be passed in when already known from
    an entry-time table.
    """
    cfg = cfg or SearchConfig()
    if t0 is None:
        t0 = final_entry_time(traj, 0, cfg).time
    if math.isinf(t0):
        return PazyReport(
            a=float(a), t0=t0, entries=(), p_limit_trace=(), fired=(),
            implied=None, k_surrogate=None,
            contradictions=(), overall=INAPPLICABLE,
        )
    a_used = max(float(a), float(t0)) + 1e-6

    entries = []
    fired = []

    def run(criterion, weight):
        res = pazy_integral(traj, weight, a_used, quad, norm_floor=norm_floor)
        entries.append(CriterionEntry(criterion, weight.label(), weight.p, res.kind, res.value))
        return res

    for crit, maker in (("i", NormPower), ("ii", InverseLogPower), ("iii", InverseLogPower)):
        if any(run(crit, maker(p)).is_value for p in CRITERION_PS[crit]):
            fired.append(crit)

    trace = []
    for p in sorted(p_grid, reverse=True):
        res = run("iv", InverseLogPower(p))
        trace.append((p, res.kind, res.value))
    converged = [kind == VALUE for _, kind, _ in trace]
    k_surrogate = None
    if trace and all(converged):
        fired.append("iv")
        # limit surrogate: the supremum over the small-p half of the trace
        # (the large-p end overshoots the p->0 limit wherever the log-norm
        # spends time below 1)
        tail = trace[len(trace) // 2:]
        k_surrogate = max(v for _, _, v in tail)

    implied = None
    for crit in fired:
        cls = IMPLIED_CLASS[crit]
        if implied is None or VERDICT_ORDER[cls] > VERDICT_ORDER[implied]:
            implied = cls

    contradictions = []
    if "iv" in fired and "iii" not in fired:
        contradictions.append("extinction certified but the superstability integral did not converge")
    if "iii" in fired and not ("i" in fired or "ii" in fired):
        contradictions.append("superstability certified but no stability integral converged")

    kinds = {e.kind for e in entries}
    overall = INCONCLUSIVE if kinds == {INCONCLUSIVE} else "ok"
    return PazyReport(
        a=a_used, t0=t0, entries=tuple(entries), p_limit_trace=tuple(trace),
        fired=tuple(fired), implied=implied, k_surrogate=k_surrogate,
        contradictions=tuple(contradictions), overall=overall,
    )


# ---------------------------------------------------------------------------
# sandwich bound


@dataclass(frozen=True)
class SandwichResult:
    """sum(u_r F(r+1)) <= integral <= sum(u_r F(r)), with slack for numerics."""

    lower: float
    integral: float
    upper: float
    slack: float
    passed: bool


def ftrick_sandwich(table, traj, weight, *, quad=None, norm_floor=1e-300):
    """Bracket the integral of F(-log||T(t)||) between entry-time sums.

    Requires a contraction trajectory entering the unit ball at time zero
    (t_0 = 0) and a fully finite table.  A reciprocal-log weight has
    F(0) = +inf, so its upper sum is reported as +inf whenever u_0 > 0; a
    divergent integral likewise enters the comparison as +inf.
    """
    if table.has_infinite:
        raise InvalidArgument("sandwich requires a fully finite entry-time table")
    if not traj.is_contraction:
        raise InvalidArgument("sandwich requires a contraction trajectory")
    if table.t[0] > 10.0 * table.time_tol:
        raise InvalidArgument("sandwich requires t_0 = 0")
    lower = 0.0
    upper = 0.0
    for r in range(table.r_max + 1):
        u = table.u[r]
        if u == 0.0:
            continue
        lower += u * weight.F(r + 1.0)
        upper += u * weight.F(float(r))
    res = pazy_integral(traj, weight, 0.0, quad, norm_floor=norm_floor, check_applicable=False)
    if res.kind == VALUE:
        integral = res.value
    elif res.kind == DIVERGENT:
        integral = math.inf
    else:
        raise InvalidArgument("integral verdict inconclusive; cannot test the sandwich")
    slack = 1e-4 * (1.0 + (upper if math.isfinite(upper) else 0.0))
    passed = (lower - slack <= integral) and (integral <= upper + slack)
    return SandwichResult(lower, integral, upper, slack, passed)
