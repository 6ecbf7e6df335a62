"""Integral criteria on the norm trajectory and the sandwich bound.

Four sufficient conditions, each an improper integral of a weight of the
norm curve over [a, inf):

  (i)   ||T(t)||^p          finite for some p > 0        -> stable
  (ii)  |log||T(t)|||^-p    finite for some p > 1        -> stable
  (iii) |log||T(t)|||^-1    finite                       -> superstable
  (iv)  |log||T(t)|||^-p    bounded as p -> 0            -> extinction

Every criterion integrand is F(x(t)) for one curve x(t) = -log||T(t)|| and
a decreasing weight F with F(inf) = 0 (exp(-p*x) for norm powers, x^-p for
reciprocal log powers).  Each weight has one vectorized F, and one
:func:`pazy_criteria` call reads x(t) through a single curve that evaluates
each quadrature node array once, however many weights integrate over it.
The same F gives the sandwich bound: between consecutive entry times the
normalized norm is pinched between e^-r and e^-(r-1), so the integral is
bracketed by sum(u_r * F(r+1)) and sum(u_r * F(r)).
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
    integrate_adaptive,
)

INAPPLICABLE = "inapplicable"

#: p values hard-wired to each criterion; (iv) also traces DEFAULT_P_TRACE, largest p first.
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

    def F(self, x):
        """exp(-p*x) on an array of x; F(inf) = 0."""
        return np.exp(-self.p * np.asarray(x, dtype=float))

    def label(self):
        return f"norm-power p={self.p:g}"


@dataclass(frozen=True)
class InverseLogPower:
    """Weight |log||T(t)|||^-p, i.e. F(x) = x^-p (F(0) = +inf)."""

    p: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise InvalidArgument(f"p must be positive and finite, got {self.p}")

    def F(self, x):
        """x^-p on an array of x; F(inf) = 0, and F = +inf where x <= 0 or x^-p overflows."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0.0, np.abs(x) ** (-self.p), math.inf)

    def label(self):
        return f"inverse-log-power p={self.p:g}"


def _curve(traj):
    """x(ts) = -log||T(ts)||, +inf where extinct, evaluated once per node array.

    The log route stays exact long after the norm itself would underflow,
    which keeps slowly decaying reciprocal-log tails honest.  The criteria
    integrate many weights over the same quadrature panels, so each distinct
    array of times is evaluated once; the cache lives as long as the curve.
    """
    seen = {}

    def x(ts):
        ts = np.asarray(ts, dtype=float)
        key = ts.tobytes()
        if key not in seen:
            seen[key] = -traj.log_evaluate_many(ts)
        return seen[key]

    return x


def pazy_integral(traj, weight, a, quad=None, *, check_applicable=True):
    """Integrate the weighted norm curve from ``a`` to infinity.

    The integrand is zero only where the model's log norm is -inf: past a
    cutoff, where the integration is cut off exactly at the extinction
    time, and where a fractional-integration norm is at or below
    NORM_FLOOR.  Closed forms and matrices keep x finite at every finite
    time, however small the norm.  A reciprocal-log weight is probed
    at 33 points of [a, a + 1] first: where it is infinite there, at a norm
    of 1 or above, or where x = -log||T(t)|| is so small that x^-p
    overflows, the integral returns the distinct ``inapplicable`` verdict.
    """
    return _integral(traj, _curve(traj), weight, a, quad, check_applicable)


def _integral(traj, x, weight, a, quad, check_applicable):
    """:func:`pazy_integral` on the curve ``x`` of ``traj``."""
    a = float(a)
    if a < 0 or not math.isfinite(a):
        raise InvalidArgument(f"lower limit must be finite and nonnegative, got {a}")
    upper = math.inf
    if traj.extinction_time is not None:
        upper = max(float(traj.extinction_time), a)
    if quad is None:
        quad = QuadratureSpec(lower=a)
    upper = min(upper, quad.upper)
    quad = replace(quad, lower=a, upper=upper)
    if check_applicable and isinstance(weight, InverseLogPower):
        if np.isinf(weight.F(x(np.linspace(a, min(a + 1.0, upper), 33)))).any():
            return IntegralResult(INAPPLICABLE)
    return integrate_adaptive(lambda ts: weight.F(x(ts)), quad)


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


def pazy_criteria(traj, a=0.0, *, cfg=None, quad=None, t0=None):
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

    x = _curve(traj)
    entries = []
    fired = []

    def run(criterion, weight):
        res = _integral(traj, x, weight, a_used, quad, check_applicable=True)
        entries.append(CriterionEntry(criterion, weight.label(), weight.p, res.kind, res.value))
        return res

    for crit, maker in (("i", NormPower), ("ii", InverseLogPower), ("iii", InverseLogPower)):
        if any(run(crit, maker(p)).is_value for p in CRITERION_PS[crit]):
            fired.append(crit)

    trace = []
    for p in DEFAULT_P_TRACE:
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


def ftrick_sandwich(table, traj, weight, *, quad=None):
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
        lower += u * float(weight.F(r + 1.0))
        upper += u * float(weight.F(float(r)))
    res = pazy_integral(traj, weight, 0.0, quad, check_applicable=False)
    if res.kind == VALUE:
        integral = res.value
    elif res.kind == DIVERGENT:
        integral = math.inf
    else:
        raise InvalidArgument("integral verdict inconclusive; cannot test the sandwich")
    slack = 1e-4 * (1.0 + (upper if math.isfinite(upper) else 0.0))
    passed = (lower - slack <= integral) and (integral <= upper + slack)
    return SandwichResult(lower, integral, upper, slack, passed)
