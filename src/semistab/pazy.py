"""Integral criteria on the norm trajectory and the sandwich bound.

Four sufficient conditions, each an improper integral of a weight of the
norm curve over [a, inf):

  (i)   ||T(t)||^p          finite for some p > 0        -> stable
  (ii)  |log||T(t)|||^-p    finite for some p > 1        -> stable
  (iii) |log||T(t)|||^-1    finite                       -> superstable
  (iv)  |log||T(t)|||^-p    bounded as p -> 0            -> extinction

Every criterion integrand is F(x(t)) for one curve x(t) = -log||T(t)|| and
a decreasing weight F with F(inf) = 0 (exp(-p*x) for norm powers, x^-p for
reciprocal log powers).  Each weight class has one vectorized F, for one p
or a stack of them.  One :func:`pazy_criteria` call is one lockstep
integration in two phases: every weight of the first phase integrates on
one shared, adaptively refined mesh, and the few weights of the second
re-read its panels.  The curve reads each time once, however many weights
integrate over it.  The same F gives the sandwich bound: between
consecutive entry times the normalized norm is pinched between e^-r and
e^-(r-1), so the integral is bracketed by sum(u_r * F(r+1)) and
sum(u_r * F(r)).
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
    ReadStore,
    integrate_adaptive,
)

INAPPLICABLE = "inapplicable"

#: p values hard-wired to each criterion; (iv) also traces DEFAULT_P_TRACE, largest p first.
CRITERION_PS = {"i": (1.0, 2.0), "ii": (1.5, 2.0), "iii": (1.0,)}
DEFAULT_P_TRACE = tuple(2.0**-j for j in range(1, 11))

IMPLIED_CLASS = {"i": "stable", "ii": "stable", "iii": "superstable",
                 "iv": "finite-time-extinction"}


@dataclass(frozen=True)
class _Weight:
    """A weight F of the curve x = -log||T(t)||, with exponent p; ``values`` is F at many p."""

    p: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise InvalidArgument(f"p must be positive and finite, got {self.p}")

    def F(self, x):
        """F on an array of x: the one-row case of ``values``."""
        return self.values((self.p,), x)[0]

    def label(self):
        return f"{self.name} p={self.p:g}"


@dataclass(frozen=True)
class NormPower(_Weight):
    """Weight ||T(t)||^p, i.e. F(x) = exp(-p*x)."""

    name = "norm-power"

    @staticmethod
    def values(ps, x):
        """exp(-p*x) on an array of x, one row per p of ``ps``; F(inf) = 0."""
        return np.exp(-np.multiply.outer(ps, np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class InverseLogPower(_Weight):
    """Weight |log||T(t)|||^-p, i.e. F(x) = x^-p (F(0) = +inf)."""

    name = "inverse-log-power"

    @staticmethod
    def values(ps, x):
        """x^-p on an array of x, one row per p of ``ps``; F(inf) = 0, and F = +inf
        where x <= 0 or x^-p overflows."""
        x = np.asarray(x, dtype=float)
        q = -np.reshape(ps, (-1,) + (1,) * x.ndim)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0.0, np.abs(x) ** q, math.inf)


def _curve(traj):
    """x(ts) = -log||T(ts)||, +inf where extinct, each time read from ``traj`` once.

    The log route stays exact long after the norm itself would underflow,
    which keeps slowly decaying reciprocal-log tails honest.  The criteria's
    second phase re-reads panels of the first, so the curve reads through
    one :class:`~.numerics.ReadStore`, which passes on only the times not
    read before: a norm is a pure function of t.
    """
    store = ReadStore(traj)
    return lambda ts: -store.read(ts)


def pazy_integral(traj, weight, a, quad=None, *, check_applicable=True):
    """Integrate the weighted norm curve from ``a`` to infinity.

    The integrand is zero only where the model's log norm is -inf: past a
    cutoff, where the integration is cut off exactly at the extinction
    time, and where a fractional-integration norm is at or below
    NORM_FLOOR.  There every weight reads exactly 0, and the quadrature
    cuts the panel holding the step to 0 in three around its edge nodes
    rather than halving it.  Closed forms and matrices keep x finite at
    every finite time, however small the norm.  A reciprocal-log weight is
    probed at 33 points of [a, a + 1] first: where it is infinite there, at
    a norm of 1 or above, or where x = -log||T(t)|| is so small that x^-p
    overflows, the integral returns the distinct ``inapplicable`` verdict.
    This is the one-weight case of the lockstep quadrature the criteria run.
    """
    return _integrals(traj, _curve(traj), (weight,), a, quad, check_applicable)[0]


def _integrals(traj, x, weights, a, quad, check_applicable):
    """:func:`pazy_integral` of each of ``weights`` on the curve ``x``, in one lockstep quadrature."""
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
    results = [None] * len(weights)
    if check_applicable and any(isinstance(w, InverseLogPower) for w in weights):
        probe = x(np.linspace(a, min(a + 1.0, upper), 33))
        results = [IntegralResult(INAPPLICABLE)
                   if isinstance(w, InverseLogPower) and np.isinf(w.F(probe)).any() else None
                   for w in weights]
    stack = [w for w, res in zip(weights, results) if res is None]
    if stack:
        # the rows of each weight class, for one array operation per class
        classes = {type(w): [i for i, v in enumerate(stack) if type(v) is type(w)] for w in stack}

        def f(ts):
            xs = x(ts)
            out = np.empty((len(stack), xs.size))
            for cls, rows in classes.items():
                out[rows] = cls.values([stack[i].p for i in rows], xs)
            return out

        stacked = iter(integrate_adaptive(f, quad))
        results = [next(stacked) if res is None else res for res in results]
    return results


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

    The integrals run as one lockstep quadrature on a shared mesh, in two
    phases.  The first stacks (i) at p = 1, (ii) at p = 1.5, (iii) and the
    ten (iv) weights; the second stacks (i) and (ii) at p = 2, each only
    where its first p did not converge.  Entries come out criterion by
    criterion, smaller p first within (i) and (ii).
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

    # phase one: the first p of (i)-(iii) and the whole (iv) trace; phase
    # two: the other p of (i) and (ii), only where the first did not converge
    x = _curve(traj)
    makers = {"i": NormPower, "ii": InverseLogPower, "iii": InverseLogPower}
    runs = [(crit, maker(CRITERION_PS[crit][0])) for crit, maker in makers.items()]
    runs += [("iv", InverseLogPower(p)) for p in DEFAULT_P_TRACE]
    results = _integrals(traj, x, [w for _, w in runs], a_used, quad, True)
    again = [(crit, makers[crit](p)) for (crit, _), res in zip(runs, results)
             if crit in makers and not res.is_value for p in CRITERION_PS[crit][1:]]
    results += _integrals(traj, x, [w for _, w in again], a_used, quad, True)
    order = list(IMPLIED_CLASS)
    entries = sorted((CriterionEntry(crit, w.label(), w.p, res.kind, res.value)
                      for (crit, w), res in zip(runs + again, results)),
                     key=lambda e: order.index(e.criterion))
    fired = [crit for crit in makers
             if any(e.kind == VALUE for e in entries if e.criterion == crit)]

    trace = [(e.p, e.kind, e.value) for e in entries if e.criterion == "iv"]
    k_surrogate = None
    if trace and all(kind == VALUE for _, kind, _ in trace):
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
