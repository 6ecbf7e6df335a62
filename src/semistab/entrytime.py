"""Final and relative entry times of a norm trajectory.

For each integer r >= 0 the final entry time t_r is the first time after
which the trajectory stays at or below exp(-r) forever; the relative entry
time u_r = t_{r+1} - t_r measures how long the curve needs to gain one more
factor of 1/e.  The u_r sequence is nonincreasing, and its limit behaviour
determines the stability class (see :mod:`semistab.classify`).

Equivalently, t_r is where the envelope M(t) = sup_{s>=t} ||T(s)|| drops
through exp(-r).  One search serves every r.  A scan samples the curve at
t = 0 and at horizon points that double from horizon_start; a general curve
is also sampled on the grid_step lattice.  The reverse cumulative maximum of
the samples is a discrete M, and the last sample at or above exp(-r) and the
sample after it bracket t_r.  A bracket is final once a sustained
below-threshold window follows it; otherwise the horizon doubles.  A
contraction (norm nonincreasing) is its own envelope, so its horizon points
suffice and one sample below a threshold certifies the crossing.  A curve
with a known growth rate omega (||T(t+s)|| <= exp(omega*s) ||T(t)||, as a
matrix semigroup states) has its lattice scanned coarse to fine: only the
lattice cells that may hold an anchor are refined, and the brackets are
those of the full lattice, bit for bit.  All open brackets are then
bisected in lockstep, one batched evaluation per round.  Trajectories that
never settle below the threshold before the horizon cap are reported as
+inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .numerics import LOG_SLACK, NORM_FLOOR, SEARCH_STRIDE

STATUS_EXACT = "exact"
STATUS_BISECTED = "bisected"
STATUS_HORIZON = "horizon"
STATUS_WIDENED = "widened"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the entry-time search.

    ``time_tol`` is the final bisection width; ``grid_step`` the scan
    resolution for trajectories that are not contractions (with a known
    growth rate only the lattice points that can move a bracket are
    evaluated, see :class:`_EnvelopeScan`);
    ``horizon_start`` the first search horizon, and for non-contractions
    also the length of the sustained-below window that certifies a crossing
    as final; ``horizon_cap`` the absolute give-up point.  The value treated
    as an exact zero is not a knob: it is :data:`semistab.numerics.NORM_FLOOR`.
    """

    time_tol: float = 1e-8
    grid_step: float = 1e-3
    horizon_start: float = 16.0
    horizon_cap: float = 1e4

    def __post_init__(self):
        if not (0.0 < self.time_tol < self.grid_step < self.horizon_start <= self.horizon_cap):
            raise InvalidArgument(
                "require 0 < time_tol < grid_step < horizon_start <= horizon_cap"
            )


@dataclass(frozen=True)
class EntryTime:
    """An entry time plus how it was determined.

    ``status`` is one of exact / bisected / horizon / widened; ``tol`` is the
    bracket width actually achieved (inf for horizon-limited results, larger
    than time_tol for widened ones).
    """

    time: float
    status: str
    tol: float


def final_entry_time(traj, r, cfg=None):
    """Entry time of the whole trajectory into the exp(-r) ball."""
    cfg = cfg or SearchConfig()
    _check_r(r)
    return _entry_times(traj, [int(r)], cfg)[0]


def vector_entry_time(model, x, r, cfg=None):
    """Entry time of a single unit-vector orbit of a matrix semigroup."""
    cfg = cfg or SearchConfig()
    _check_r(r)
    return _entry_times(model.vector_trajectory(x), [int(r)], cfg)[0]


def _check_r(r):
    if r < 0 or int(r) != r:
        raise InvalidArgument(f"r must be a nonnegative integer, got {r}")
    if math.exp(-float(r)) <= NORM_FLOOR:
        raise InvalidArgument(f"threshold exp(-{r}) is below the norm floor")


def _entry_times(traj, rs, cfg):
    """Entry times for the increasing r values ``rs``, from one search.

    One envelope scan brackets every threshold, then one lockstep bisection
    narrows all open brackets together.  A bracket whose upper end has
    dropped to an exact zero marks an extinction plateau: every later
    threshold is entered at that same time, exactly.
    """
    thresholds = np.array([math.exp(-r) for r in rs])
    scan = _EnvelopeScan(traj, cfg, thresholds)
    status, lo, hi, f_hi = zip(*(scan.bracket(thr) for thr in thresholds))
    lo, hi, f_hi = np.array(lo), np.array(hi), np.array(f_hi)
    rows = np.flatnonzero([s in (STATUS_BISECTED, STATUS_WIDENED) for s in status])
    _bisect(traj, thresholds, lo, hi, f_hi, rows, cfg.time_tol)
    tols = {STATUS_EXACT: 0.0, STATUS_HORIZON: math.inf, STATUS_BISECTED: cfg.time_tol,
            STATUS_WIDENED: max(cfg.time_tol, cfg.grid_step)}
    entries = [EntryTime(float(t), s, tols[s]) for t, s in zip(0.5 * (lo + hi), status)]
    extinct = rows[f_hi[rows] <= NORM_FLOOR]
    if extinct.size:
        k = extinct[0]
        entries[k + 1:] = [EntryTime(entries[k].time, STATUS_EXACT, 0.0)] * (len(entries) - k - 1)
    return entries


def _bisect(traj, thresholds, lo, hi, f_hi, rows, time_tol):
    """Narrow the brackets ``rows`` of lo, hi in place to width time_tol.

    Each bracket has f(lo) >= threshold > f(hi); every round evaluates the
    midpoints of all brackets still wider than time_tol in one call, and
    f_hi follows hi.
    """
    thr, a, b, fb = thresholds[rows], lo[rows], hi[rows], f_hi[rows]
    while True:
        wide = b - a > time_tol
        if not wide.all():
            done = rows[~wide]
            lo[done], hi[done], f_hi[done] = a[~wide], b[~wide], fb[~wide]
            rows, thr, a, b, fb = rows[wide], thr[wide], a[wide], b[wide], fb[wide]
        if not rows.size:
            return
        mid = 0.5 * (a + b)
        vals = traj.evaluate_many(mid)
        above = vals >= thr
        a = np.where(above, mid, a)
        b = np.where(above, b, mid)
        fb = np.where(above, fb, vals)


class _EnvelopeScan:
    """Samples of a trajectory shared by every threshold, and their envelope.

    The samples always include t = 0 and the horizon points, which double
    from horizon_start up to horizon_cap.  A general curve is also sampled
    on the grid_step lattice up to the current horizon, each point once.
    The reverse cumulative maximum of the samples is a discrete envelope
    M(t) = sup_{s>=t} ||T(s)||, so the last sample at or above exp(-r) is
    where M drops through the threshold: that anchor and the next sample
    bracket t_r.  The anchor is final once horizon_start of quiet lattice
    follows it; otherwise the horizon doubles.  Before a window is scanned
    the horizon point is checked alone: while the curve is still above the
    pending threshold there, nothing earlier can hold an anchor, so the
    window is skipped.  A contraction's norm never rises, so its horizon
    points alone already form its envelope, and one sample below a
    threshold proves every later time below it too.

    With a known growth rate the lattice of a window is scanned coarse to
    fine, and only points that an anchor can depend on are evaluated (see
    :meth:`_lattice`); every bracket, and the sampled maximum that the
    exact-from-zero test reads, is the one the full lattice gives.
    """

    def __init__(self, traj, cfg, thresholds):
        self.traj = traj
        self.cfg = cfg
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.on_lattice = not traj.is_contraction
        # the span of quiet samples after an anchor that makes it final
        self.window = cfg.horizon_start if self.on_lattice else 0.0
        self.horizon = 0.0
        self.k_done = 0  # lattice points k <= k_done are sampled or skipped
        self.ts = np.zeros(1)
        self.vals = np.array([traj.evaluate(0.0)])
        self.neg_envelope = -self.vals  # ascending, for searchsorted

    def bracket(self, threshold):
        """``(status, lo, hi, f(hi))`` for one threshold; lo == hi when already exact.

        Thresholds are bracketed in decreasing order, as they were given.
        """
        cfg = self.cfg
        while True:
            # envelope >= threshold exactly up to the last sample above it
            i = int(self.neg_envelope.searchsorted(-threshold, side="right")) - 1
            anchor = float(self.ts[i]) if i >= 0 else 0.0
            if i >= 0 and anchor >= cfg.horizon_cap:
                return STATUS_HORIZON, math.inf, math.inf, math.inf
            quiet = self.horizon - anchor
            if quiet > 0.0 and quiet >= self.window:
                status = STATUS_BISECTED
                break
            if self.horizon >= cfg.horizon_cap:
                # below threshold at the cap but the quiet window is short:
                # report the best bracket with a widened error bar
                status = STATUS_WIDENED
                break
            self._extend(threshold)
        if -self.neg_envelope[0] <= threshold * (1.0 + 1e-12):
            # the curve never rises above the threshold: inside from t = 0
            return STATUS_EXACT, 0.0, 0.0, math.inf
        hi = min(anchor + cfg.grid_step, self.horizon) if self.on_lattice else float(self.ts[i + 1])
        return status, anchor, hi, float(self.vals[i + 1])

    def _extend(self, threshold):
        cfg = self.cfg
        horizon = min(2.0 * self.horizon if self.horizon else cfg.horizon_start, cfg.horizon_cap)
        at_horizon = self.traj.evaluate(horizon)
        k1 = int(math.floor(horizon / cfg.grid_step))
        ts, vals = [self.ts], [self.vals]
        if self.on_lattice and at_horizon < threshold:
            # otherwise every pending anchor lies at or beyond this horizon
            pending = self.thresholds[self.thresholds <= threshold]
            lattice, lattice_vals = self._lattice(self.k_done + 1, k1, at_horizon, pending)
            ts.append(lattice)
            vals.append(lattice_vals)
        self.horizon, self.k_done = horizon, k1
        self.ts = np.concatenate(ts + [[horizon]])
        self.vals = np.concatenate(vals + [[at_horizon]])
        self.neg_envelope = -np.maximum.accumulate(self.vals[::-1])[::-1]

    def _lattice(self, k0, k1, at_horizon, pending):
        """Times and norms of the lattice points k0..k1 that a bracket can read.

        With no growth bound that is every point, in one call.  Otherwise
        the first pass takes k0, k1 and every SEARCH_STRIDE-th point
        between, and each round evaluates, in one call, the midpoint of
        every gap (a, b) between evaluated points that holds a candidate c
        with S < c <= U.  Here S is the largest sample at or after b, the
        horizon's included, and U = f(a) * exp(max(omega, 0) * (t_b - t_a)
        + slack) bounds the norm inside the gap.  A gap outside that test
        cannot hold the last point with f >= c: that point lies at or after
        b when S >= c, and nothing inside reaches c when U < c.  As S only
        grows, a gap that fails once fails for good.  When the rounds end,
        the last lattice point with f >= c is evaluated for every candidate
        c, and so is the point after it: the gap right of it has S < c <=
        f(a) <= U.  The candidates are the pending thresholds, which fixes
        every anchor and bracket, and the least float above each threshold
        * (1 + 1e-12), so the sampled maximum fails the exact-from-zero test
        in :meth:`bracket` exactly when the full lattice's does.  The slack,
        LOG_SLACK + 2 * eval_error_bound, covers kernel noise; a norm at or
        below NORM_FLOOR (zero or subnormal) has no relative accuracy, so
        there the bound starts from NORM_FLOOR.
        """
        h = self.cfg.grid_step
        rate = max(self.traj.growth_rate, 0.0)
        if math.isinf(rate) or k1 <= k0:
            lattice = np.arange(k0, k1 + 1, dtype=float) * h
            return lattice, self.traj.evaluate_many(lattice)
        cands = np.sort(np.concatenate([pending, np.nextafter(pending * (1.0 + 1e-12), math.inf)]))
        log_cands = np.log(cands)
        slack = LOG_SLACK + 2.0 * self.traj.eval_error_bound
        ks, vals = np.zeros(0, dtype=np.int64), np.zeros(0)
        todo = np.concatenate([[k0], np.arange((k0 // SEARCH_STRIDE + 1) * SEARCH_STRIDE, k1,
                                               SEARCH_STRIDE), [k1]])
        while todo.size:
            ks = np.concatenate([ks, todo])
            vals = np.concatenate([vals, self.traj.evaluate_many(todo * h)])
            order = ks.argsort()
            ks, vals = ks[order], vals[order]
            after = np.maximum(np.maximum.accumulate(vals[::-1])[::-1], at_horizon)
            width = np.diff(ks)
            log_u = np.log(np.maximum(vals[:-1], NORM_FLOOR)) + rate * (width * h) + slack
            # the largest candidate at or below U must lie above S
            n_under = log_cands.searchsorted(log_u, side="right")
            split = (width > 1) & (n_under > 0) & (cands[n_under - 1] > after[1:])
            todo = (ks[:-1][split] + ks[1:][split]) >> 1
        return ks * h, vals


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class EntryTimeTable:
    """Entry times t_0..t_{r_max+1} and relative entry times u_0..u_{r_max}.

    u_r is +inf exactly when t_{r+1} is +inf; statuses record how each t_r
    was determined.  ``monotonicity_defect`` is the largest observed increase
    u_{r+1} - u_r over finite pairs (the sequence should not increase beyond
    bisection noise).
    """

    r_max: int
    t: tuple
    u: tuple
    statuses: tuple
    time_tol: float
    label: str = ""

    @property
    def u_array(self):
        return np.asarray(self.u, dtype=float)

    @property
    def has_infinite(self):
        return any(math.isinf(v) for v in self.u)

    @property
    def monotonicity_defect(self):
        worst = 0.0
        for a, b in zip(self.u, self.u[1:]):
            if math.isfinite(a) and math.isfinite(b):
                worst = max(worst, b - a)
        return worst

    def to_csv(self):
        """Serialize as ``r,t_r,u_r,status`` rows; +inf renders as ``inf``."""
        lines = ["r,t_r,u_r,status"]
        for r in range(self.r_max + 2):
            t = _csv_number(self.t[r])
            u = _csv_number(self.u[r]) if r <= self.r_max else ""
            lines.append(f"{r},{t},{u},{self.statuses[r].status}")
        return "\n".join(lines) + "\n"


def _csv_number(x):
    """A CSV field: 12 significant digits, +/-inf as literals, None empty."""
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def entry_time_table(traj, r_max, cfg=None):
    """Compute t_0..t_{r_max+1} and the u_r differences."""
    cfg = cfg or SearchConfig()
    r_max = int(r_max)
    if r_max < 1:
        raise InvalidArgument(f"r_max must be at least 1, got {r_max}")
    _check_r(r_max + 1)
    entries = _entry_times(traj, range(r_max + 2), cfg)
    t = tuple(e.time for e in entries)
    u = tuple(
        math.inf if math.isinf(t[r + 1]) else t[r + 1] - t[r]
        for r in range(r_max + 1)
    )
    return EntryTimeTable(
        r_max=r_max, t=t, u=u, statuses=tuple(entries),
        time_tol=cfg.time_tol, label=getattr(traj, "label", ""),
    )
