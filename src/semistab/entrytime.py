"""Final and relative entry times of a norm trajectory.

For each integer r >= 0 the final entry time t_r is the first time after
which the trajectory stays at or below exp(-r) forever; the relative entry
time u_r = t_{r+1} - t_r measures how long the curve needs to gain one more
factor of 1/e.  The u_r sequence is nonincreasing, and its limit behaviour
determines the stability class (see :mod:`semistab.classify`).

Equivalently, t_r is where the envelope M(t) = sup_{s>=t} log||T(s)||
drops through the exact threshold -r: every comparison reads the
trajectory's log curve.  One search serves every r.  A scan samples the
curve at t = 0 and at horizon points that double from horizon_start; a
general curve is also sampled on the grid_step lattice.  The reverse
cumulative maximum of the samples is a discrete M, and the last sample at
or above -r and the sample after it bracket t_r.  A bracket is final once
a sustained below-threshold window follows it; otherwise the horizon
doubles.  A contraction (growth rate omega <= 0, norm nonincreasing) is
its own envelope, so its horizon points suffice and one sample below a
threshold certifies the crossing.  Any other curve with a finite growth
rate omega (||T(t+s)|| <= exp(omega*s) ||T(t)||, as a matrix semigroup
states) has its lattice searched coarse to fine by
:func:`growth_bounded_search`, as the overshoot suprema are: only gaps
that may hold an anchor are refined, and the brackets are those of the
full lattice, bit for bit.  All open brackets are then bisected in
lockstep, one batched evaluation per round.  On a contraction each read
decides the side of every midpoint before or after it, for every
threshold, so a round reads only the midpoints still open, together with
one Illinois point per crossing that is not yet pinned to time_tol/4;
wherever the computed curve is nonincreasing the brackets are those of
plain bisection, bit for bit, and a crossing takes a handful of norms
instead of one per halving.  Trajectories that never settle below the
threshold before the horizon cap are reported as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .numerics import LOG_FLOOR, growth_bounded_search

STATUS_EXACT = "exact"
STATUS_BISECTED = "bisected"
STATUS_HORIZON = "horizon"
STATUS_WIDENED = "widened"

# slack, in log norm, of the exact-from-zero test in _EnvelopeScan.bracket.
# The sparse lattice adds a candidate just above threshold + _EXACT_SLACK,
# so it passes that test exactly when the full lattice does.
_EXACT_SLACK = 1e-12

_NO_TIMES = np.zeros(0)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the entry-time search.

    ``time_tol`` is the final bisection width; ``grid_step`` the scan
    resolution for trajectories that are not contractions (with a known
    growth rate only the lattice points that can move a bracket are
    evaluated, see :class:`_EnvelopeScan`);
    ``horizon_start`` the first search horizon, and for non-contractions
    also the length of the sustained-below window that certifies a crossing
    as final; ``horizon_cap`` the absolute give-up point, which must be
    finite.  ``time_tol`` must be at least two ulps of ``horizon_cap``: no
    bracket passes the cap, so every bisection midpoint then lies strictly
    inside its bracket.  The value treated as an exact zero is not a knob:
    it is :data:`semistab.numerics.NORM_FLOOR`, log :data:`~.numerics.LOG_FLOOR`.
    """

    time_tol: float = 1e-8
    grid_step: float = 1e-3
    horizon_start: float = 16.0
    horizon_cap: float = 1e4

    def __post_init__(self):
        if not (0.0 < self.time_tol < self.grid_step < self.horizon_start <= self.horizon_cap
                < math.inf):
            raise InvalidArgument(
                "require 0 < time_tol < grid_step < horizon_start <= horizon_cap < inf"
            )
        if self.time_tol < 2.0 * math.ulp(self.horizon_cap):
            raise InvalidArgument(
                f"time_tol {self.time_tol:g} is below two ulps of horizon_cap "
                f"({2.0 * math.ulp(self.horizon_cap):g}): bisection could not narrow a bracket"
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
    if not (0 <= r < math.inf and int(r) == r):
        raise InvalidArgument(f"r must be a nonnegative integer, got {r}")
    if -float(r) <= LOG_FLOOR:
        raise InvalidArgument(f"threshold exp(-{r}) is below the norm floor")


def _entry_times(traj, rs, cfg):
    """Entry times for the increasing r values ``rs``, from one search.

    One envelope scan brackets every threshold, then one lockstep bisection
    narrows all open brackets together.  The thresholds are the log norms
    -r.  A bracket whose upper end has dropped to the floor marks an
    extinction plateau: every later threshold is entered at that same time,
    exactly.
    """
    thresholds = -np.array(rs, dtype=float)
    scan = _EnvelopeScan(traj, cfg, thresholds)
    status, lo, hi, f_lo, f_hi = zip(*(scan.bracket(thr) for thr in thresholds))
    lo, hi, f_lo, f_hi = np.array(lo), np.array(hi), np.array(f_lo), np.array(f_hi)
    rows = np.flatnonzero([s in (STATUS_BISECTED, STATUS_WIDENED) for s in status])
    _bisect(traj, thresholds, lo, hi, f_lo, f_hi, rows, cfg.time_tol)
    tols = {STATUS_EXACT: 0.0, STATUS_HORIZON: math.inf, STATUS_BISECTED: cfg.time_tol,
            STATUS_WIDENED: max(cfg.time_tol, cfg.grid_step)}
    entries = [EntryTime(float(t), s, tols[s]) for t, s in zip(0.5 * (lo + hi), status)]
    extinct = rows[f_hi[rows] <= LOG_FLOOR]
    if extinct.size:
        k = extinct[0]
        entries[k + 1:] = [EntryTime(entries[k].time, STATUS_EXACT, 0.0)] * (len(entries) - k - 1)
    return entries


def _bisect(traj, thresholds, lo, hi, f_lo, f_hi, rows, time_tol):
    """Narrow the brackets ``rows`` of lo, hi in place to width time_tol.

    Each bracket has f(lo) >= threshold > f(hi), f the log curve and the
    threshold -r, and f_lo, f_hi hold those values.  Every round halves all
    brackets still wider than time_tol at their midpoints, with one batched
    call, and finished rows leave the loop.

    On a general curve every midpoint is evaluated, and f_hi follows hi.
    Rows that share a bracket, as several thresholds do between two horizon
    points or past an extinction plateau's crossing, sit next to each
    other, so each distinct midpoint is evaluated once.  Brackets halve in
    lockstep, so rows whose brackets have parted never share one again:
    once a round finds every midpoint distinct, later rounds skip the test.

    On a contraction (growth rate <= 0) the curve never rises, so a read
    decides the side of every midpoint before or after it, for every row
    (see :class:`_KnownOutcomes`).  Only the midpoints that the reads so far
    leave open are evaluated, each by its own read, and the same call reads
    an Illinois point inside each crossing's interval until it is pinned.
    Wherever the computed curve is nonincreasing, the assumption the
    contraction scan makes too, every known outcome is the evaluated one,
    so the midpoints, brackets and entry times are those of plain
    bisection, bit for bit.  A curve computed with rounding (a nonzero
    eval_error_bound: matrices, fractional integration) may rise by a
    rounding error where it is flat to the last bits, as at a crossing that
    is itself a midpoint, so its reads decide only midpoints at least
    time_tol/8 away and nearer ones are read; an exact closed form needs no
    such margin.  f_hi then holds f(hi) where hi was read, and elsewhere a
    read on the same side of LOG_FLOOR as f(hi), which is all the plateau
    test reads; the upper ends that no read decides are evaluated in one
    last call.
    """
    guard = time_tol / 8.0 if traj.eval_error_bound else 0.0
    known = _KnownOutcomes(thresholds[rows], lo[rows], hi[rows], f_lo[rows], f_hi[rows],
                           time_tol, guard, traj.extinction_time) if traj.is_contraction else None
    every = rows
    thr, a, b, fb = thresholds[rows], lo[rows], hi[rows], f_hi[rows]
    shared = True
    while True:
        wide = b - a > time_tol
        if np.count_nonzero(wide) < wide.size:
            done = rows[~wide]
            lo[done], hi[done] = a[~wide], b[~wide]
            f_hi[done] = known.upper_ends(b[~wide], ~wide) if known else fb[~wide]
            rows, thr, a, b, fb = rows[wide], thr[wide], a[wide], b[wide], fb[wide]
            if known:
                known.keep(wide)
        if not rows.size:
            break
        mid = 0.5 * (a + b)
        if known:
            # a midpoint that no read decides is open, and read
            above, below = mid <= known.above_to, mid >= known.below_from
            unknown, probes = above == below, known.probes()
            if probes.size or np.count_nonzero(unknown):
                m = mid[unknown]
                first = np.ones(m.size, dtype=bool)
                first[1:] = m[1:] != m[:-1]
                ts = np.concatenate([m[first], probes])
                vals = traj.log_evaluate_many(ts)
                above[unknown] = vals[np.cumsum(first) - 1] >= thr[unknown]
                known.learn(ts, vals, probes.size)
            below = ~above
        else:
            if shared:
                first = np.concatenate([[True], mid[1:] != mid[:-1]])
                shared = not first.all()
            vals = (traj.log_evaluate_many(mid[first])[np.cumsum(first) - 1] if shared
                    else traj.log_evaluate_many(mid))
            above = vals >= thr
            below = ~above
            np.putmask(fb, below, vals)
        np.putmask(a, above, mid)
        np.putmask(b, below, mid)
    if known:
        open_ = every[np.isnan(f_hi[every])]
        if open_.size:
            f_hi[open_] = known.resolve(hi[open_], traj)


class _KnownOutcomes:
    """What the reads of a nonincreasing curve prove, row by row.

    A read at s with f(s) >= -r proves f >= -r on [0, s], and one with
    f(s) < -r proves f < -r from s on, so every read informs every row.
    Each row keeps its certified interval (lo, hi), from the last read at
    or above its threshold to the first read below it, the scan's bracket
    ends first, with x = -f at both ends.  A midpoint at or before lo lies
    above the threshold, one at or after hi below it, and only one strictly
    inside is open; with a ``guard`` the decided zones end that far short
    of lo and hi.  The ends are the latest and the earliest read on each
    side, so each is a read on its own side even should the reads rise.

    While an interval is wider than time_tol/4 its row also reads one
    Illinois point inside it (Dowell and Jarratt, BIT 11, 1971): regula
    falsi on g = f + r, where an end kept while the other moves twice
    running has its g halved.  The point is held time_tol/8 inside either
    end, so a crossing met exactly pins with one more read.  A row whose hi
    reads -inf has no secant; bisection's open midpoints narrow it.  A
    curve that states its extinction time E is read at E and at the float
    before it in the first round, which pins every plateau row at once.
    Every step scales with the time unit: the reads of T(ct) are those of
    T(t) over c, for c a power of 2.  Nothing here sorts: a first sort
    maps a further block of numpy's code into memory.
    """

    def __init__(self, thr, lo, hi, f_lo, f_hi, time_tol, guard=0.0, extinction_time=None):
        self.r, self.lo, self.hi, self.x_lo, self.x_hi = -thr, lo, hi, -f_lo, -f_hi
        # x at the scan's upper end, a read at or after every later upper end
        self.x_scan = self.x_hi
        # Illinois: how often each end's g has been halved, and whether the
        # last probing round moved that end alone
        self.halved_lo, self.halved_hi = np.zeros((2, thr.size), dtype=np.int64)
        self.lo_alone, self.hi_alone = np.zeros((2, thr.size), dtype=bool)
        self.index = np.arange(thr.size)
        self.step, self.guard = time_tol / 8.0, guard
        self.above_to, self.below_from = lo - guard, hi + guard
        self.pinning = True
        self.seen = [(lo, self.x_lo), (hi, self.x_hi)]
        e = math.inf if extinction_time is None else float(extinction_time)
        self.seeds = (np.array([math.nextafter(e, 0.0), e]) if np.any((lo < e) & (e <= hi))
                      else _NO_TIMES)

    def keep(self, rows):
        for name in ("r", "lo", "hi", "x_lo", "x_hi", "x_scan", "halved_lo", "halved_hi",
                     "lo_alone", "hi_alone"):
            setattr(self, name, getattr(self, name)[rows])
        self.above_to, self.below_from = self.lo - self.guard, self.hi + self.guard
        self.index = np.arange(self.r.size)

    def probes(self):
        """One Illinois point inside each interval still wider than time_tol/4."""
        if self.seeds.size:
            seeds, self.seeds = self.seeds, _NO_TIMES
            return np.concatenate([seeds, self.probes()])
        if not self.pinning:
            return _NO_TIMES
        lo, hi = self.lo, self.hi
        wide = hi - lo > 2.0 * self.step
        if not np.count_nonzero(wide):
            self.pinning = False
            return _NO_TIMES
        g_lo = np.ldexp(self.r - self.x_lo, -self.halved_lo)
        g_hi = np.ldexp(self.r - self.x_hi, -self.halved_hi)
        p = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        p = np.minimum(np.maximum(p, lo + self.step), hi - self.step)
        return p[wide & (g_hi > -math.inf) & (lo < p) & (p < hi)]

    def learn(self, ts, vals, probed):
        """Narrow every interval with the reads ``vals`` at ``ts``."""
        x = np.negative(vals)
        self.seen.append((ts, x))
        above = x <= self.r[:, None]
        t_above, t_below = np.where(above, ts, -math.inf), np.where(above, math.inf, ts)
        i, j = t_above.argmax(1), t_below.argmin(1)
        up, down = t_above[self.index, i] > self.lo, t_below[self.index, j] < self.hi
        if probed:
            self.halved_lo = (self.halved_lo + (down & self.hi_alone)) * ~up
            self.halved_hi = (self.halved_hi + (up & self.lo_alone)) * ~down
            self.lo_alone, self.hi_alone = up & ~down, down & ~up
        self.lo, self.x_lo = np.where(up, ts[i], self.lo), np.where(up, x[i], self.x_lo)
        self.hi, self.x_hi = np.where(down, ts[j], self.hi), np.where(down, x[j], self.x_hi)
        self.above_to, self.below_from = self.lo - self.guard, self.hi + self.guard

    def upper_ends(self, ends, rows):
        """f at the final upper ends of the rows ``rows``, or a read on its side of LOG_FLOOR.

        An end lies at or after its row's hi, whose read bounds f there
        from above, and at or before the scan's upper end, whose read
        bounds it from below.  NaN where neither decides.
        """
        hi, x_hi, x_scan = self.hi[rows], self.x_hi[rows], self.x_scan[rows]
        out = np.where((ends == hi) | (x_hi >= -LOG_FLOOR), -x_hi, -x_scan)
        out[(ends > hi) & (x_hi < -LOG_FLOOR) & (x_scan >= -LOG_FLOOR)] = math.nan
        return out

    def resolve(self, ends, traj):
        """f at ends no row's own reads decide, as just before a cutoff, or a read on its side.

        The first read at or after each end bounds f there from below and
        the last read before it from above; f at the ends still open is
        evaluated in one call.
        """
        t = np.concatenate([t for t, _ in self.seen])
        x = np.concatenate([x for _, x in self.seen])
        after = np.where(t >= ends[:, None], t, math.inf).argmin(1)
        before = np.where(t < ends[:, None], t, -math.inf).argmax(1)
        from_after = (t[after] == ends) | (x[after] < -LOG_FLOOR)
        out = np.where(from_after, -x[after], -x[before])
        missing = ~from_after & (x[before] < -LOG_FLOOR)
        if np.count_nonzero(missing):
            out[missing] = traj.log_evaluate_many(ends[missing])
        return out


class _EnvelopeScan:
    """Log norm samples of a trajectory shared by every threshold, and their envelope.

    The samples always include t = 0 and the horizon points, which double
    from horizon_start up to horizon_cap.  A general curve is also sampled
    on the grid_step lattice up to the current horizon, each point once.
    The reverse cumulative maximum of the samples is a discrete envelope
    M(t) = sup_{s>=t} log||T(s)||, so the last sample at or above -r is
    where M drops through the threshold: that anchor and the next sample
    bracket t_r.  The anchor is final once horizon_start of quiet lattice
    follows it; otherwise the horizon doubles.  Before a window is scanned
    the horizon point is checked alone: while the curve is still above the
    pending threshold there, nothing earlier can hold an anchor, so the
    window is skipped.  A contraction, a curve with growth rate <= 0,
    never rises, so its horizon points alone already form its envelope, and
    one sample below a threshold proves every later time below it too.

    With a finite positive growth rate the lattice of a window is scanned
    coarse to fine, and only points that an anchor can depend on are
    evaluated (see :meth:`_lattice`); every bracket, and the sampled maximum
    that the exact-from-zero test reads, is the one the full lattice gives.
    With no rate (+inf) the whole lattice of a window is evaluated in one
    call.
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
        self.vals = traj.log_evaluate_many(np.zeros(1))
        self.neg_envelope = -self.vals  # ascending, for searchsorted

    def bracket(self, threshold):
        """``(status, lo, hi, f(lo), f(hi))`` for one log threshold; lo == hi when already exact.

        Thresholds are bracketed in decreasing order, as they were given.
        """
        cfg = self.cfg
        while True:
            # envelope >= threshold exactly up to the last sample above it
            i = int(self.neg_envelope.searchsorted(-threshold, side="right")) - 1
            anchor = float(self.ts[i]) if i >= 0 else 0.0
            if i >= 0 and anchor >= cfg.horizon_cap:
                return STATUS_HORIZON, math.inf, math.inf, math.inf, math.inf
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
        if -self.neg_envelope[0] <= threshold + _EXACT_SLACK:
            # the curve never rises above the threshold: inside from t = 0
            return STATUS_EXACT, 0.0, 0.0, math.inf, math.inf
        hi = min(anchor + cfg.grid_step, self.horizon) if self.on_lattice else float(self.ts[i + 1])
        return status, anchor, hi, float(self.vals[i]), float(self.vals[i + 1])

    def _extend(self, threshold):
        cfg = self.cfg
        horizon = min(2.0 * self.horizon if self.horizon else cfg.horizon_start, cfg.horizon_cap)
        at_horizon = float(self.traj.log_evaluate_many(np.array([horizon]))[0])
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
        """Times and log norms of the lattice points k0..k1 that a bracket can read.

        :func:`growth_bounded_search` keeps a gap (a, b) while it holds a
        candidate c with S < c <= U = head, S the largest sample at or
        after b, the horizon's included.  Any other gap cannot hold the last
        point with f >= c: that point lies at or after b when S >= c, and
        nothing inside reaches c when U < c; and S only grows.  So the last
        point with f >= c is evaluated for every candidate c, and so is the
        point after it, whose gap has S < c <= f(a) <= U.  The candidates
        are the pending thresholds, which fixes every anchor and bracket,
        and the least float above each threshold + _EXACT_SLACK, so the
        sampled maximum fails the exact-from-zero test in :meth:`bracket`
        exactly when the full lattice's does.
        """
        step = self.cfg.grid_step
        above = np.nextafter(pending + _EXACT_SLACK, math.inf)
        cands = np.sort(np.concatenate([pending, above]))

        ks, vals = np.zeros(0, dtype=np.int64), np.zeros(0)  # every sample so far, in order

        def keep(new, fresh, hi, head):
            nonlocal ks, vals
            ks, vals = np.concatenate([ks, new]), np.concatenate([vals, fresh])
            order = ks.argsort()
            ks, vals = ks[order], vals[order]
            after = np.maximum.accumulate(vals[::-1])[::-1][ks.searchsorted(hi)]
            # the largest candidate at or below U must lie above S
            n_under = cands.searchsorted(head, side="right")
            return (n_under > 0) & (cands[n_under - 1] > np.maximum(after, at_horizon))

        def time_at(i):
            return (k0 + i) * step

        growth_bounded_search(self.traj, k1 - k0 + 1, time_at, True, keep)
        return time_at(ks), vals


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
    def t_hi(self):
        """The last finite entry time, or 32.0 when t_0 is already infinite.

        The growth and index sample grids reach past it.
        """
        finite = [x for x in self.t if math.isfinite(x)]
        return max(finite) if finite else 32.0

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
    if not (1 <= r_max < math.inf and int(r_max) == r_max):
        raise InvalidArgument(f"r_max must be an integer of at least 1, got {r_max}")
    r_max = int(r_max)
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
