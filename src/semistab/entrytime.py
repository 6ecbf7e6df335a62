"""Final and relative entry times of a norm trajectory.

For each integer r >= 0 the final entry time t_r is the first time after
which the trajectory stays at or below exp(-r) forever; the relative entry
time u_r = t_{r+1} - t_r measures how long the curve needs to gain one more
factor of 1/e.  The u_r sequence is nonincreasing, and its limit behaviour
determines the stability class (see :mod:`semistab.classify`).

Equivalently, t_r is where the envelope M(t) = sup_{s>=t} log||T(s)||
drops through the exact threshold -r: every comparison reads the
trajectory's log curve.  One search serves every r, and its scan reads go
through one :class:`~.numerics.ReadStore`, the sorted (t, log) reads so
far, which reads each time once.  A scan samples the curve at t = 0 and
at horizon points that double from horizon_start; a general curve is also
sampled on the grid_step lattice.  The reverse cumulative maximum of the
store is a discrete M, and the last sample at or above -r and the sample
after it bracket t_r.  A bracket is final once a sustained below-threshold
window follows it; otherwise the horizon doubles.  A contraction (growth
rate omega <= 0, norm nonincreasing) is its own envelope, so its horizon
points suffice and one sample below a threshold certifies the crossing.
Any other curve with a finite growth rate omega (||T(t+s)|| <=
exp(omega*s) ||T(t)||, as a matrix semigroup states) has its lattice
searched coarse to fine by :func:`growth_bounded_search`, as the overshoot
suprema are: only gaps that may hold an anchor are refined, and the
brackets are those of the full lattice, bit for bit.  All open brackets
are then bisected in lockstep, one batched read per round.  On a curve
that may rise each midpoint lies strictly inside one lattice cell, so no
earlier read repeats it, and the rounds read the curve itself.  On a
contraction the rounds read through the store, whose lookups give, for
every threshold, the latest read at or above it and the earliest read
below it, and these decide the side of every midpoint before or after
them, so a round reads only the midpoints still open, together with one
Illinois point per crossing that is not yet pinned to time_tol/4;
wherever the computed curve is nonincreasing the brackets are those of
plain bisection, bit for bit, and a crossing takes a handful of norms
instead of one per halving.
Trajectories that never settle below the threshold before the horizon cap
are reported as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .numerics import LOG_SLACK, ReadStore, growth_bounded_search

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
    inside its bracket.  An exact zero is not a knob either: it is a log of
    -inf that the model states, and no finite log, however small, reads as
    one.
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


def _check_r(r):
    if not (0 <= r < math.inf and int(r) == r):
        raise InvalidArgument(f"r must be a nonnegative integer, got {r}")


def _entry_times(traj, rs, cfg):
    """Entry times for the increasing r values ``rs``, from one search.

    One envelope scan brackets every threshold, then one lockstep bisection
    narrows all open brackets together; the scan reads through one
    :class:`~.numerics.ReadStore`, and so does the bisection of a
    contraction.  The thresholds are the log norms -r.  A
    bracket whose upper end reads -inf, an exact zero the model states,
    marks an extinction plateau: every later threshold is entered at that
    same time, exactly.
    """
    thresholds = -np.array(rs, dtype=float)
    store = ReadStore(traj)
    scan = _EnvelopeScan(store, cfg, thresholds)
    status, lo, hi, f_hi = zip(*(scan.bracket(thr) for thr in thresholds))
    lo, hi, f_hi = np.array(lo), np.array(hi), np.array(f_hi)
    rows = np.flatnonzero([s in (STATUS_BISECTED, STATUS_WIDENED) for s in status])
    _bisect(store, thresholds, lo, hi, f_hi, rows, cfg.time_tol)
    tols = {STATUS_EXACT: 0.0, STATUS_HORIZON: math.inf, STATUS_BISECTED: cfg.time_tol,
            STATUS_WIDENED: max(cfg.time_tol, cfg.grid_step)}
    entries = [EntryTime(float(t), s, tols[s]) for t, s in zip(0.5 * (lo + hi), status)]
    extinct = rows[f_hi[rows] == -math.inf]
    if extinct.size:
        k = extinct[0]
        entries[k + 1:] = [EntryTime(entries[k].time, STATUS_EXACT, 0.0)] * (len(entries) - k - 1)
    return entries


def _bisect(store, thresholds, lo, hi, f_hi, rows, time_tol):
    """Narrow the brackets ``rows`` of lo, hi in place to width time_tol.

    Each bracket has f(lo) >= threshold > f(hi), f the log curve and the
    threshold -r, and f_hi holds f(hi).  Every round halves all brackets
    still wider than time_tol at their midpoints and reads the open ones in
    one call, once each however many rows share one.  Finished rows leave
    the loop.

    On a general curve every midpoint is open and read from the curve
    itself, not merged into the ``store``: it lies strictly inside one
    lattice cell, so no other read repeats it, and f_hi follows hi.  Rows
    that share a bracket sit side by side, so a round reads each distinct
    midpoint once; brackets halve in lockstep, so once every midpoint of a
    round is distinct, later rounds skip that test.

    On a contraction (growth rate <= 0) the curve never rises, so a read
    decides the side of every midpoint before or after it, for every row
    (see :class:`_KnownOutcomes`): a round reads only the midpoints left
    open, and an Illinois point inside each crossing's interval until it
    is pinned.  Wherever the computed curve is nonincreasing, the
    assumption the contraction scan makes too, every known outcome is the
    evaluated one, so the brackets are those of plain bisection, bit for
    bit.  A curve computed with rounding (a nonzero eval_error_bound) may
    rise by a rounding error where it is flat to the last bits, as at a
    crossing that is itself a midpoint, so its reads decide only midpoints
    at least time_tol/8 away.  f_hi then holds f(hi), or a read that is -inf
    exactly when f(hi) is, which is all the plateau test reads (see
    :func:`_resolve`).
    """
    traj = store.traj
    known = (_KnownOutcomes(store, thresholds[rows], time_tol,
                            time_tol / 8.0 if traj.eval_error_bound else 0.0, traj.extinction_time)
             if traj.is_contraction else None)
    every, start = rows, hi[rows]
    thr, a, b, fb = thresholds[rows], lo[rows], hi[rows], f_hi[rows]
    shared = True
    while True:
        wide = b - a > time_tol
        if np.count_nonzero(wide) < wide.size:
            done = rows[~wide]
            lo[done], hi[done], f_hi[done] = a[~wide], b[~wide], fb[~wide]
            rows, thr, a, b, fb = rows[wide], thr[wide], a[wide], b[wide], fb[wide]
            if known:
                known.keep(wide)
        if not rows.size:
            break
        mid = 0.5 * (a + b)
        if known:
            # a midpoint that no read decides is open, and read
            above = mid <= known.above_to
            open_, probes = above == (mid >= known.below_from), known.probes()
            n = np.count_nonzero(open_)
            if n or probes.size:
                above[open_] = store.read(np.concatenate([mid[open_], probes]))[:n] >= thr[open_]
                known.learn(probes.size)
        else:
            if shared:
                first = np.concatenate([[True], mid[1:] != mid[:-1]])
                shared = not first.all()
            logs = (traj.log_evaluate_many(mid[first])[np.cumsum(first) - 1] if shared
                    else traj.log_evaluate_many(mid))
            above = logs >= thr
            np.putmask(fb, ~above, logs)
        np.putmask(a, above, mid)
        np.putmask(b, ~above, mid)
    if known:
        moved = every[hi[every] < start]
        if moved.size:
            f_hi[moved] = _resolve(store, hi[moved])


def _resolve(store, ends):
    """f at ``ends``, or a read that is -inf exactly when f is, on a nonincreasing curve.

    The first read at or after an end is f there if it is at the end, and
    bounds f there from below otherwise, so a finite one proves f finite;
    the last read before it bounds f from above, so a -inf one proves f
    -inf.  f at the ends that neither places is read in one call.
    """
    t, f = store.t, store.log
    after = t.searchsorted(ends)
    from_after = (t[after] == ends) | (f[after] > -math.inf)
    out = np.where(from_after, f[after], f[after - 1])
    missing = ~from_after & (f[after - 1] > -math.inf)
    if np.count_nonzero(missing):
        out[missing] = store.read(ends[missing])
    return out


class _KnownOutcomes:
    """What the reads of a nonincreasing curve prove, row by row.

    A read at s with f(s) >= -r proves f >= -r on [0, s], and one with
    f(s) < -r proves f < -r from s on, so every read of the search's store
    informs every row.  Each row's certified interval (lo, hi) runs from the
    latest read at or above its threshold to the earliest read below it,
    two lookups in the store, with f at both ends.  A midpoint at or before
    lo lies above the threshold, one at or after hi below it, and only one
    strictly inside is open; with a ``guard`` the decided zones end that far
    short of lo and hi.  The ends are the latest and the earliest read on
    each side, so each is a read on its own side even should the reads rise.

    While an interval is wider than time_tol/4 its row also reads one
    Illinois point inside it (Dowell and Jarratt, BIT 11, 1971): regula
    falsi on g = f + r, where an end kept while the other moves twice
    running has its g halved.  The point is held time_tol/8 inside either
    end, so a crossing met exactly pins with one more read.  A row whose hi
    reads -inf has no secant; bisection's open midpoints narrow it.  A
    curve that states its extinction time E is read at E and at the float
    before it in the first round, which pins every plateau row at once.
    Every step scales with the time unit: the reads of T(ct) are those of
    T(t) over c, for c a power of 2.
    """

    def __init__(self, store, thr, time_tol, guard=0.0, extinction_time=None):
        self.store, self.thr = store, thr
        self._look()
        # Illinois: how often each end's g has been halved, and whether the
        # last probing round moved that end alone
        self.halved_lo, self.halved_hi = np.zeros((2, thr.size), dtype=np.int64)
        self.lo_alone, self.hi_alone = np.zeros((2, thr.size), dtype=bool)
        self.step, self.guard = time_tol / 8.0, guard
        self.above_to, self.below_from = self.lo - guard, self.hi + guard
        self.pinning = True
        e = math.inf if extinction_time is None else float(extinction_time)
        self.seeds = (np.array([math.nextafter(e, 0.0), e])
                      if np.any((self.lo < e) & (e <= self.hi)) else _NO_TIMES)

    def _look(self):
        """Each row's interval and f at its ends, from the store."""
        store = self.store
        i, j = store.last_at_or_above(self.thr), store.first_below(self.thr)
        self.lo, self.hi, self.f_lo, self.f_hi = store.t[i], store.t[j], store.log[i], store.log[j]

    def keep(self, rows):
        for name in ("thr", "lo", "hi", "f_lo", "f_hi", "halved_lo", "halved_hi",
                     "lo_alone", "hi_alone"):
            setattr(self, name, getattr(self, name)[rows])
        self.above_to, self.below_from = self.lo - self.guard, self.hi + self.guard

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
        g_lo = np.ldexp(self.f_lo - self.thr, -self.halved_lo)
        g_hi = np.ldexp(self.f_hi - self.thr, -self.halved_hi)
        p = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        p = np.minimum(np.maximum(p, lo + self.step), hi - self.step)
        return p[wide & (g_hi > -math.inf) & (lo < p) & (p < hi)]

    def learn(self, probed):
        """Narrow every interval to the store's reads, and after probes the Illinois state."""
        lo, hi = self.lo, self.hi
        self._look()
        if probed:
            up, down = self.lo > lo, self.hi < hi
            self.halved_lo = (self.halved_lo + (down & self.hi_alone)) * ~up
            self.halved_hi = (self.halved_hi + (up & self.lo_alone)) * ~down
            self.lo_alone, self.hi_alone = up & ~down, down & ~up
        self.above_to, self.below_from = self.lo - self.guard, self.hi + self.guard


class _EnvelopeScan:
    """Log norm samples of a trajectory shared by every threshold, and their envelope.

    The samples, held in the search's :class:`~.numerics.ReadStore`, always
    include t = 0 and the horizon points, which double from horizon_start
    up to horizon_cap.  A general curve is also sampled on the grid_step
    lattice up to the current horizon.  The store's envelope, the reverse
    cumulative maximum of the samples, is a discrete
    M(t) = sup_{s>=t} log||T(s)||, so the last sample at or above -r is
    where M drops through the threshold: that anchor and the next sample
    bracket t_r.  The anchor is final once horizon_start of quiet lattice
    follows it; otherwise the horizon doubles.  Before a window is scanned
    the horizon point is checked alone: while the curve is still above the
    pending threshold there, nothing earlier can hold an anchor, so the
    window is skipped.  The window is skipped too when the growth bound from
    the previous horizon h_prev, log||T(h_prev)|| + LOG_SLACK +
    max(rate, 0) (h - h_prev), is below every pending threshold: no lattice
    point there can be an anchor or fail the exact-from-zero test, so the
    brackets stay those of the full lattice.  A contraction, a curve with
    growth rate <= 0, never rises, so its horizon points alone already form
    its envelope, and one sample below a threshold proves every later time
    below it too.

    With a finite positive growth rate the lattice of a window is scanned
    coarse to fine, and only points that an anchor can depend on are
    evaluated (see :meth:`_lattice`); every bracket, and the sampled maximum
    that the exact-from-zero test reads, is the one the full lattice gives.
    With no rate (+inf) the whole lattice of a window is evaluated in one
    call.
    """

    def __init__(self, store, cfg, thresholds):
        self.store = store
        self.cfg = cfg
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.on_lattice = not store.traj.is_contraction
        # the span of quiet samples after an anchor that makes it final
        self.window = cfg.horizon_start if self.on_lattice else 0.0
        self.horizon = 0.0
        self.k_done = 0  # lattice points k <= k_done are sampled or skipped
        store.read(np.zeros(1))

    def bracket(self, threshold):
        """``(status, lo, hi, f(hi))`` for one log threshold; lo == hi when already exact.

        Thresholds are bracketed in decreasing order, as they were given.
        """
        cfg, store = self.cfg, self.store
        while True:
            # envelope >= threshold exactly up to the last sample above it
            i = int(store.last_at_or_above(threshold))
            anchor = float(store.t[i]) if i >= 0 else 0.0
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
        if store.last_at_or_above(math.nextafter(threshold + _EXACT_SLACK, math.inf)) < 0:
            # no sample rises above threshold + _EXACT_SLACK: inside from t = 0
            return STATUS_EXACT, 0.0, 0.0, math.inf
        hi = min(anchor + cfg.grid_step, self.horizon) if self.on_lattice else float(store.t[i + 1])
        return status, anchor, hi, float(store.log[i + 1])

    def _extend(self, threshold):
        cfg, store, prev = self.cfg, self.store, self.horizon
        horizon = min(2.0 * prev if prev else cfg.horizon_start, cfg.horizon_cap)
        at_horizon = float(store.read(np.array([horizon]))[0])
        k1 = int(math.floor(horizon / cfg.grid_step))
        if self.on_lattice and at_horizon < threshold:
            # otherwise every pending anchor lies at or beyond this horizon
            pending = self.thresholds[self.thresholds <= threshold]
            # the window's logs rise at most this far above the previous
            # horizon's, which is already read
            bound = (float(store.read(np.array([prev]))[0]) + LOG_SLACK
                     + max(store.growth_rate, 0.0) * (horizon - prev))
            if not (bound < pending).all():
                self._lattice(self.k_done + 1, k1, at_horizon, pending)
        self.horizon, self.k_done = horizon, k1

    def _lattice(self, k0, k1, at_horizon, pending):
        """Read into the store the lattice points k0..k1 that a bracket can depend on.

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
        exactly when the full lattice's does.  The search reads through the
        store, so a lattice point that is a horizon point is not read again.
        """
        step = self.cfg.grid_step
        above = np.nextafter(pending + _EXACT_SLACK, math.inf)
        cands = np.sort(np.concatenate([pending, above]))

        def keep(new, fresh, hi, head):
            after = np.maximum(self.store.envelope(time_at(hi)), at_horizon)
            # the largest candidate at or below U must lie above S
            n_under = cands.searchsorted(head, side="right")
            return (n_under > 0) & (cands[n_under - 1] > after)

        def time_at(i):
            return (k0 + i) * step

        growth_bounded_search(self.store, k1 - k0 + 1, time_at, True, keep)


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
