"""Final and relative entry times of a norm trajectory.

For each integer r >= 0 the final entry time t_r is the first time after
which the trajectory stays at or below exp(-r) forever; the relative entry
time u_r = t_{r+1} - t_r measures how long the curve needs to gain one more
factor of 1/e.  The u_r sequence is nonincreasing, and its limit behaviour
determines the stability class (see :mod:`semistab.classify`).

Equivalently, t_r is where the envelope M(t) = sup_{s>=t} ||T(s)|| drops
through exp(-r).  For contraction trajectories (norm nonincreasing) M is the
norm itself, and t_r is found by monotone bisection against the threshold.
For general trajectories one pass serves every r: the grid_step lattice is
evaluated once per horizon extension, its reverse cumulative maximum is a
discrete M, and the last lattice point at or above exp(-r) brackets t_r for
bisection.  A bracket is final once a sustained below-threshold window
follows it; otherwise the horizon doubles.  Trajectories that never settle
below the threshold before the horizon cap are reported as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

STATUS_EXACT = "exact"
STATUS_BISECTED = "bisected"
STATUS_HORIZON = "horizon"
STATUS_WIDENED = "widened"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the entry-time searches.

    ``time_tol`` is the final bisection width; ``grid_step`` the scan
    resolution for non-monotone trajectories; ``horizon_start`` both the
    initial search span and the length of the sustained-below window that
    certifies a crossing as final; ``horizon_cap`` the absolute give-up
    point; ``norm_floor`` the value treated as an exact zero.
    """

    time_tol: float = 1e-8
    grid_step: float = 1e-3
    horizon_start: float = 16.0
    horizon_cap: float = 1e4
    norm_floor: float = 1e-300

    def __post_init__(self):
        if not (0.0 < self.time_tol < self.grid_step < self.horizon_start <= self.horizon_cap):
            raise InvalidArgument(
                "require 0 < time_tol < grid_step < horizon_start <= horizon_cap"
            )
        if self.norm_floor < 0.0:
            raise InvalidArgument("norm_floor must be nonnegative")


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

    @property
    def is_finite(self):
        return math.isfinite(self.time)


def final_entry_time(traj, r, cfg=None):
    """Entry time of the whole trajectory into the exp(-r) ball."""
    cfg = cfg or SearchConfig()
    _check_r(r, cfg)
    return _entry_times(traj, [int(r)], cfg)[0]


def vector_entry_time(model, x, r, cfg=None):
    """Entry time of a single unit-vector orbit of a matrix semigroup."""
    cfg = cfg or SearchConfig()
    _check_r(r, cfg)
    return _entry_times(model.vector_trajectory(x), [int(r)], cfg)[0]


def _check_r(r, cfg):
    if r < 0 or int(r) != r:
        raise InvalidArgument(f"r must be a nonnegative integer, got {r}")
    if math.exp(-float(r)) <= cfg.norm_floor:
        raise InvalidArgument(f"threshold exp(-{r}) is below the norm floor")


def _entry_times(traj, rs, cfg):
    """Entry times for the increasing r values ``rs``.

    Each search starts from the previous entry time (the t_r sequence is
    nondecreasing); once a search hits the horizon cap, all later entries
    are +inf as well.  General trajectories share one envelope scan.
    """
    scan = None if traj.is_contraction else _EnvelopeScan(traj, cfg)
    entries = []
    left = 0.0
    for r in rs:
        if entries and not entries[-1].is_finite:
            entries.append(EntryTime(math.inf, STATUS_HORIZON, math.inf))
            continue
        et = _entry_time_from(traj, r, left, cfg, scan)
        entries.append(et)
        if et.is_finite:
            left = et.time
    return entries


def _entry_time_from(traj, r, left, cfg, scan):
    threshold = math.exp(-r)
    f_left = traj.evaluate(left)
    if f_left <= cfg.norm_floor:
        # exact-zero plateau: the norm vanished at or before the left bound,
        # so every later entry time collapses onto the same boundary
        return EntryTime(left, STATUS_EXACT, 0.0)
    if scan is not None:
        return scan.entry_time(threshold, left, f_left)
    if r == 0 and left == 0.0 and f_left <= 1.0 + 1e-12:
        # a contraction never exceeds its initial value, so the curve is
        # at or below exp(0) from the start
        return EntryTime(0.0, STATUS_EXACT, 0.0)
    return _bisect_monotone(traj.evaluate, threshold, left, cfg)


def _bisect_monotone(f, threshold, left, cfg):
    """Last time a nonincreasing curve sits at or above the threshold."""
    if f(left) < threshold:
        # already below at the left bound and nonincreasing afterwards
        return EntryTime(left, STATUS_EXACT, 0.0)
    span = cfg.horizon_start
    while True:
        hi = left + span
        if hi >= cfg.horizon_cap:
            if f(cfg.horizon_cap) >= threshold:
                return EntryTime(math.inf, STATUS_HORIZON, math.inf)
            hi = cfg.horizon_cap
            break
        if f(hi) < threshold:
            break
        span *= 2.0
    return EntryTime(_bisect(f, threshold, left, hi, cfg.time_tol), STATUS_BISECTED, cfg.time_tol)


def _bisect(f, threshold, lo, hi, time_tol):
    """Midpoint of a bracket [lo, hi] with f(lo) >= threshold > f(hi), narrowed to time_tol."""
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _EnvelopeScan:
    """Samples of a general trajectory on the grid_step lattice, shared by all r.

    The samples are the lattice points k*grid_step up to the current horizon,
    each evaluated once, plus the horizon points themselves.  Their reverse
    cumulative maximum is a discrete envelope M(t) = sup_{s>=t} ||T(s)||, so
    the last sample at or above exp(-r) is where M drops through the
    threshold.  That anchor is certified final once horizon_start of quiet
    lattice follows it; otherwise the horizon doubles, up to horizon_cap.
    Before a window is scanned the horizon point is checked alone: while the
    curve is still above the pending threshold there, nothing earlier can
    hold an anchor, so the window is skipped.
    """

    def __init__(self, traj, cfg):
        self.traj = traj
        self.cfg = cfg
        self.horizon = 0.0
        self.k_done = -1  # lattice points k <= k_done are sampled or skipped
        self.ts = np.empty(0)
        self.vals = np.empty(0)
        self.envelope = np.empty(0)

    def entry_time(self, threshold, left, f_left):
        cfg = self.cfg
        while True:
            # envelope >= threshold exactly up to the last sample above it
            i = int(np.searchsorted(-self.envelope, -threshold, side="right")) - 1
            if i >= 0 and self.ts[i] > left:
                anchor, above = float(self.ts[i]), True
            else:
                anchor, above = left, f_left >= threshold
            if above and anchor >= cfg.horizon_cap:
                return EntryTime(math.inf, STATUS_HORIZON, math.inf)
            if self.horizon - anchor >= cfg.horizon_start:
                status = STATUS_BISECTED
                break
            if self.horizon >= cfg.horizon_cap:
                # below threshold at the cap but the quiet window is short:
                # report the best bracket with a widened error bar
                status = STATUS_WIDENED
                break
            self._extend(threshold)
        if not above:
            # nothing at or above threshold from the left bound on
            return EntryTime(anchor, status, cfg.time_tol)
        hi = min(anchor + cfg.grid_step, self.horizon)
        tol = cfg.time_tol if status == STATUS_BISECTED else max(cfg.time_tol, cfg.grid_step)
        return EntryTime(_bisect(self.traj.evaluate, threshold, anchor, hi, cfg.time_tol),
                         status, tol)

    def _extend(self, threshold):
        cfg = self.cfg
        h = cfg.grid_step
        horizon = min(2.0 * self.horizon if self.horizon else cfg.horizon_start, cfg.horizon_cap)
        at_horizon = self.traj.evaluate(horizon)
        k1 = int(math.floor(horizon / h))
        if at_horizon >= threshold:
            # every pending anchor lies at or beyond this horizon
            ts, vals = np.array([horizon]), np.array([at_horizon])
        else:
            lattice = np.arange(self.k_done + 1, k1 + 1, dtype=float) * h
            ts = np.concatenate([self.ts, lattice, [horizon]])
            vals = np.concatenate([self.vals, self.traj.evaluate_many(lattice), [at_horizon]])
        self.horizon, self.k_done, self.ts, self.vals = horizon, k1, ts, vals
        self.envelope = np.maximum.accumulate(vals[::-1])[::-1]


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
    contraction: bool = False

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
    _check_r(r_max + 1, cfg)
    entries = _entry_times(traj, range(r_max + 2), cfg)
    t = tuple(e.time for e in entries)
    u = tuple(
        math.inf if math.isinf(t[r + 1]) else t[r + 1] - t[r]
        for r in range(r_max + 1)
    )
    return EntryTimeTable(
        r_max=r_max, t=t, u=u, statuses=tuple(entries),
        time_tol=cfg.time_tol, label=getattr(traj, "label", ""),
        contraction=traj.is_contraction,
    )
