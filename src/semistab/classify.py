"""Classification and growth-rate estimation from an entry-time table.

The u_r tail decides everything: a tail that stays bounded away from zero
means plain exponential stability with index 1/lim(u_r); a tail that decays
to zero means the decay is faster than every exponential (superstable); a
summable tail means the norm vanishes outright at time sum(u_r).  Any
infinite entry means the trajectory never settles below some threshold:
unstable.

Finite tables can only ever see finite-r surrogates of those limits.  The
surrogates used here: the mean over a trailing plateau window approximates
lim u_r; a mid-table window provides a decay-ratio check that recognizes
tails still falling toward zero (slowly decaying superstable curves sit far
above any absolute threshold at practical r_max); the second-half tail sum
stands in for the convergence of sum(u_r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgument, NumericsFailure
from .entrytime import STATUS_HORIZON, STATUS_WIDENED
from .numerics import LOG_SLACK, NORM_FLOOR, SEARCH_STRIDE, matrix_exponential, operator_norm

VERDICT_UNSTABLE = "unstable"
VERDICT_STABLE = "stable"
VERDICT_SUPERSTABLE = "superstable"
VERDICT_EXTINCTION = "finite-time-extinction"

#: Strength order used for consistency checks against the integral criteria.
VERDICT_ORDER = {
    VERDICT_UNSTABLE: 0,
    VERDICT_STABLE: 1,
    VERDICT_SUPERSTABLE: 2,
    VERDICT_EXTINCTION: 3,
}

_OMEGA_FLOOR = -1e6


@dataclass(frozen=True)
class ClassifyThresholds:
    """Finite-r surrogate thresholds.

    ``eps_super``: a tail mean below this is immediately superstable.
    ``tail_decay_ratio``: tail-window mean over mid-window mean at or below
    this also counts as superstable (the tail is still sinking).
    ``eps_tailsum``: second-half tail sum below this accepts finite-time
    extinction.  ``plateau_window``: length of the averaging windows.
    """

    eps_super: float = 1e-2
    eps_tailsum: float = 1e-3
    plateau_window: int = 8
    tail_decay_ratio: float = 0.85

    def __post_init__(self):
        if not (self.eps_super > 0 and self.eps_tailsum > 0):
            raise InvalidArgument("thresholds must be positive")
        if self.plateau_window < 1:
            raise InvalidArgument("plateau_window must be a positive integer")
        if not (0.0 < self.tail_decay_ratio < 1.0):
            raise InvalidArgument("tail_decay_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class TailStats:
    tail_mean: float
    mid_mean: float
    decay_ratio: float
    second_half_sum: float
    last_u: float
    trend_slope: float
    any_infinite: bool


def _window_stats(u, window):
    """:func:`tail_statistics` without the trend fit: ``trend_slope`` is NaN."""
    u = np.asarray(u, dtype=float)
    if np.any(np.isinf(u)):
        return TailStats(math.inf, math.inf, math.nan, math.inf, math.inf, math.nan, True)
    n = u.size
    w = min(window, n)
    tail = u[n - w:]
    mid_end = max(n // 2, w)
    mid = u[max(mid_end - w, 0):mid_end]
    tail_mean = float(tail.mean())
    mid_mean = float(mid.mean())
    ratio = tail_mean / mid_mean if mid_mean > 0.0 else (0.0 if tail_mean == 0.0 else math.inf)
    second_half_sum = float(u[(n + 1) // 2:].sum())
    return TailStats(tail_mean, mid_mean, ratio, second_half_sum, float(u[-1]), math.nan, False)


def tail_statistics(u, window):
    """Window means, decay ratio, second-half sum and trend of a u_r sequence.

    ``trend_slope`` is the least-squares slope of the second half of the
    sequence (0.0 for fewer than two terms, NaN when some u_r is infinite).
    """
    stats = _window_stats(u, window)
    if stats.any_infinite:
        return stats
    u = np.asarray(u, dtype=float)
    half = u[(u.size + 1) // 2:]
    xs = np.arange(u.size - half.size, u.size, dtype=float)
    slope = float(np.polyfit(xs, half, 1)[0]) if half.size >= 2 else 0.0
    return replace(stats, trend_slope=slope)


@dataclass(frozen=True)
class _TailReading:
    """What the u tail says; classify, the growth routes and the indices all read it.

    ``unstable``: some u_r is infinite.  ``rate``: 1/(tail mean), +inf for a
    zero tail mean and 0.0 when unstable.  ``superstable``: the tail sinks
    to zero (see :func:`_read_tail`).  ``summable``: the second-half sum is
    below eps_tailsum (never when unstable).
    """

    unstable: bool
    rate: float
    superstable: bool
    summable: bool


def _read_tail(table, th, stats=None):
    """The reading of ``table``'s u tail under thresholds ``th``.

    ``stats`` may pass in the table's :func:`tail_statistics`.  The tail is
    superstable when its mean is below eps_super, which only resolves decay
    rates up to 1/eps_super, or when the decay-ratio test sees it still
    sinking at r_max (power-law or logarithmic decay of u_r sits far above
    any absolute threshold at practical table lengths).  The ratio test
    compares the trailing window against a mid-table window and is
    meaningful only once both are past initial settling, so it is gated on
    table length: the mid window ends at r_max/2 and the tail window at
    r_max, and a buffer of 4 keeps them from overlapping at the minimum
    length.  A trajectory whose u_r are still settling toward a positive
    limit inside the gated range reads as plain stable, which is the
    conservative direction.
    """
    if stats is None:
        stats = _window_stats(table.u, th.plateau_window)
    if stats.any_infinite:
        return _TailReading(True, 0.0, False, False)
    rate = 1.0 / stats.tail_mean if stats.tail_mean > 0 else math.inf
    ratio_route_ok = table.r_max >= 2 * th.plateau_window + 4
    superstable = stats.tail_mean < th.eps_super or (
        ratio_route_ok and stats.decay_ratio <= th.tail_decay_ratio)
    return _TailReading(False, rate, superstable, stats.second_half_sum < th.eps_tailsum)


@dataclass(frozen=True)
class Classification:
    verdict: str
    nu: float | None = None
    k: float | None = None
    confident: bool = True
    diagnostics: dict = field(default_factory=dict)


def classify(table, th=None):
    """Map an entry-time table to its stability class.

    Unstable if any u_r is infinite or any tail search was horizon-limited.
    Otherwise the tail mean yields the stability index; a vanishing tail
    (below eps_super, or still decaying by the ratio test) upgrades to
    superstable; a second-half tail sum below eps_tailsum further upgrades to
    finite-time extinction with extinction-time estimate sum(u_r).
    """
    th = th or ClassifyThresholds()
    if table.r_max < 2 * th.plateau_window:
        raise InvalidArgument(
            f"table too short: r_max={table.r_max} < {2 * th.plateau_window}"
        )
    stats = tail_statistics(table.u, th.plateau_window)
    tail = _read_tail(table, th, stats)
    horizon_limited = any(s.status == STATUS_HORIZON for s in table.statuses)
    # a widened entry anywhere is an under-certified crossing; sums and tail
    # means built on it are not trustworthy at the stated tolerances
    confident = not any(s.status == STATUS_WIDENED for s in table.statuses)
    diagnostics = {
        "tail_mean": stats.tail_mean,
        "mid_mean": stats.mid_mean,
        "decay_ratio": stats.decay_ratio,
        "second_half_sum": stats.second_half_sum,
        "last_u": stats.last_u,
        "trend_slope": stats.trend_slope,
        "monotonicity_defect": table.monotonicity_defect,
        "eps_super": th.eps_super,
        "eps_tailsum": th.eps_tailsum,
        "plateau_window": th.plateau_window,
        "tail_decay_ratio": th.tail_decay_ratio,
    }
    if tail.unstable or horizon_limited:
        diagnostics["omega_entry"] = 0.0
        return Classification(VERDICT_UNSTABLE, confident=confident, diagnostics=diagnostics)
    if tail.superstable and tail.summable:
        k = float(np.sum(table.u_array))
        diagnostics["k_tail_bound"] = stats.second_half_sum
        return Classification(
            VERDICT_EXTINCTION, k=k, confident=confident, diagnostics=diagnostics
        )
    if tail.superstable:
        return Classification(VERDICT_SUPERSTABLE, confident=confident, diagnostics=diagnostics)
    return Classification(VERDICT_STABLE, nu=tail.rate, confident=confident, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# growth characteristic


@dataclass(frozen=True)
class GrowthEstimate:
    """Three routes to the exponential growth rate of log||T(t)||/t.

    ``omega_large_t``: the log-norm slope at the largest sampled time.
    ``omega_inf_grid``: the infimum of log||T(t)||/t over the grid.
    ``omega_entry``: -1/(tail mean of u_r), with -inf once the tail certifies
    superstability and 0.0 for unstable tables.  Routes report -inf when the
    trajectory value hit the decay floor (extinction reached) or the
    surrogate fell below -1e6.  ``agreement_spread`` is the largest pairwise
    gap among finite routes; it is flagged instead when any route is -inf.
    """

    omega_large_t: float
    omega_inf_grid: float
    omega_entry: float
    agreement_spread: float | None
    spread_is_minus_infinity: bool


def default_growth_grid(traj, table, *, n_points=513):
    """Sample grid for the growth routes.

    Extends past the last finite entry time so the log-slope has settled;
    for curves that decay beyond the floating-point floor the grid ends at
    the first of 24 geometric horizon candidates where the norm is at
    NORM_FLOOR, which is what lets superexponential decay register as -inf.
    The candidates are read in one ``evaluate_many`` call.
    """
    finite = [x for x in table.t if math.isfinite(x)]
    t_hi = max(finite) if finite else 32.0
    t_hi = max(t_hi, 1.0)
    cap = 4.0 * t_hi + 100.0
    cands = np.geomspace(t_hi + 1.0, cap, 24)
    below = np.flatnonzero(traj.evaluate_many(cands) <= NORM_FLOOR)
    t_end = float(cands[below[0]]) if below.size else cap
    return np.linspace(t_end / n_points, t_end, n_points)


def growth_characteristic(traj, table, t_grid, *, th=None):
    """Compute the three growth-rate routes on the given grid.

    The last grid point is evaluated first.  When its norm is at NORM_FLOOR
    and every grid time is positive and finite, log||T(t)||/t is -inf there,
    so both grid routes are -inf whatever the other points hold, and no
    other point is evaluated; default grids on curves that underflow end at
    such a point.  Otherwise the rest of the grid is read in one more call.
    """
    th = th or ClassifyThresholds()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise InvalidArgument("t_grid must be nonempty")
    finite_t = [x for x in table.t if math.isfinite(x)]
    if finite_t and float(t_grid.max()) < max(finite_t):
        raise InvalidArgument("max grid point must reach the last finite entry time")
    last = traj.evaluate_many(t_grid[-1:])
    if last[0] <= NORM_FLOOR and 0.0 < t_grid.min() <= t_grid.max() < math.inf:
        omega_large = omega_inf = -math.inf
    else:
        vals = np.concatenate([traj.evaluate_many(t_grid[:-1]), last])
        with np.errstate(divide="ignore"):
            omega = np.log(np.where(vals > NORM_FLOOR, vals, 0.0)) / t_grid
        omega_large = float(omega[-1])
        omega_inf = float(omega.min())
    if omega_large <= _OMEGA_FLOOR:
        omega_large = -math.inf
    if omega_inf <= _OMEGA_FLOOR:
        omega_inf = -math.inf

    tail = _read_tail(table, th)
    omega_entry = 0.0 if tail.unstable else -math.inf if tail.superstable else -tail.rate

    routes = (omega_large, omega_inf, omega_entry)
    if any(r == -math.inf for r in routes):
        return GrowthEstimate(omega_large, omega_inf, omega_entry, None, True)
    spread = max(routes) - min(routes)
    return GrowthEstimate(omega_large, omega_inf, omega_entry, spread, False)


# ---------------------------------------------------------------------------
# Gelfand-style spectral radius


def spectral_radius_estimate(m, n_max=1024):
    """lim ||M^n||^(1/n) by repeated squaring with geometric extrapolation.

    Norms are taken at n = 1, 2, 4, ..., with each square renormalized to
    dodge overflow.  The log-estimates log||M^n||/n converge with roughly
    geometrically shrinking differences, so the tail is extrapolated from
    the ratio of the last two differences.
    """
    m = np.asarray(m, dtype=float)
    if n_max < 8:
        raise InvalidArgument(f"n_max must be at least 8, got {n_max}")
    levels = max(3, int(math.ceil(math.log2(n_max))))
    norm = operator_norm(m, 1e-12)
    if norm == 0.0:
        return 0.0
    log_estimates = [math.log(norm)]
    d = m / norm
    log_scale = math.log(norm)
    for k in range(1, levels + 1):
        d = d @ d
        if not np.all(np.isfinite(d)):
            raise NumericsFailure(
                "squaring produced non-finite entries",
                best_estimate=math.exp(log_estimates[-1]),
                data=log_estimates,
            )
        dn = operator_norm(d, 1e-12)
        log_scale = 2.0 * log_scale + (math.log(dn) if dn > 0.0 else -math.inf)
        if dn == 0.0 or log_scale == -math.inf:
            return 0.0
        d = d / dn
        log_estimates.append(log_scale / 2.0**k)
    y = log_estimates
    extrapolated = y[-1]
    if len(y) >= 3:
        d1 = y[-1] - y[-2]
        d2 = y[-2] - y[-3]
        if abs(d2) > 1e-14:
            q = d1 / d2
            if 0.0 < q < 0.95:
                extrapolated = y[-1] + d1 * q / (1.0 - q)
    return math.exp(extrapolated)


def gelfand_spectral_radius(model, t, n_max=1024):
    """Spectral radius of T(t) = exp(t*A) for a matrix semigroup."""
    if t <= 0:
        raise InvalidArgument(f"t must be positive, got {t}")
    return spectral_radius_estimate(matrix_exponential(model.a, t), n_max)


# ---------------------------------------------------------------------------
# stability / extinction indices


@dataclass(frozen=True)
class IndexEstimates:
    """Cross-checkable estimates of the decay index and extinction time.

    ``nu_hat``: reciprocal tail mean of u_r (0.0 when unstable).
    ``k_hat_sum``: truncated sum of u_r, or +inf when the tail provably
    diverges (nonincreasing terms bounded away from zero).
    ``k_hat_overshoot``: max over the nu grid of log(M_nu)/nu, where M_nu is
    the sampled supremum of ||T(t)||*exp(nu*t); +inf when some supremum is
    still growing at the grid boundary.  For extinct trajectories both k
    estimates approximate the extinction time.  ``per_nu`` holds
    (nu, log M_nu, log(M_nu)/nu, boundary) for each nu.  The suprema are
    those of the whole sample grid, found without evaluating every grid
    point on a contraction (see :func:`stability_and_extinction_indices`).
    """

    nu_hat: float
    k_hat_sum: float
    sum_converged: bool
    k_hat_overshoot: float
    per_nu: tuple
    notes: tuple


def _overshoot_maxima(traj, t, nu_grid):
    """First grid index and value of max log||T(t)|| + nu*t, for each nu.

    The maxima run over the points of the grid ``t`` whose norm exceeds
    NORM_FLOOR; ties go to the first index, as :func:`numpy.argmax` breaks
    them.  On a curve with a growth bound sampled on a nondecreasing grid
    the search is coarse to fine.  It evaluates every 32nd point and the
    last one, then the midpoint of each cell (i, j) between evaluated
    points that may still hold a maximum, until none may.  The norm rises
    at most like exp(omega+ * s), omega+ = 0 for a contraction and
    max(growth_rate, 0) otherwise, so every unevaluated point k of the
    cell has log||T(t_k)|| at most h = log||T(t_i)|| + 1e-9 +
    omega+ * (t_{j-1} - t_i) (the slack covers kernel noise, and the
    floats of a sum round monotonically), hence value at most
    h + nu*t_{j-1}; and it can exceed the floor only if h >= log(NORM_FLOOR).
    A cell may hold a maximum only if that bound reaches, for some nu, the
    best evaluated value, with equality kept for the tie rule.  So the
    result is the one the dense grid gives, bit for bit, and points in
    discarded cells are never evaluated.  A curve with no known growth
    rate, or a grid that ever decreases, gets no bound: the first pass
    then takes every point, in one call.  Raises :class:`InvalidArgument`
    when no grid point exceeds the floor.
    """
    rate = 0.0 if traj.is_contraction else max(traj.growth_rate, 0.0)
    bounded = math.isfinite(rate) and bool((t[1:] >= t[:-1]).all())
    ks = np.arange(t.size)
    todo = ks[(ks % (SEARCH_STRIDE if bounded else 1) == 0) | (ks == t.size - 1)]
    lo, hi = todo[:-1], todo[1:]          # the cells between first-pass points
    log_v = np.zeros(t.size)
    best = [-math.inf] * len(nu_grid)     # for each nu, the best value so far
    at = [-1] * len(nu_grid)              # and its grid index
    log_floor = np.log(NORM_FLOOR)
    while todo.size:
        vals = traj.evaluate_many(t[todo])
        with np.errstate(divide="ignore"):
            log_v[todo] = np.log(vals)
        # an unbounded search has no cell wider than one step, and its
        # infinite rate is never read
        lo, hi = lo[hi - lo > 1], hi[hi - lo > 1]
        head = log_v[lo] + LOG_SLACK + rate * (t[hi - 1] - t[lo])
        cell = head >= log_floor
        lo, hi, head = lo[cell], hi[cell], head[cell]
        # one pass per nu over the new points, then over the open cells
        m = todo.size
        base = np.concatenate([np.where(vals > NORM_FLOOR, log_v[todo], -math.inf), head])
        times = np.concatenate([t[todo], t[hi - 1]])
        reach = np.zeros(lo.size, dtype=bool)
        for j, nu in enumerate(nu_grid):
            score = base + nu * times
            i = int(score[:m].argmax())
            value = float(score[i])
            if value > best[j] or (value == best[j] and todo[i] < at[j]):
                best[j], at[j] = value, int(todo[i])
            reach |= score[m:] >= best[j]
        # a cell that fails keeps failing, as the best values only rise;
        # the two halves of each cell that passes are the next cells.
        # >> 1 rather than // 2: numpy's integer floor-division loop alone
        # raised the closed-form benchmark's peak RSS by about 0.3 MiB
        lo, hi = lo[reach], hi[reach]
        todo = (lo + hi) >> 1
        lo, hi = np.stack([lo, todo], 1).ravel(), np.stack([todo, hi], 1).ravel()
    if at[0] < 0:
        raise InvalidArgument("trajectory vanishes on the whole sample grid")
    return list(zip(at, best))


def stability_and_extinction_indices(traj, table, nu_grid=None, t_grid=None, *, th=None):
    """Decay index, extinction-time estimates and the overshoot suprema.

    The default sample grid is 4097 equally spaced times on
    [0, max(2 t_hi, t_hi + 1)], t_hi the last finite entry time.  On a
    contraction, or a curve with a known growth rate, the overshoot suprema
    are found by a coarse-to-fine search that evaluates only the grid
    points that can hold a maximum (about 450 of the 4097 on fractional
    integration) and gives the same bits as evaluating all of them; see
    :func:`_overshoot_maxima`.
    """
    th = th or ClassifyThresholds()
    if nu_grid is None:
        nu_grid = [2.0**k for k in range(11)]
    nu_grid = sorted(float(v) for v in nu_grid)
    if not nu_grid or nu_grid[0] <= 0:
        raise InvalidArgument("nu_grid must be positive and nonempty")
    tail = _read_tail(table, th)
    notes = []
    # nonincreasing u_r bounded away from zero: the series diverges
    k_hat_sum = math.inf
    if tail.superstable or tail.summable:
        k_hat_sum = float(np.sum(table.u_array))
        if not tail.summable:
            notes.append("u-sum still growing at r_max; no extinction claim")

    if t_grid is None:
        finite = [x for x in table.t if math.isfinite(x)]
        t_hi = max(finite) if finite else 32.0
        t_grid = np.linspace(0.0, max(2.0 * t_hi, t_hi + 1.0), 4097)
    t_grid = np.asarray(t_grid, dtype=float)
    maxima = _overshoot_maxima(traj, t_grid, nu_grid)
    last_grid_t = float(t_grid[-1])
    per_nu = []
    k_overshoot = -math.inf
    for nu, (i, log_m_nu) in zip(nu_grid, maxima):
        boundary = t_grid[i] == last_grid_t
        ratio = math.inf if boundary else log_m_nu / nu
        per_nu.append((nu, log_m_nu, ratio, boundary))
        k_overshoot = max(k_overshoot, ratio)
    if math.isinf(k_overshoot):
        notes.append("overshoot supremum grid-limited for large nu; no extinction claim")
    return IndexEstimates(
        nu_hat=tail.rate,
        k_hat_sum=k_hat_sum,
        sum_converged=tail.summable,
        k_hat_overshoot=k_overshoot,
        per_nu=tuple(per_nu),
        notes=tuple(notes),
    )
