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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import InvalidArgument
from .entrytime import STATUS_HORIZON, STATUS_WIDENED
from .numerics import _eigenvalues, growth_bounded_search

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
        **asdict(th),
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

    ``omega_large_t``: log||T(t)||/t at the largest sampled time t_end.
    ``omega_inf_grid``: the infimum of log||T(t)||/t over the grid.
    ``omega_entry``: -1/(tail mean of u_r), with -inf once the tail certifies
    superstability and 0.0 for unstable tables.  The grid routes are -inf
    only where the model states a log of -inf on the grid (extinction).  On
    a superexponential curve they are the slope at t_end, which falls as
    t_end grows (-t_end/4 on the gaussian shift), and ``omega_entry = -inf``
    flags it.  ``agreement_spread`` is the largest pairwise gap among the
    routes; it is flagged instead when any route is -inf.
    """

    omega_large_t: float
    omega_inf_grid: float
    omega_entry: float
    agreement_spread: float | None
    spread_is_minus_infinity: bool


def default_growth_grid(traj, table):
    """Sample grid for the growth routes: 513 equal steps up to t_end.

    t_end = 4 max(t_hi, 1) + 100, t_hi = ``table.t_hi``, so the grid
    extends past the table and the log-slope has settled.  No norm is read;
    ``traj`` stays in the signature for its callers.
    """
    t_end = 4.0 * max(table.t_hi, 1.0) + 100.0
    return np.linspace(t_end / 513, t_end, 513)


def growth_characteristic(traj, table, t_grid, *, th=None):
    """Compute the three growth-rate routes on the given grid.

    Every grid time must be positive and finite, and the grid must reach
    ``table.t_hi``.  The last grid point is evaluated first.  When the
    model states its log norm there as -inf, an exact zero,
    log||T(t)||/t is -inf there, so both grid routes are -inf whatever the
    other points hold, and no other point is evaluated.  Otherwise the rest
    of the grid is read in one more call.
    """
    th = th or ClassifyThresholds()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise InvalidArgument("t_grid must be nonempty")
    if not (t_grid > 0.0).all() or not np.isfinite(t_grid).all():
        raise InvalidArgument("every grid time must be positive and finite")
    if float(t_grid.max()) < table.t_hi:
        raise InvalidArgument("max grid point must reach table.t_hi, the last finite entry time")
    last = traj.log_evaluate_many(t_grid[-1:])
    if last[0] == -math.inf:
        omega_large = omega_inf = -math.inf
    else:
        omega = np.concatenate([traj.log_evaluate_many(t_grid[:-1]), last]) / t_grid
        omega_large = float(omega[-1])
        omega_inf = float(omega.min())

    tail = _read_tail(table, th)
    omega_entry = 0.0 if tail.unstable else -math.inf if tail.superstable else -tail.rate

    routes = (omega_large, omega_inf, omega_entry)
    if any(r == -math.inf for r in routes):
        return GrowthEstimate(omega_large, omega_inf, omega_entry, None, True)
    spread = max(routes) - min(routes)
    return GrowthEstimate(omega_large, omega_inf, omega_entry, spread, False)


# ---------------------------------------------------------------------------
# spectral radius


def spectral_radius_estimate(m):
    """Spectral radius max |lambda| of a square matrix, read off its eigenvalues."""
    return float(np.abs(_eigenvalues(m)).max())


def gelfand_spectral_radius(model, t):
    """Spectral radius of T(t) = exp(t*A) for a matrix semigroup, for finite t > 0.

    It is exp(t * max Re lambda(A)) by the spectral mapping theorem (Pazy
    1983, section 2.2): the model's ``abscissa``, from the eigensolve it
    made when built, and no exponential of a matrix.
    """
    if not 0.0 < t < math.inf:
        raise InvalidArgument(f"t must be positive and finite, got {t}")
    with np.errstate(over="ignore"):
        return float(np.exp(t * model.abscissa))


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
    point (see :func:`stability_and_extinction_indices`).
    """

    nu_hat: float
    k_hat_sum: float
    sum_converged: bool
    k_hat_overshoot: float
    per_nu: tuple
    notes: tuple


def _overshoot_maxima(traj, t, nu_grid):
    """First grid index and value of max log||T(t)|| + nu*t, for each nu.

    The maxima run over the points of the grid ``t`` whose log norm is
    finite; ties go to the first index, as :func:`numpy.argmax` breaks
    them.  :func:`growth_bounded_search` keeps a gap with head h and right
    end b while h > -inf and, for some nu, h + nu*t_{b-1} reaches the best
    value so far (equality counts, for the tie rule).  No finite point of a
    rejected gap reaches a best value, and the best values only rise, so
    the result is the dense grid's, bit for bit.  Each round scores only
    its new points and the open gaps.  Raises :class:`InvalidArgument` when
    every grid point reads -inf.
    """
    nus = np.asarray(nu_grid, dtype=float)[:, None]
    best = np.full(nus.size, -math.inf)   # for each nu, the best value so far
    at = np.full(nus.size, -1)            # and its grid index

    def keep(new, logs, hi, head):
        # one (nu, point) pass over the new points and the open gaps
        m = new.size
        # built in place: one (nu, point) array, the peak memory of a round
        score = nus * np.concatenate([t[new], t[hi - 1]])
        score += np.concatenate([logs, head])
        i = score[:, :m].argmax(axis=1)
        value = score[np.arange(nus.size), i]
        better = (value > best) | ((value == best) & (new[i] < at))
        best[better], at[better] = value[better], new[i[better]]
        return (score[:, m:] >= best[:, None]).any(axis=0) & (head > -math.inf)

    growth_bounded_search(traj, t.size, t.__getitem__, bool((t[1:] >= t[:-1]).all()), keep)
    if at[0] < 0:
        raise InvalidArgument("trajectory vanishes on the whole sample grid")
    return list(zip(at.tolist(), best.tolist()))


def stability_and_extinction_indices(traj, table, nu_grid=None, t_grid=None, *, th=None):
    """Decay index, extinction-time estimates and the overshoot suprema.

    The default sample grid is 4097 equally spaced times on
    [0, max(2 t_hi, t_hi + 1)], t_hi = ``table.t_hi``.  On a
    curve with a finite growth rate, the overshoot suprema are found by the
    growth-bounded search that also scans the entry lattice.  It
    evaluates only the grid points that can hold a maximum (447 of the
    4097 on fractional integration n=64) and gives the same bits as
    evaluating all of them; see :func:`_overshoot_maxima`.
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
        t_hi = table.t_hi
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
