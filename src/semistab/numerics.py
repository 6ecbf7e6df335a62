"""Self-contained numerical kernels.

Matrix exponentials, spectral norms and adaptive quadrature on finite or
semi-infinite intervals, and the one norm value that counts as exact zero.
All operations are pure functions of their inputs.  Stacks of matrices
get their spectral norms from stacked kernels that keep no state between
calls: exact singular values (:func:`operator_norms_batch`) or Lanczos from
a fixed start vector (:func:`operator_norms_lanczos`), and each norm in a
stack depends on its own matrix only.  The only randomness is the seeded start vector of
:func:`operator_norm` called without one, so results are reproducible bit
for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidModel, NumericsFailure

#: A norm at or below this is an exact zero: the curve is extinct there.
#: Finite time extinction (norm identically zero from some time on) and
#: superstability (faster than every exponential, yet positive) part here.
NORM_FLOOR = 1e-300

#: First-pass stride of the coarse-to-fine searches over a sample grid
#: (the entry-time lattice scan and the overshoot suprema).
SEARCH_STRIDE = 32
#: Rise of log||T(t)|| beyond its stated growth bound that computed norms
#: may show; bounds the numerical noise of the norm kernels with a wide margin.
LOG_SLACK = 1e-9

#: Default seed for the power-iteration start vector when none is given.
DEFAULT_SEED = 1863

#: Partial integrals beyond this magnitude are declared divergent.
DIVERGENCE_THRESHOLD = 1.0e12

_SERIES_CUTOFF = 1.0e-16   # term-to-sum ratio at which the Taylor series stops
_SCALED_NORM_TARGET = 0.5  # squarings bring the scaled norm at or below this


# ---------------------------------------------------------------------------
# matrix exponential


def _as_square_matrix(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidModel(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidModel("matrix entries must be finite")
    return m


def matrix_exponential(a, t):
    """Evaluate exp(t*a) by scaling and squaring a truncated Taylor series.

    The matrix is rescaled so its row-sum norm is at or below 0.5, the series
    is summed until a term falls below 1e-16 of the running sum, and the
    result is squared back up.  ``t`` must be finite and nonnegative.
    """
    m = _as_square_matrix(a)
    t = float(t)
    if math.isnan(t) or math.isinf(t):
        raise InvalidArgument(f"time must be finite, got {t}")
    if t < 0.0:
        raise InvalidArgument(f"time must be nonnegative, got {t}")
    return _expm(m * t)


def _expm(b):
    """exp(b) for one matrix (n, n) or a stack (B, n, n).

    Every matrix in a stack gets its own squaring count and series length,
    so its exponential depends on that matrix alone: the same bits whether
    it is evaluated alone or inside any batch.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        return _expm(b[None])[0]
    if b.size == 0:
        return np.broadcast_to(np.eye(b.shape[1]), b.shape).copy()
    norm = np.abs(b).sum(axis=2).max(axis=1)
    squarings = np.zeros(b.shape[0], dtype=np.int64)
    big = norm > _SCALED_NORM_TARGET
    squarings[big] = np.ceil(np.log2(norm[big] / _SCALED_NORM_TARGET))
    scale = 2.0 ** squarings
    b = b / scale[:, None, None]
    norm = norm / scale
    # ||term_k|| <= ||term_{k-1}||*||B||/k bounds the term without touching
    # the matrices; ||exp(B)|| >= exp(-1/2) here, so an absolute cutoff is
    # the term-to-sum ratio rule.  terms[i] is matrix i's series length.
    bounds = np.cumprod(norm[:, None] / np.arange(1.0, 64.0), axis=1)
    terms = np.argmax(bounds <= _SERIES_CUTOFF, axis=1) + 1
    acc = np.broadcast_to(np.eye(b.shape[1]), b.shape).copy()
    term = acc
    # the masked update is needed only once some series has ended
    shortest = int(terms.min())
    for k in range(1, int(terms.max()) + 1):
        term = term @ b / k
        if k <= shortest:
            acc = acc + term
        else:
            acc = np.where((terms >= k)[:, None, None], acc + term, acc)
    with np.errstate(over="ignore", invalid="ignore"):
        # growing semigroups overflow at large times; callers treat a
        # non-finite exponential as having infinite norm
        # likewise, gather only once some matrix has all its squarings
        fewest = int(squarings.min())
        for j in range(1, int(squarings.max()) + 1):
            if j <= fewest:
                acc = acc @ acc
            else:
                live = squarings >= j
                sub = acc[live]
                acc[live] = sub @ sub
    return acc


# ---------------------------------------------------------------------------
# operator (spectral) norm


def _power_iteration(m, tol, seed, start, max_iter):
    """Power iteration on the Gram product M^T M.

    Returns (sigma, vector, iterations, converged).  Convergence is declared
    when successive Rayleigh-quotient estimates differ by less than
    tol * estimate, or when the geometric remainder bound diff * q/(1-q)
    (q being the measured ratio of successive differences) falls below
    tol * estimate.  The matrix is pre-scaled by its largest entry so that
    the Gram product cannot underflow for uniformly tiny matrices.
    Nearly coincident leading singular values push q toward 1 and the
    estimate crawls until the iteration cap reports failure.
    """
    cols = m.shape[1]
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return 0.0, None, 0, True
    # the Gram iteration fourth-powers the scale; keep it near 1 so nothing
    # drops into subnormal range
    if scale < 1e-16 or scale > 1e16:
        sigma, vec, its, ok = _power_iteration(m / scale, tol, seed, start, max_iter)
        return sigma * scale, vec, its, ok
    if start is not None and float(np.linalg.norm(start)) > 0.0:
        v = np.asarray(start, dtype=float)
        v = v / np.linalg.norm(v)
    else:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        v = rng.standard_normal(cols)
        v /= np.linalg.norm(v)
    prev = None
    prev_diff = None
    sigma = 0.0
    reseeds = 0
    for it in range(1, max_iter + 1):
        w = m @ v
        g = m.T @ w
        sigma = math.sqrt(max(float(v @ g), 0.0))
        if prev is not None:
            diff = abs(sigma - prev)
            if diff <= tol * max(sigma, 1e-300):
                return sigma, v, it, True
            if prev_diff is not None and 0.0 < diff < prev_diff:
                q = diff / prev_diff
                remainder = diff * q / (1.0 - q)
                if remainder <= tol * max(sigma, 1e-300):
                    return sigma, v, it, True
            prev_diff = diff
        prev = sigma
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            # start vector landed in the kernel; retry from a fresh seed
            if reseeds >= 2:
                return sigma, v, it, False
            reseeds += 1
            rng = np.random.default_rng((DEFAULT_SEED if seed is None else seed) + reseeds)
            v = rng.standard_normal(cols)
            v /= np.linalg.norm(v)
            prev = None
            prev_diff = None
            continue
        v = g / gn
    return sigma, v, max_iter, False


def operator_norms_batch(mats):
    """Exact spectral norms (largest singular values) of a stack (B, n, n).

    Each norm depends on its own matrix only.  A matrix with a non-finite
    entry, such as an overflowed exponential, has norm +inf.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3:
        raise InvalidArgument("expected a stack of matrices (B, n, n)")
    out = np.full(mats.shape[0], math.inf)
    finite = np.isfinite(mats).all(axis=(1, 2))
    if finite.any():
        try:
            out[finite] = np.linalg.svd(mats[finite], compute_uv=False)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericsFailure(f"singular value decomposition failed: {exc}") from None
    return out


def operator_norms_lanczos(mats):
    """Spectral norms of a stack (B, n, n) of entrywise nonnegative matrices.

    Lanczos on K^T K, applied as K^T (K v) and never formed, from the unit
    all-ones vector: the top right singular vector of a nonnegative K is
    nonnegative, so that start overlaps it.  Unlike power iteration,
    Lanczos converges as fast on a shifted spectrum, so a cluster of
    singular values (K near a multiple of the identity) costs it nothing.
    Each new Lanczos vector is reorthogonalized against all earlier ones by
    two classical Gram-Schmidt passes; one pass loses orthogonality and the
    top Ritz value with it.  Every second step the top eigenvalue of each
    tridiagonal is read, and a matrix's norm is frozen at the first read
    that rises by at most 1e-12 of itself, so each norm depends on its own
    matrix only.  After n steps the Krylov space is the whole space, so a
    matrix still unfrozen then takes that step's read, which is exact.  A
    matrix with an infinite entry has norm +inf.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InvalidArgument("expected a stack of square matrices (B, n, n)")
    out = np.zeros(mats.shape[0])
    if mats.size == 0:
        return out
    flat = mats.reshape(mats.shape[0], -1)
    if not flat.min() >= 0.0:
        raise InvalidArgument("matrices must be entrywise nonnegative and not NaN")
    peak = flat.max(axis=1)
    out[np.isinf(peak)] = math.inf
    live = np.flatnonzero((peak > 0.0) & np.isfinite(peak))
    if live.size:
        # Lanczos runs on (cK)^T (cK) with c a normal power of two near
        # 1/peak: exact, and clear of under- and overflow whatever the size
        # of K.  c scales the vectors, which is cheaper than a pass over K.
        c = np.ldexp(1.0, np.clip(-np.frexp(peak[live])[1], -1022, 1023))
        k = mats if live.size == mats.shape[0] else mats[live]
        out[live] = np.sqrt(_lanczos_top_eigenvalues(k, c[:, None, None])) / c
    return out


def _lanczos_top_eigenvalues(k, c):
    """Largest eigenvalue of (cK)^T (cK) for each matrix K of the stack k."""
    b, n, _ = k.shape
    # the Lanczos vectors as rows; most matrices converge within 16 steps,
    # so the basis starts small and doubles when full, which for large n is
    # far cheaper than fresh pages for n + 1 rows on every call
    basis = np.empty((b, 8, n))
    basis[:, 0] = 1.0 / math.sqrt(n)
    diag = np.zeros((b, n))      # the Lanczos tridiagonal
    sub = np.zeros((b, n))
    prev = np.zeros(b)
    frozen = np.zeros(b)
    done = np.zeros(b, dtype=bool)
    for j in range(n):
        if j + 2 > basis.shape[1]:
            basis = np.concatenate([basis, np.empty_like(basis)], axis=1)
        # w and h are row vectors (b, 1, .); q holds the Lanczos vectors so far
        w = ((k @ (basis[:, j, :, None] * c)).transpose(0, 2, 1) * c) @ k
        q = basis[:, :j + 1]
        qt = q.transpose(0, 2, 1)
        h = w @ qt
        w = w - h @ q
        h2 = w @ qt
        w = w - h2 @ q
        diag[:, j] = (h + h2)[:, 0, j]
        norm = np.sqrt(w @ w.transpose(0, 2, 1))
        sub[:, j] = norm[:, 0, 0]
        # an exhausted Krylov space leaves w = 0 and adds a zero vector
        np.divide(w, np.maximum(norm, 1e-300), out=basis[:, j + 1:j + 2])
        if j % 2 == 0 and j < n - 1:
            continue
        m = j + 1
        tri = np.zeros((b, m * m))     # lower half; the flat stride m + 1 walks a diagonal
        tri[:, ::m + 1] = diag[:, :m]
        tri[:, m::m + 1] = sub[:, :m - 1]
        theta = np.linalg.eigvalsh(tri.reshape(b, m, m))[:, -1]
        # later steps of a frozen matrix are wasted but cannot change its value
        fresh = ((theta - prev <= 1e-12 * theta) | (j == n - 1)) & ~done
        np.copyto(frozen, theta, where=fresh)
        done |= fresh
        if done.all():
            return frozen
        prev = theta


def operator_norm(m, tol=1e-10, *, seed=None, start=None, max_iter=10000):
    """Largest singular value of ``m`` via power iteration on the Gram product.

    ``start`` optionally warm-starts the iteration (e.g. with the singular
    vector from a nearby matrix).  Raises :class:`NumericsFailure` carrying
    the best estimate if the iteration cap is reached without convergence.
    """
    mm = np.asarray(m, dtype=float)
    if mm.ndim != 2:
        raise InvalidArgument(f"expected a 2-d matrix, got ndim={mm.ndim}")
    if not np.all(np.isfinite(mm)):
        raise InvalidArgument("matrix entries must be finite")
    if not tol > 0.0:
        raise InvalidArgument(f"tol must be positive, got {tol}")
    sigma, _, _, ok = _power_iteration(mm, tol, seed, start, max_iter)
    if not ok:
        raise NumericsFailure(
            f"power iteration did not converge within {max_iter} iterations",
            best_estimate=sigma,
        )
    return sigma


# ---------------------------------------------------------------------------
# adaptive quadrature

VALUE = "value"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and tolerances for :func:`integrate_adaptive`.

    ``upper`` may be +inf, in which case the tail is integrated over
    geometrically doubled horizons until the increments certify convergence
    or divergence.
    """

    lower: float
    upper: float = math.inf
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.lower >= 0.0 and math.isfinite(self.lower)):
            raise InvalidArgument(f"lower limit must be finite and >= 0, got {self.lower}")
        if not self.upper >= self.lower:
            raise InvalidArgument("upper limit must be at or above the lower limit")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise InvalidArgument("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise InvalidArgument("max_subdivisions must be a positive integer")


@dataclass(frozen=True)
class IntegralResult:
    """Verdict of an adaptive integration: a value, divergence, or neither."""

    kind: str
    value: float | None = None
    error: float | None = None
    horizon: float | None = None

    @property
    def is_value(self):
        return self.kind == VALUE

    @property
    def is_divergent(self):
        return self.kind == DIVERGENT


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1]; the embedded Gauss-7 rule
# uses the odd-indexed nodes.
_GK_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_GK_WEIGHTS = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_G7_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


def _gk15(fv, a, b):
    """Kronrod-15 sums and |K15 - G7| error estimates of the panels [a[i], b[i]].

    ``fv`` is called once, on the 15 nodes of every panel in one array.
    Each panel's sums are taken on its own row, so they do not depend on
    which panels share the call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(fv((c[:, None] + h[:, None] * _GK_NODES).ravel()), dtype=float)
    y = y.reshape(a.size, _GK_NODES.size)
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericsFailure(
            f"integrand returned a non-finite value on [{float(a[i])}, {float(b[i])}]")
    ks, errs = [], []
    for hi, row in zip(h.tolist(), y):
        k = hi * float(_GK_WEIGHTS @ row)
        g = hi * float(_G7_WEIGHTS @ row[1::2])
        ks.append(k)
        errs.append(abs(k - g))
    return ks, errs


def _graded_edges(a, b, grade_lower):
    """Initial panel edges, geometrically refined toward the lower endpoint.

    A power-law spike sitting within a relative distance 1e-8 of the lower
    endpoint is invisible to the Kronrod nodes of one wide panel; pre-grading
    guarantees it lands inside a panel of comparable width.
    """
    if not grade_lower:
        return [a, b]
    width = b - a
    edges = [a]
    scale = 1e-8
    while scale < 1.0:
        edges.append(a + width * scale)
        scale *= 8.0
    edges.append(b)
    return edges


def _refine_finite(fv, a, b, abs_budget, rel_tol, max_splits, grade_lower=True):
    """Adaptive bisection with a worst-panel-first heap.

    Bisection concentrates panels geometrically toward any integrable endpoint
    singularity, which is what makes x**p with p in (-1, 0) tractable.
    Returns (value, error_estimate, splits_used, diverged).
    """
    if b <= a:
        return 0.0, 0.0, 0, False
    total, toterr = 0.0, 0.0
    splits = 0
    counter = 0  # heap tie-breaker
    heap = []
    edges = _graded_edges(a, b, grade_lower)
    for lo, hi, k, e in zip(edges, edges[1:], *_gk15(fv, edges[:-1], edges[1:])):
        total += k
        toterr += e
        counter += 1
        heapq.heappush(heap, (-e, counter, lo, hi, k, e))
    # target half the budget: |K15-G7| is a heuristic that can under-report
    while toterr > 0.5 * max(abs_budget, rel_tol * abs(total)) and splits < max_splits:
        _, _, a0, b0, k0, e0 = heapq.heappop(heap)
        width_floor = 1e-15 * max(abs(a0), abs(b0), 1.0)
        if b0 - a0 <= width_floor:
            # cannot refine further in double precision; put it back and stop
            counter += 1
            heapq.heappush(heap, (-e0, counter, a0, b0, k0, e0))
            break
        m = 0.5 * (a0 + b0)
        (k1, k2), (e1, e2) = _gk15(fv, (a0, m), (m, b0))
        total += k1 + k2 - k0
        toterr += e1 + e2 - e0
        splits += 1
        counter += 1
        heapq.heappush(heap, (-e1, counter, a0, m, k1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b0, k2, e2))
        if abs(total) > DIVERGENCE_THRESHOLD:
            return total, toterr, splits, True
    return total, toterr, splits, False


_INITIAL_TAIL_SPAN = 16.0
_MAX_TAIL_SEGMENTS = 60
# increments failing to decay by at least this fraction per doubled horizon
# are treated as non-decaying (catches exactly-harmonic tails)
_DECAY_SLACK = 0.01


def integrate_adaptive(f, spec):
    """Integrate ``f`` over ``[spec.lower, spec.upper)`` with verdict semantics.

    ``f`` must be vectorized: it maps a 1-d ndarray of abscissae to an array
    of integrand values of the same shape.  One call takes the nodes of
    several panels: all initial panels of a segment, or both halves of a
    split panel.

    Returns an :class:`IntegralResult`:

    * ``value``   -- the partial integrals converged within tolerance (for
      infinite upper limits a geometric tail estimate is folded in);
    * ``divergent`` -- the partial integral exceeded 1e12, or the increments
      over successive doubled horizons stopped decaying;
    * ``inconclusive`` -- neither verdict could be certified before the
      subdivision or horizon budget ran out (the horizon reached is reported).

    A non-finite integrand value raises :class:`NumericsFailure`.
    """
    if not isinstance(spec, QuadratureSpec):
        raise InvalidArgument("spec must be a QuadratureSpec")
    if spec.upper == spec.lower:
        return IntegralResult(VALUE, value=0.0, error=0.0)
    tol = lambda total: max(spec.abs_tol, spec.rel_tol * abs(total))

    if math.isfinite(spec.upper):
        val, err, _, diverged = _refine_finite(
            f, spec.lower, spec.upper, spec.abs_tol, spec.rel_tol, spec.max_subdivisions
        )
        if diverged:
            return IntegralResult(DIVERGENT, value=val, horizon=spec.upper)
        if err <= 8.0 * tol(val):
            return IntegralResult(VALUE, value=val, error=err)
        return IntegralResult(INCONCLUSIVE, value=val, error=err, horizon=spec.upper)

    # semi-infinite: geometric horizon doubling.  Each segment gets a capped
    # share of the split budget so one stubborn segment cannot starve the
    # doubling loop that decides the verdict.
    budget = spec.max_subdivisions
    seg_cap = max(256, spec.max_subdivisions // 8)
    seg_abs = spec.abs_tol / 8.0
    horizon = spec.lower + _INITIAL_TAIL_SPAN
    total, toterr, used, diverged = _refine_finite(
        f, spec.lower, horizon, seg_abs, spec.rel_tol / 4.0, min(budget, seg_cap)
    )
    if diverged:
        return IntegralResult(DIVERGENT, value=total, horizon=horizon)
    budget -= used
    prev_inc = None
    for _ in range(_MAX_TAIL_SEGMENTS):
        if budget <= 0:
            return IntegralResult(INCONCLUSIVE, value=total, error=toterr, horizon=horizon)
        nxt = horizon * 2.0
        inc, inc_err, used, diverged = _refine_finite(
            f, horizon, nxt, seg_abs, spec.rel_tol / 4.0, min(budget, seg_cap),
            grade_lower=False,
        )
        budget -= used
        total += inc
        toterr += inc_err
        horizon = nxt
        if diverged or abs(total) > DIVERGENCE_THRESHOLD:
            return IntegralResult(DIVERGENT, value=total, horizon=horizon)
        inc = abs(inc)
        if prev_inc is not None:
            if inc > tol(total) and inc >= prev_inc * (1.0 - _DECAY_SLACK):
                return IntegralResult(DIVERGENT, value=total, horizon=horizon)
            ratio = inc / prev_inc if prev_inc > 0.0 else 0.0
            if ratio < 0.95:
                tail = inc * ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
                if tail <= tol(total):
                    return IntegralResult(VALUE, value=total + tail, error=toterr + tail)
        elif inc == 0.0:
            return IntegralResult(VALUE, value=total, error=toterr)
        prev_inc = inc
    return IntegralResult(INCONCLUSIVE, value=total, error=toterr, horizon=horizon)
