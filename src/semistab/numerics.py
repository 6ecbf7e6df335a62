"""Self-contained numerical kernels.

Matrix exponentials, spectral norms, adaptive quadrature on finite or
semi-infinite intervals, the growth-bounded grid search and its read
store.  All operations are pure functions of their inputs.  Exponentials
of 1x1 and 2x2 matrices take closed forms (:func:`_expm`), and larger
ones scaling and squaring on Taylor terms computed once per matrix
(:class:`TaylorExponential`), for one B at many times t or for a stack of
matrices at time 1.  Stacks of matrices get
their spectral norms from stateless stacked kernels, largest singular values
to a few ulps (:func:`operator_norms_batch`: a closed form at 2x2, the top
Gram eigenvalue above) or Lanczos from a fixed start vector
(:func:`operator_norms_lanczos`), and each norm in a stack depends on its
own matrix only.  The only randomness
is the seeded start vector of :func:`operator_norm` called without one, and
no analysis path calls it, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument, InvalidModel, NumericsFailure

#: Fractional integration reads a norm at or below this as an exact zero,
#: and the matrix route proves an underflowed orbit norm is below it.  No
#: stage compares logs with it: only a model's own log of -inf is a zero.
NORM_FLOOR = 1e-300

#: First-pass stride of :func:`growth_bounded_search`.
SEARCH_STRIDE = 32
#: Rise of log||T(t)|| beyond its stated growth bound that computed norms
#: may show; bounds the numerical noise of the norm kernels with a wide margin.
LOG_SLACK = 1e-9


def growth_bounded_search(traj, size, time_at, increasing, keep):
    """Evaluate, coarse to fine, the points of a grid that ``keep`` may need.

    The grid has ``size`` points; ``time_at`` maps an array of indices to
    their times, so the grid need not be built, and ``increasing`` says
    whether its times never decrease.

    The norm rises at most like exp(rate * s), rate = max(growth_rate, 0),
    which is 0 on a contraction.  The first pass takes the first, the last
    and every SEARCH_STRIDE-th point.  Inside a gap (a, b) between evaluated
    points, log||T|| is then at most the gap's head log||T(t_a)|| +
    LOG_SLACK + rate * (t_{b-1} - t_a), -inf when T(t_a) is exactly zero.
    After each round, ``keep(new, logs, hi, head)`` gets the grid indices
    evaluated in it and their log norms, and the right ends and heads of the
    open gaps, and says which gaps may hold a point it needs; a rejected gap
    is never offered again.  The next round evaluates the midpoints of the
    kept gaps in one call.  With an infinite rate, or a grid that ever
    decreases, every point is evaluated in one call.
    """
    rate = max(traj.growth_rate, 0.0)
    bounded = math.isfinite(rate) and increasing
    todo = np.append(np.arange(0, size - 1, SEARCH_STRIDE if bounded else 1), size - 1)[:size]
    lo, hi, log_lo = todo[:-1], todo[1:], None
    while todo.size:
        log_new = traj.log_evaluate_many(time_at(todo))
        # the left ends: the first-pass points, then each kept gap's own
        # left end followed by its midpoint
        log_lo = log_new[:-1] if log_lo is None else np.stack([log_lo, log_new], 1).ravel()
        # an unbounded search has no gap wider than one step, and its
        # infinite rate is never read
        wide = hi - lo > 1
        lo, hi, log_lo = lo[wide], hi[wide], log_lo[wide]
        kept = keep(todo, log_new, hi, log_lo + LOG_SLACK + rate * (time_at(hi - 1) - time_at(lo)))
        # >> 1 rather than // 2: numpy's integer floor-division loop alone
        # raised the closed-form benchmark's peak RSS by about 0.3 MiB
        lo, hi, log_lo = lo[kept], hi[kept], log_lo[kept]
        todo = (lo + hi) >> 1
        lo, hi = np.stack([lo, todo], 1).ravel(), np.stack([todo, hi], 1).ravel()


class ReadStore:
    """The reads of one log norm curve so far, sorted by time, each time read once.

    ``t`` and ``log`` hold the times read and their log norms, ended by a
    sentinel at t = +inf that reads -inf and is never evaluated, so every
    lookup lands on an index.  Each lookup is a cumulative maximum or
    minimum of the logs and a binary search; ``t.searchsorted`` finds the
    first read at or after a time.  The store reads as its curve does,
    through ``log_evaluate_many``, with the curve's ``growth_rate``, so a
    search that takes a curve can read through it.
    """

    def __init__(self, traj):
        self.traj = traj
        self.growth_rate = traj.growth_rate
        self.t, self.log = np.array([math.inf]), np.array([-math.inf])
        self._neg_envelope = None

    def read(self, ts):
        """log||T(t)|| at each of ``ts``, evaluating in one call only the times not read before."""
        ts = np.asarray(ts, dtype=float)
        at = self.t.searchsorted(ts)
        new = ts[self.t[at] != ts]
        if new.size:
            new.sort(kind="stable")
            first = np.empty(new.size, dtype=bool)
            first[0] = True
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new[first]
            t = np.concatenate([self.t, new])
            order = t.argsort(kind="stable")
            self.t = t[order]
            self.log = np.concatenate([self.log, self.traj.log_evaluate_many(new)])[order]
            self._neg_envelope = None
            at = self.t.searchsorted(ts)
        return self.log[at]

    log_evaluate_many = read

    def envelope(self, ts):
        """The largest log read at or after each of ``ts``, -inf past the last read."""
        at = self.t.searchsorted(ts)
        first = at.min(initial=self.t.size - 1)
        return np.maximum.accumulate(self.log[first:][::-1])[::-1][at - first]

    def last_at_or_above(self, thresholds):
        """Index of the latest read whose log is at or above each threshold, -1 where none is."""
        if self._neg_envelope is None:
            # ascending, for searchsorted: minus the reverse cumulative maximum
            self._neg_envelope = -np.maximum.accumulate(self.log[::-1])[::-1]
        return self._neg_envelope.searchsorted(-thresholds, side="right") - 1

    def first_below(self, thresholds):
        """Index of the earliest read whose log is below each threshold; the sentinel's if none."""
        return (-np.minimum.accumulate(self.log)).searchsorted(-thresholds, side="right")


#: Default seed for the power-iteration start vector when none is given.
DEFAULT_SEED = 1863

#: Partial integrals beyond this magnitude are declared divergent.
DIVERGENCE_THRESHOLD = 1.0e12

_SCALED_NORM_TARGET = 0.5  # squarings bring the scaled norm at or below this
_TAYLOR_DEGREE = 16  # remainder below 0.5^17/17! ~ 2e-20 at a scaled norm of 0.5
_TAYLOR_POWERS = np.arange(_TAYLOR_DEGREE + 1)


# ---------------------------------------------------------------------------
# matrix exponential


def _as_square_matrix(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidModel(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidModel("matrix entries must be finite")
    return m


def _eigenvalues(m):
    """Eigenvalues of a finite, nonempty square matrix; a failed solve is a NumericsFailure."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0 or not np.isfinite(m).all():
        raise InvalidArgument(f"expected a finite, nonempty square matrix, got shape {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericsFailure(f"eigenvalue solve failed: {exc}") from None


def matrix_exponential(a, t):
    """Evaluate exp(t*a): a closed form up to 2x2, scaling and squaring above.

    A larger matrix goes through :class:`TaylorExponential` at time 1 (see
    ``_expm``).  ``t`` must be finite and nonnegative.
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

    Orders 1 and 2 take closed forms: exp of the entry, and for 2x2 the
    forms of :func:`_expm2`.  Larger matrices take the Taylor terms of each
    matrix of the stack at time 1 (:class:`TaylorExponential`), so every
    order from 3 up has one exponential.  Every matrix runs its own
    operations, elementwise or per matrix, so it gets the same bits alone
    or inside any batch.  An exponential that overflows is not finite, and
    callers read it as an infinite norm.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        return _expm(b[None])[0]
    count, n = b.shape[:2]
    if b.size == 0:
        return np.broadcast_to(np.eye(n), b.shape).copy()
    if n <= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(b) if n == 1 else _expm2(b)
    return TaylorExponential(b)(np.ones(count))


def _squarings(norms):
    """The fewest halvings that bring each row-sum norm to at most 0.5."""
    # ceil(log2(norm / 0.5)), exactly: the mantissa is 0.5 only on a power of two
    mant, expo = np.frexp(norms / _SCALED_NORM_TARGET)
    return np.maximum(expo - (mant == 0.5), 0)


def _square_back(acc, squarings):
    """Square each matrix of the stack ``acc`` its own number of times, in place of ``acc``."""
    out = acc
    fewest = int(squarings.min())
    with np.errstate(over="ignore", invalid="ignore"):
        # growing semigroups overflow at large times; callers treat a
        # non-finite exponential as having infinite norm.  The whole stack is
        # squared; each matrix is copied out after its own squarings.
        for j in range(1, int(squarings.max()) + 1):
            acc = acc @ acc
            if j >= fewest:
                np.copyto(out, acc, where=(squarings == j)[:, None, None])
    return out


class TaylorExponential:
    """exp(t*B) at arrays of times t >= 0, for one square B of order 3 or more or a stack of them.

    Scaling and squaring (Moler and Van Loan, SIAM Rev. 45, 2003) with a
    degree-16 Taylor polynomial, whose remainder is below 0.5^17/17! ~ 2e-20
    at a scaled norm of 0.5.  The steps that depend on B alone are taken
    once: the row-sum norm ||B||, and the Taylor terms P_k = (B/rho)^k / k!
    for k = 0..16, rho the power of two at or above ||B||, so that no power
    overflows.  At a time t the squaring count s is the fewest halvings
    that bring t*||B|| to at most 0.5, and the polynomial of
    X = t*B/2^s = c*(B/rho), c = t*rho/2^s <= 1, is the sum of c^k P_k, one
    row of 17 powers times the 17 terms per time.  That product runs per
    time over the batch axis, never as one matrix product across times,
    whose blocking may depend on the batch size, so each time gets the same
    bits alone or in any batch.  The result is squared s times.  One B is
    read at every time of ``ts``; a stack (K, n, n) takes one time per
    matrix, so ``ts`` has K entries.
    """

    def __init__(self, b):
        b = np.asarray(b, dtype=float)
        b = b if b.ndim == 3 else b[None]
        count, n = b.shape[:2]
        self._norm = np.abs(b).sum(axis=2).max(axis=1)
        mant, expo = np.frexp(self._norm)
        self._log2_rho = expo - (mant == 0.5)  # 0 for B = 0
        q = np.ldexp(b, -self._log2_rho[:, None, None])
        terms = np.empty((count, _TAYLOR_DEGREE + 1, n, n))
        terms[:, 0] = np.eye(n)
        for k in range(1, _TAYLOR_DEGREE + 1):
            np.divide(terms[:, k - 1] @ q, k, out=terms[:, k])
        self._terms = terms.reshape(count, _TAYLOR_DEGREE + 1, n * n)
        self._shape = (n, n)

    def __call__(self, ts):
        """The stack (T, n, n) of exp(t*B) at the 1-d array of times ``ts``."""
        squarings = _squarings(ts * self._norm)
        c = np.ldexp(ts, self._log2_rho - squarings)
        # (T, 1, 17) @ (K, 17, n^2), K = 1 or T: a row of powers times the terms, per time
        acc = (c[:, None, None] ** _TAYLOR_POWERS @ self._terms).reshape(ts.size, *self._shape)
        return _square_back(acc, squarings)


def _expm2(b):
    """exp(B) for a stack (B, 2, 2), each matrix in the closed form of its kind.

    B = [[a, x], [y, d]] with mean mu and half-difference p of its diagonal.

    * Triangular (x = 0 or y = 0): B is its own Schur form, and exp(B) is
      [[e^a, x f], [y f, e^d]] with f the divided difference of exp at a and
      d (see :func:`_exp_divided_difference`).
    * Real distinct eigenvalues, mu +- r with r^2 = p^2 + x y > 0: one
      Givens rotation Q onto the eigenvector (z, y), z = p + sign(p) r, gives
      the Schur form Q^T B Q = [[d + z, x - y], [0, d - x y / z]], as
      LAPACK's dlanv2 computes it, with no cancellation in z or the second
      eigenvalue; exp(B) is Q times the triangular form's exp times Q^T.
    * A complex pair mu +- i theta, or a double eigenvalue (r^2 <= 0):
      (B - mu I)^2 = -theta^2 I, so exp(B) is
      e^mu (cos(theta) I + sin(theta)/theta (B - mu I)).

    Higham, *Functions of Matrices*, 2008, sections 4.6 and 10.4.  Each
    matrix computes only its own kind's form, elementwise.
    """
    a, x, y, d = b.reshape(-1, 4).T
    tri = (x == 0.0) | (y == 0.0)
    if tri.all():
        return _entries(*_expm2_triangular(a, x, y, d))
    out = np.empty_like(b)
    if tri.any():
        out[tri] = _entries(*_expm2_triangular(a[tri], x[tri], y[tri], d[tri]))
    full = np.flatnonzero(~tri)
    a, x, y, d = a[full], x[full], y[full], d[full]
    p, xy = 0.5 * (a - d), x * y
    disc = p * p + xy
    real = disc > 0.0
    for kind, form in ((real, _expm2_rotated), (~real, _expm2_polynomial)):
        if kind.any():
            out[full[kind]] = _entries(*form(a[kind], x[kind], y[kind], d[kind], p[kind],
                                             xy[kind], disc[kind]))
    return out


def _entries(e00, e01, e10, e11):
    """The stack (B, 2, 2) with the given entries."""
    out = np.empty((e00.size, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = e00, e01, e10, e11
    return out


def _exp_divided_difference(u, v, eu, ev):
    """(e^u - e^v)/(u - v), and e^u where u = v, given eu = e^u and ev = e^v.

    Where |u - v| <= 1 it is e^m sinh(h)/h, m and h the mean and
    half-difference, which does not cancel; elsewhere the plain quotient,
    whose difference cancels at most a factor 1 - 1/e and which stays
    finite beside an underflowed or overflowed exponential (Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009).
    """
    h = 0.5 * (u - v)
    close = np.abs(h) <= 0.5
    if close.all():
        return np.exp(0.5 * (u + v)) * _sinhc(h)
    out = (eu - ev) / (u - v)
    if close.any():
        out[close] = np.exp(0.5 * (u[close] + v[close])) * _sinhc(h[close])
    return out


def _sinhc(h):
    """sinh(h)/h, exactly 1 wherever |h| < 1e-8, h = 0 included."""
    h = np.maximum(np.abs(h), 1e-300)
    return np.sinh(h) / h


def _expm2_triangular(a, x, y, d):
    ea, ed = np.exp(a), np.exp(d)
    f = _exp_divided_difference(a, d, ea, ed)
    return ea, x * f, y * f, ed


def _expm2_rotated(a, x, y, d, p, xy, disc):
    z = p + np.copysign(np.sqrt(disc), p)
    l1, l2 = d + z, d - xy / z
    tau = np.hypot(z, y)
    cs, sn = z / tau, y / tau
    e1, e2 = np.exp(l1), np.exp(l2)
    f = (x - y) * _exp_divided_difference(l1, l2, e1, e2)
    cc, ss, cssn = cs * cs, sn * sn, cs * sn
    g = cssn * (e1 - e2)
    return cc * e1 - cssn * f + ss * e2, g + cc * f, g - ss * f, ss * e1 + cssn * f + cc * e2


def _expm2_polynomial(a, x, y, d, p, xy, disc):
    # theta is at least 1e-150, which leaves a double eigenvalue's
    # cos(theta) and sin(theta)/theta at exactly 1
    theta = np.sqrt(np.maximum(-disc, 1e-300))
    em = np.exp(0.5 * (a + d))
    c0, c1 = em * np.cos(theta), em * (np.sin(theta) / theta)
    return c0 + c1 * p, c1 * x, c1 * y, c0 - c1 * p


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
    """Spectral norms (largest singular values) of a stack (B, m, n), to a few ulps.

    A 2x2 norm takes the closed form
    sigma_max = (hypot(a + d, y - x) + hypot(a - d, x + y)) / 2 of
    [[a, x], [y, d]], as LAPACK's dlasv2 does: a sum of two nonnegative
    terms, so nothing cancels.  Any other norm is the square root of the top
    eigenvalue of the Gram matrix (cM)^T (cM), c a power of two near
    1/max |M_ij|, so the product neither overflows nor underflows.  Each
    norm depends on its own matrix only.  A matrix with a non-finite entry,
    such as an overflowed exponential, has norm +inf.  A 2x2 form that
    overflows on finite entries, as a + d does on diag(1e308, 1e308), is
    taken again at half scale and doubled.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3:
        raise InvalidArgument("expected a stack of matrices (B, n, n)")
    if mats.shape[1:] == (2, 2):
        out = _norms2(mats)
        bad = ~np.isfinite(out)
        if bad.any():
            # a non-finite entry reads inf or NaN at any scale, and NaN is inf
            redo = 2.0 * _norms2(0.5 * mats[bad])
            out[bad] = np.where(np.isnan(redo), math.inf, redo)
        return out
    out = np.full(mats.shape[0], math.inf)
    finite = np.isfinite(mats).all(axis=(1, 2))
    if finite.any():
        m = mats[finite]
        c = _inverse_scale(np.abs(m).max(axis=(1, 2)))
        m = m * c[:, None, None]
        try:
            top = np.linalg.eigvalsh(m.transpose(0, 2, 1) @ m)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise NumericsFailure(f"symmetric eigenvalue solve failed: {exc}") from None
        out[finite] = np.sqrt(np.maximum(top, 0.0)) / c
    return out


def _norms2(mats):
    """The closed-form 2x2 norms of a stack (B, 2, 2); inf or NaN where a term overflows."""
    a, x, y, d = mats.reshape(-1, 4).T
    with np.errstate(invalid="ignore", over="ignore"):
        return 0.5 * (np.hypot(a + d, y - x) + np.hypot(a - d, x + y))


def _inverse_scale(peak):
    """A normal power of two near 1/peak for each peak: 1 at 0, exact to scale by."""
    return np.ldexp(1.0, np.clip(-np.frexp(peak)[1], -1022, 1023))


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
        # Lanczos runs on cK, c a normal power of two near 1/peak, so that
        # nothing over- or underflows whatever the size of K.  While cK stays
        # in the normal range, a power of two commutes with every rounding:
        # the norm of 2^e K is 2^e times the norm of K, bit for bit.  A
        # caller that hands over unit-peak stacks (peak in [1/2, 1), so
        # c = 1) skips this pass over K.
        c = _inverse_scale(peak[live])
        k = mats if live.size == mats.shape[0] else mats[live]
        if (c != 1.0).any():
            k = k * c[:, None, None]
        out[live] = np.sqrt(_lanczos_top_eigenvalues(k)) / c
    return out


def _lanczos_top_eigenvalues(k):
    """Largest eigenvalue of K^T K for each matrix K of the stack k."""
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
        w = (k @ basis[:, j, :, None]).transpose(0, 2, 1) @ k
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
    or divergence.  Convergence is certified once the geometric estimate of
    the rest of the tail is within tolerance, or has settled: it agrees,
    within a quarter of the tolerance, with the last segment's estimate
    scaled by the ratio of the increments.  A stack of integrands shares
    the interval, the tolerances and one mesh; ``max_subdivisions`` bounds,
    per integrand, the panel splits it asks of the shared mesh, and a split
    asked for by several integrands counts for each.
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


# Kronrod-15 and embedded Gauss-7 weights as the two columns of one matrix
_GK_RULES = np.column_stack([_GK_WEIGHTS, np.insert(_G7_WEIGHTS, np.arange(8), 0.0)])


def _gk15(fv, a, b, rows):
    """Kronrod-15 sums, |K15 - G7| error estimates and zero edges of the panels [a[i], b[i]].

    ``fv`` is called once, on the 15 nodes of every panel in one array, and
    returns one row of values per integrand.  The sums of the rows ``rows``
    come back as (rows, panels) arrays, all from one matrix product.  A
    panel's zero edge is the first node k of its trailing run of nodes where
    every row is exactly 0, when k >= 1 (node k - 1 is nonzero in some row);
    it is 15 when the last node is nonzero or every node is 0.  Only a call
    that reads an exact 0 at some panel's last node looks for the edges; the
    others return None.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = fv((c[:, None] + h[:, None] * _GK_NODES).ravel())[rows]
    y = y.reshape(len(rows), a.size, _GK_NODES.size)
    bad = ~np.isfinite(y).all(axis=(0, 2))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericsFailure(
            f"integrand returned a non-finite value on [{float(a[i])}, {float(b[i])}]")
    sums = h[:, None] * (y @ _GK_RULES)
    edge = None
    # a zero edge needs a 0 at the last node, so one reduction over the last
    # nodes rules it out for every panel
    if not y[..., -1].all():
        # 15 less each panel's trailing run of all-zero nodes; argmax reads
        # a run of 0 on a panel with none, and on a panel 0 throughout
        edge = _GK_NODES.size - np.argmax(y[:, :, ::-1].any(axis=0), axis=1)
    return sums[..., 0], np.abs(sums[..., 0] - sums[..., 1]), edge


def _children(lo, hi, edge):
    """The children of the split panels [lo, hi] with zero edges ``edge`` (None: none).

    A panel with a zero edge is cut in three: the middle child's outermost
    nodes fall on its last nonzero node and the zero node after it.  Any
    other panel is halved.
    """
    mid = 0.5 * (lo + hi)
    if edge is None or edge.min() == _GK_NODES.size:
        return np.concatenate([lo, mid]), np.concatenate([mid, hi])
    three = edge < _GK_NODES.size
    nodes = _GK_NODES[np.stack([edge - 1, edge]) % _GK_NODES.size]
    centre = mid + 0.5 * (hi - lo) * nodes.mean(axis=0)
    reach = 0.25 * (hi - lo) * np.diff(nodes, axis=0)[0] / _GK_NODES[-1]
    left, right = np.where(three, [centre - reach, centre + reach], mid)
    return np.concatenate([lo, right, left[three]]), np.concatenate([left, hi, right[three]])


def _graded_edges(a, b, grade_lower):
    """Initial panel edges, geometrically refined toward the lower endpoint.

    A power-law spike within a relative distance 1e-8 of the lower endpoint
    is invisible to one wide panel's Kronrod nodes.  Edges at 1e-8*2^j of
    the way, j = 0..26, grade toward it at ratio 2, where every panel of an
    algebraic spike meets the accept rule and no round of splits follows
    (Schwab, *p- and hp-FEM*, 1998); ratios from 1.5 to 8 read more norms.
    """
    scales = 1e-8 * 2.0 ** np.arange(27 if grade_lower else 0)  # below 1, exact: powers of two
    return np.concatenate([[a], a + (b - a) * scales, [b]])


def _refine(fv, a, b, rows, abs_budget, rel_tol, caps, grade_lower=True):
    """Adaptive refinement of one panel mesh of [a, b], shared by the integrand rows ``rows``.

    A row refines while its error estimate exceeds half of
    max(abs_budget, rel_tol*|value|), since |K15-G7| is a heuristic that can
    under-report.  Each round splits the union, over the rows still
    refining, of the fewest panels, worst first by that row's estimates,
    whose estimates could close the row's excess; all children are read in
    one call of ``fv``.  A row whose value is already past
    DIVERGENCE_THRESHOLD splits only its worst panel, and diverges if it is
    still past after the round.  A row stops refining once it has asked for
    ``caps[i]`` splits (a panel asked for by several rows counts for each),
    or at a panel too narrow to split in double precision.  The mesh starts
    graded at ratio 2 toward ``a`` with ``grade_lower``, so an algebraic
    spike there takes no round; bisection grades toward any other integrable
    endpoint singularity, which is what makes x**p, p in (-1, 0), tractable.
    A split panel is halved unless it has a zero edge (see ``_gk15``).  Then
    it is cut in three, and the middle child's outermost nodes fall on the
    last nonzero node and the first zero node, so a step down to exact zero
    stays between the middle child's nodes, never in the blind band between
    a panel's end and its outermost node, and its bracket shrinks by 9.5 or
    more per round, not 2.  QUADPACK's QAGP likewise splits at break points
    (Piessens et al., 1983).  The cut only chooses split points: a child is
    accepted on its K15/G7 estimates like any other panel.

    Returns (values, errors, splits used, diverged), one entry per row; a
    diverged row keeps the value it diverged at.
    """
    edges = _graded_edges(a, b, grade_lower)
    lo, hi = edges[:-1], edges[1:]
    k, e, edge = _gk15(fv, lo, hi, rows)
    value, error = k.sum(axis=1), e.sum(axis=1)
    used = np.zeros(len(rows), dtype=int)
    diverged = np.zeros(len(rows), dtype=bool)
    refining = ~diverged
    while True:
        excess = error - 0.5 * np.maximum(abs_budget, rel_tol * np.abs(value))
        refining &= ~diverged & (excess > 0.0) & (used < caps)
        r = np.flatnonzero(refining)
        if r.size == 0:
            return value, error, used, diverged
        order = np.argsort(-e[r], axis=1, kind="stable")
        cum = np.cumsum(np.take_along_axis(e[r], order, axis=1), axis=1)
        need = np.where(np.abs(value[r]) > DIVERGENCE_THRESHOLD, 1,
                        (cum < excess[r, None]).sum(axis=1) + 1)
        need = np.minimum(need, np.minimum(caps[r] - used[r], lo.size))
        # a row stops at the first panel, worst first, too narrow to split
        narrow = (hi - lo <= 1e-15 * np.maximum(hi, 1.0))[order]
        cut = np.where(narrow.any(axis=1), narrow.argmax(axis=1), order.shape[1])
        take = np.minimum(need, cut)
        split = np.zeros(lo.size, dtype=bool)
        split[order[np.arange(order.shape[1]) < take[:, None]]] = True
        if split.any():
            new_lo, new_hi = _children(lo[split], hi[split], None if edge is None else edge[split])
            live = np.flatnonzero(~diverged)
            kc, ec = np.zeros((len(rows), new_lo.size)), np.zeros((len(rows), new_lo.size))
            kc[live], ec[live], new_edge = _gk15(fv, new_lo, new_hi, rows[live])
            keep = ~split
            k, e = np.hstack([k[:, keep], kc]), np.hstack([e[:, keep], ec])
            # the mesh's zero edges stay None until some panel has one
            if edge is None and new_edge is not None:
                edge = np.full(lo.size, _GK_NODES.size)
            if edge is not None:
                edge = np.concatenate([edge[keep], np.full(new_lo.size, _GK_NODES.size)
                                       if new_edge is None else new_edge])
            lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
            value[live], error[live] = k[live].sum(axis=1), e[live].sum(axis=1)
        used[r] += take
        took = r[take > 0]
        diverged[took] = np.abs(value[took]) > DIVERGENCE_THRESHOLD
        refining[r[cut < need]] = False


_INITIAL_TAIL_SPAN = 16.0
_MAX_TAIL_SEGMENTS = 60
# increments failing to decay by at least this fraction per doubled horizon
# are treated as non-decaying (catches exactly-harmonic tails)
_DECAY_SLACK = 0.01


class _Tail:
    """One row's partial integral over the segments of [lower, inf), until its verdict."""

    def __init__(self, budget):
        self.total = self.error = 0.0
        self.budget = budget
        self.prev_inc = self.prev_tail = self.result = None

    def add(self, inc, inc_err, used, diverged, horizon, tol, first):
        """Fold in the segment ending at ``horizon``; sets ``result`` once decided.

        The first segment, from the lower limit, can only diverge or spend
        the budget; the tail rules read the increments of the later ones.  A
        tail rule's value stands only if the summed segment errors are within
        the finite branch's 8 tol(value); otherwise the result is
        inconclusive, since some segment spent its splits unconverged.
        """
        self.budget -= used
        self.total += inc
        self.error += inc_err
        if diverged or (not first and abs(self.total) > DIVERGENCE_THRESHOLD):
            self.result = IntegralResult(DIVERGENT, value=self.total, horizon=horizon)
        elif not first:
            self.result = self._tail_verdict(abs(inc), tol(self.total), horizon)
        res = self.result
        if res is not None and res.is_value and self.error > 8.0 * tol(res.value):
            # the tail rule read partial sums that did not converge
            self.result = replace(res, kind=INCONCLUSIVE, horizon=horizon)
        if self.result is None and self.budget <= 0:
            self.result = IntegralResult(INCONCLUSIVE, value=self.total, error=self.error,
                                         horizon=horizon)

    def _tail_verdict(self, inc, tol, horizon):
        """The verdict that the increment ``inc`` over a doubled horizon gives, or None."""
        prev_inc, prev_tail = self.prev_inc, self.prev_tail
        self.prev_inc, self.prev_tail = inc, None
        if prev_inc is None:
            return IntegralResult(VALUE, value=self.total, error=self.error) if inc == 0.0 else None
        if inc > tol and inc >= prev_inc * (1.0 - _DECAY_SLACK):
            return IntegralResult(DIVERGENT, value=self.total, horizon=horizon)
        ratio = inc / prev_inc if prev_inc > 0.0 else 0.0
        if ratio >= 0.95:
            return None
        self.prev_tail = tail = inc * ratio / (1.0 - ratio) if ratio > 0.0 else 0.0
        # accept a tail below tolerance, or one that has settled: a geometric
        # tail shrinks by the ratio per doubled horizon, so the last segment's
        # estimate foretold this one
        if tail <= tol or (prev_tail is not None and abs(tail - ratio * prev_tail) <= tol / 4.0):
            return IntegralResult(VALUE, value=self.total + tail, error=self.error + tail)
        return None


def integrate_adaptive(f, spec):
    """Integrate ``f`` over ``[spec.lower, spec.upper)`` with verdict semantics.

    ``f`` must be vectorized: it maps a 1-d ndarray of abscissae, possibly
    empty, to an array of integrand values of the same shape, or to a
    (W, N) stack of W integrands.  A stack is integrated in lockstep on one
    shared panel mesh, and a tuple of W results comes back; a single
    integrand is the case W = 1, with one result.  Each call of ``f`` takes
    the nodes of several panels: all initial panels of a segment, or all
    children of one round of splits; the first segment is graded at ratio 2
    toward the lower limit, so an algebraic spike there needs no round.  A
    panel whose trailing nodes read exactly 0 in every row is cut in three
    around its last nonzero node, not halved, so a step down to an
    identically zero integrand is found in a few rounds.
    Each row keeps its own tolerances, tail rules and split budget, and
    leaves the stack once decided.

    Returns an :class:`IntegralResult` per row:

    * ``value``   -- the partial integrals converged within tolerance.  For
      an infinite upper limit the increments inc_k over doubled horizons
      give the geometric tail estimate tail_k = inc_k*r/(1 - r), with
      r = inc_k/inc_{k-1} < 0.95, which is folded in once it is within
      tolerance, or once it has settled: |tail_k - r*tail_{k-1}| is within a
      quarter of the tolerance, the share each segment's quadrature gets
      (Piessens et al., *QUADPACK*, 1983, extrapolate infinite-range tails
      likewise).  The increments of a power tail t^-q are exactly
      geometric, so it settles within a few doublings.  Either way the
      segments' summed error estimates must be within 8 times the
      tolerance of the value, the finite interval's rule;
    * ``divergent`` -- the partial integral exceeded 1e12, or the increments
      over successive doubled horizons stopped decaying;
    * ``inconclusive`` -- neither verdict could be certified before the
      subdivision or horizon budget ran out, or a tail rule held while some
      segment's partial integral had not converged (the horizon reached is
      reported).

    A non-finite value of an undecided row raises :class:`NumericsFailure`.
    """
    if not isinstance(spec, QuadratureSpec):
        raise InvalidArgument("spec must be a QuadratureSpec")
    shape = np.shape(f(np.empty(0)))
    n = shape[0] if len(shape) == 2 else 1
    results = _integrate_rows(lambda ts: np.asarray(f(ts), dtype=float).reshape(n, ts.size), n, spec)
    return tuple(results) if len(shape) == 2 else results[0]


def _integrate_rows(fv, n, spec):
    """:func:`integrate_adaptive` of the ``n`` rows of ``fv``, as a list of results."""
    if spec.upper == spec.lower:
        return [IntegralResult(VALUE, value=0.0, error=0.0)] * n
    tol = lambda total: max(spec.abs_tol, spec.rel_tol * abs(total))
    if math.isfinite(spec.upper):
        vals, errs, _, diverged = _refine(fv, spec.lower, spec.upper, np.arange(n), spec.abs_tol,
                                          spec.rel_tol, np.full(n, spec.max_subdivisions))
        return [IntegralResult(DIVERGENT, value=val, horizon=spec.upper) if div
                else IntegralResult(VALUE, value=val, error=err) if err <= 8.0 * tol(val)
                else IntegralResult(INCONCLUSIVE, value=val, error=err, horizon=spec.upper)
                for val, err, div in zip(vals.tolist(), errs.tolist(), diverged.tolist())]

    # semi-infinite: a graded first segment, then geometric horizon doubling.
    # Each segment gets a capped share of a row's split budget so one
    # stubborn segment cannot starve the doubling loop that decides the verdict.
    seg_cap = max(256, spec.max_subdivisions // 8)
    tails = [_Tail(spec.max_subdivisions) for _ in range(n)]
    lo, hi = spec.lower, spec.lower + _INITIAL_TAIL_SPAN
    for segment in range(_MAX_TAIL_SEGMENTS + 1):
        rows = np.array([i for i, tail in enumerate(tails) if tail.result is None], dtype=int)
        if rows.size == 0:
            break
        caps = np.minimum([tails[i].budget for i in rows], seg_cap)
        out = _refine(fv, lo, hi, rows, spec.abs_tol / 8.0, spec.rel_tol / 4.0, caps,
                      grade_lower=segment == 0)
        for i, *seg in zip(rows.tolist(), *(part.tolist() for part in out)):
            tails[i].add(*seg, hi, tol, first=segment == 0)
        lo, hi = hi, 2.0 * hi
    return [tail.result or IntegralResult(INCONCLUSIVE, value=tail.total, error=tail.error,
                                          horizon=lo)
            for tail in tails]
