import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semistab import (
    InvalidArgument,
    InvalidModel,
    MatrixSemigroup,
    NormTrajectory,
    QuadratureSpec,
    ScalarDecay,
    integrate_adaptive,
    matrix_exponential,
    operator_norm,
)
from semistab.numerics import (
    SEARCH_STRIDE,
    ReadStore,
    TaylorExponential,
    _expm,
    _graded_edges,
    growth_bounded_search,
    operator_norms_batch,
    operator_norms_lanczos,
)


def _unit_generator(n, skew, rng):
    """An n x n matrix with ||M||_inf = 1 exactly: integer entries over their
    largest absolute row sum, drawn until that sum is a power of two; skew
    gives K - K^T, and for n = 1 the decay -1."""
    if n == 1:
        return np.array([[-1.0]]) if skew else np.array([[float(rng.choice([-1, 1]))]])
    while True:
        k = rng.integers(-3, 4, (n, n))
        m = k - k.T if skew else k
        top = int(np.abs(m).sum(axis=1).max())
        if top and top & (top - 1) == 0:
            return m / top


def _nilpotent_exponential(nil):
    """sum over k < n of N^k/k! for strictly upper-triangular N, in exact rationals."""
    n = len(nil)
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = [row[:] for row in term]
    for k in range(1, n):
        term = [[sum(term[i][m] * Fraction(nil[m, j]) for m in range(n)) / k for j in range(n)]
                for i in range(n)]
        total = [[total[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return np.array([[float(x) for x in row] for row in total])


@st.composite
def _two_by_two(draw):
    """A 2x2 matrix of one of the kinds whose exponential has its own closed form.

    Triangular, upper or lower, with equal, close, distinct or stiff
    diagonals; P J P^-1 for a Jordan block J whose diagonal is equal or
    nearly so (rotated, so not triangular); and complex pairs mu +- i theta,
    normal ([[mu, theta], [-theta, mu]], which every rotation leaves as it
    is) or not ([[mu + h, x], [y, mu - h]] with x y = -(theta^2 + h^2)).
    """
    kind = draw(st.sampled_from(["equal", "close", "distinct", "stiff", "jordan", "normal",
                                 "non-normal"]))
    a = draw(st.floats(-20.0, 20.0))
    if kind in ("equal", "close", "distinct", "stiff"):
        d = {"equal": a, "close": a + draw(st.floats(-1.0, 1.0)),
             "distinct": draw(st.floats(-20.0, 20.0)),
             "stiff": a - 10.0 ** draw(st.floats(2.0, 17.0))}[kind]
        m = np.array([[a, draw(st.floats(-1e3, 1e3))], [0.0, d]])
        return m.T.copy() if draw(st.booleans()) else m
    if kind == "jordan":
        gap = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
        j = np.array([[a, draw(st.floats(-20.0, 20.0))], [0.0, a + gap]])
        # |det P| >= 0.2, so P is well conditioned
        p = np.eye(2) + np.reshape(draw(st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4)),
                                   (2, 2))
        return p @ j @ np.linalg.inv(p)
    theta = draw(st.floats(1e-8, 20.0))
    if kind == "normal":
        return np.array([[a, theta], [-theta, a]])
    h = draw(st.floats(-10.0, 10.0))
    x = draw(st.floats(0.1, 20.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return np.array([[a + h, x], [-(theta * theta + h * h) / x, a - h]])


class TestMatrixExponential:
    def test_zero_generator_gives_identity(self):
        out = matrix_exponential(np.zeros((2, 2)), 7.0)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)

    def test_nilpotent_series_terminates(self):
        out = matrix_exponential([[0.0, 1.0], [0.0, 0.0]], 2.0)
        np.testing.assert_allclose(out, [[1.0, 2.0], [0.0, 1.0]], atol=1e-15)

    def test_diagonal(self):
        out = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        np.testing.assert_allclose(np.diag(out), [math.exp(-1), math.exp(-2)], rtol=1e-14)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0

    def test_triangular_closed_form(self):
        # [[a,b],[0,d]] with a != d has entry b*(e^{at}-e^{dt})/(a-d)
        a, b, d, t = -1.0, 3.0, -2.0, 1.7
        out = matrix_exponential([[a, b], [0.0, d]], t)
        expected = np.array([
            [math.exp(a * t), b * (math.exp(a * t) - math.exp(d * t)) / (a - d)],
            [0.0, math.exp(d * t)],
        ])
        np.testing.assert_allclose(out, expected, rtol=1e-13)

    def test_semigroup_property_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0, (4, 4))
            for s in (0.3, 0.7, 1.1):
                for t in (0.3, 0.7, 1.1):
                    es = matrix_exponential(a, s)
                    et = matrix_exponential(a, t)
                    est = matrix_exponential(a, s + t)
                    gap, ns, nt = operator_norms_batch(np.stack([est - es @ et, es, et]))
                    assert gap <= 1e-8 * (1.0 + ns * nt)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_matches_mpmath_across_squaring_counts(self, n):
        # B = 2^(k-1) f M with ||M||_inf = 1 exactly: f just below 1, 1 and
        # just above put B's row-sum norm just below, at and just above
        # 0.5 * 2^k, where the squaring count steps from k to k+1, so the
        # scaled norm is just below, at and just above 0.5 (0.25 after the
        # extra squaring).  Skew M (n = 1: -1) keeps exp(B) bounded up to 40
        # squarings; a general M runs up to 6.  Against a 40-digit mpmath
        # exponential the error is within 8 n eps max(1, ||B||), the
        # conditioning of exp at B.  From 3x3 up both routes meet it: the
        # stack kernel, B's Taylor terms at t = 1, and the model's route,
        # M's Taylor terms taken once and evaluated at t = 2^(k-1) f (worst
        # seen on either: 0.9 n eps ||B||)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for skew, ks in ((True, (0, 1, 2, 3, 5, 8, 13, 21, 30, 40)), (False, range(7))):
            m = _unit_generator(n, skew, rng)
            routes = [lambda t, b: _expm(b)]
            if n >= 3:
                taylor = TaylorExponential(m)
                routes.append(lambda t, b: taylor(np.array([t]))[0])
            for k in ks:
                for f, side in ((1.0 - 2.0**-40, -1), (1.0, 0), (1.0 + 2.0**-40, 1)):
                    t = 2.0 ** (k - 1) * f
                    b = m * t
                    norm = np.abs(b).sum(axis=1).max()
                    assert np.sign(norm - 2.0 ** (k - 1)) == side
                    with mp.workdps(40):
                        ref = np.array(mp.expm(mp.matrix(b.tolist())).tolist(), dtype=float)
                    for route in routes:
                        err = np.abs(route(t, b) - ref).max()
                        assert err <= 8 * n * eps * max(1.0, norm) * np.abs(ref).max(), (skew, k, side)

    def test_mixed_squaring_counts_give_each_matrix_its_own_bits(self):
        # norms 0.3 * 2^k for k = 0..30 in shuffled order need 0 to 30
        # squarings: each matrix gets the bits it gets alone, in any order
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            m = rng.uniform(-1.0, 1.0, (n, n))
            m -= np.linalg.eigvals(m).real.max() * np.eye(n)  # bounded growth
            m /= np.abs(m).sum(axis=1).max()
            stack = m * (0.3 * 2.0 ** rng.permutation(31))[:, None, None]
            out = _expm(stack)
            assert np.isfinite(out).all()
            for i in range(len(stack)):
                assert np.array_equal(_expm(stack[i]), out[i])
            perm = rng.permutation(len(stack))
            assert np.array_equal(_expm(stack[perm]), out[perm])
            assert np.array_equal(_expm(stack[perm[:7]]), out[perm[:7]])
            if n < 3:
                continue
            # the model's route, the Taylor terms of m taken once, at the
            # same 31 times: each log alone, in the batch and permuted
            logs = MatrixSemigroup(m).trajectory().log_evaluate_many
            ts = 0.3 * 2.0 ** rng.permutation(31)
            out = logs(ts)
            assert np.isfinite(out).all()
            for i in range(ts.size):
                assert np.array_equal(logs(ts[i:i + 1]), out[i:i + 1])
            perm = rng.permutation(ts.size)
            assert np.array_equal(logs(ts[perm]), out[perm])
            assert np.array_equal(logs(ts[perm[:7]]), out[perm[:7]])

    @settings(max_examples=60, deadline=None)
    @given(mats=st.lists(_two_by_two(), min_size=1, max_size=8), order=st.randoms())
    def test_2x2_closed_forms_match_mpmath_and_their_own_bits(self, mats, order):
        # each kind's closed form against a 40-digit mpmath exponential,
        # within the bound of test_matches_mpmath_across_squaring_counts at
        # n = 2 (worst of 3,000 drawn here and of 40,000 more rotated Jordan
        # blocks and non-normal pairs: 2.4 eps ||B|| max |exp(B)|);
        # in a mixed stack each matrix gets the bits it gets alone, in any order
        mp = pytest.importorskip("mpmath")
        stack = np.array(mats)
        out = _expm(stack)
        eps = np.finfo(float).eps
        for b, got in zip(stack, out):
            with mp.workdps(40):
                ref = np.array(mp.expm(mp.matrix(b.tolist())).tolist(), dtype=float)
            norm = np.abs(b).sum(axis=1).max()
            assert np.abs(got - ref).max() <= 16 * eps * max(1.0, norm) * np.abs(ref).max(), b
            assert np.array_equal(_expm(b), got)
        perm = list(range(len(stack)))
        order.shuffle(perm)
        assert np.array_equal(_expm(stack[perm]), out[perm])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nilpotent_generator_gives_its_exact_polynomial(self, n):
        # strictly upper-triangular N has N^n = 0, so exp(N) is the
        # polynomial sum over k < n of N^k/k!, with no Taylor remainder.  On
        # dyadic entries every operation up to index 3 is exact, across 0 to
        # 16 squarings; index 4 rounds 1/6, to within a few units in the last place
        rng = np.random.default_rng(n)
        for _ in range(10):
            for k in range(-6, 16):
                nil = np.triu(rng.integers(-8, 9, (n, n)), 1) * 2.0 ** (k - 3)
                exact = _nilpotent_exponential(nil)
                got = _expm(nil)
                if n <= 3:
                    assert np.array_equal(got, exact)
                else:
                    np.testing.assert_allclose(got, exact, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidModel):
            matrix_exponential(np.ones((2, 3)), 1.0)

    def test_rejects_bad_time(self):
        with pytest.raises(InvalidArgument):
            matrix_exponential(np.eye(2), math.nan)
        with pytest.raises(InvalidArgument):
            matrix_exponential(np.eye(2), math.inf)
        with pytest.raises(InvalidArgument):
            matrix_exponential(np.eye(2), -0.5)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3), 1e-10) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_absolute_maximum(self):
        assert operator_norm(np.diag([3.0, -2.0]), 1e-10) == pytest.approx(3.0, abs=1e-9)

    def test_shear(self):
        # Gram matrix [[1,1],[1,2]] has eigenvalues (3 +- sqrt 5)/2
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert operator_norm([[1.0, 1.0], [0.0, 1.0]], 1e-8) == pytest.approx(expected, rel=1e-6)

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = rng.uniform(-3.0, 3.0, (5, 5))
            ref = np.linalg.svd(m, compute_uv=False)[0]
            assert operator_norm(m, 1e-12) == pytest.approx(ref, rel=1e-9)

    def test_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-2.0, 2.0, (6, 6))
        sigma = operator_norm(m, 1e-12)
        for _ in range(100):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            assert sigma + 1e-12 * (1.0 + sigma) >= np.linalg.norm(m @ x)

    def test_submultiplicative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.uniform(-2.0, 2.0, (4, 4))
            n = rng.uniform(-2.0, 2.0, (4, 4))
            assert operator_norm(m @ n, 1e-11) <= (
                operator_norm(m, 1e-11) * operator_norm(n, 1e-11) + 1e-9
            )

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3)), 1e-10) == 0.0

    def test_cap_failure_carries_estimate(self):
        from semistab import NumericsFailure

        # close singular values converge slowly; four iterations cannot
        # certify 1e-14
        m = np.diag([1.0, 0.995])
        with pytest.raises(NumericsFailure) as err:
            operator_norm(m, 1e-14, max_iter=4)
        assert 0.9 <= err.value.best_estimate <= 1.0 + 1e-12

    def test_tiny_scale_no_underflow(self):
        m = 1e-200 * np.array([[1.0, 2.0], [0.0, 1.0]])
        ref = 1e-200 * np.linalg.svd([[1.0, 2.0], [0.0, 1.0]], compute_uv=False)[0]
        assert operator_norm(m, 1e-10) == pytest.approx(ref, rel=1e-8)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        mats = rng.uniform(-2.0, 2.0, (12, 4, 4))
        batch = operator_norms_batch(mats)
        singles = [operator_norm(m, 1e-11) for m in mats]
        np.testing.assert_allclose(batch, singles, rtol=1e-8)

    def test_batch_non_finite_is_inf(self):
        mats = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, -1.0]]])
        np.testing.assert_array_equal(operator_norms_batch(mats), [math.inf, 3.0])

    def test_batch_2x2_with_an_overflowing_sum_reads_its_norm(self):
        # a + d overflows on diag(1e308, 1e308); the norm is 1e308, as SVD says
        np.testing.assert_array_equal(operator_norms_batch(np.diag([1e308, 1e308])[None]), [1e308])

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           exponents=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=6),
           bad=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3))
    @example(n=2, seed=0, exponents=[308.0, 308.0, 308.0, 307.5], bad=[])
    def test_batch_matches_svd_across_scales(self, n, seed, exponents, bad):
        # the 2x2 closed form and the scaled Gram eigenvalue both stay within
        # 8 n eps of LAPACK's largest singular value from 1e-150 to 1e150
        # (worst of 6,000 matrices per n: 3.2 eps at n = 2, 4.4 eps at n = 3),
        # on full, rank-one, triangular and zero matrices; a matrix with a
        # non-finite entry reads +inf.  At 1e308 the closed form's sums
        # overflow on finite entries, and its half-scale retake still agrees
        rng = np.random.default_rng(seed)
        mats = rng.uniform(-1.0, 1.0, (len(exponents), n, n))
        mats[1::4] = rng.uniform(-1.0, 1.0, (len(mats[1::4]), n, 1)) * mats[1::4, :1, :]
        mats[2::4] = np.triu(mats[2::4])
        mats[3::4] = 0.0
        mats *= (10.0 ** np.array(exponents))[:, None, None]
        ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = operator_norms_batch(mats)
        np.testing.assert_allclose(got, ref, rtol=8 * n * np.finfo(float).eps, atol=0.0)
        hit = rng.integers(0, len(mats), len(bad))
        mats[hit, rng.integers(0, n, len(bad)), rng.integers(0, n, len(bad))] = bad
        expected = np.where(np.isfinite(mats).all(axis=(1, 2)), got, math.inf)
        np.testing.assert_array_equal(operator_norms_batch(mats), expected)


class TestLanczosNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_matches_svd(self, n):
        # every step count, including a Krylov space exhausted at n
        rng = np.random.default_rng(n)
        mats = rng.uniform(0.0, 1.0, (9, n, n))
        mats[::3] = np.tril(mats[::3])
        mats[1] = np.eye(n)
        ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
        np.testing.assert_allclose(operator_norms_lanczos(mats), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-305, 1e-200, 1e200, 1e300])
    def test_extreme_scales(self, scale):
        mats = np.random.default_rng(3).uniform(0.0, 1.0, (4, 6, 6))
        ref = np.linalg.svd(mats, compute_uv=False)[:, 0] * scale
        np.testing.assert_allclose(operator_norms_lanczos(mats * scale), ref, rtol=1e-12, atol=0.0)

    def test_each_norm_depends_on_its_own_matrix(self):
        mats = np.random.default_rng(4).uniform(0.0, 1.0, (12, 20, 20))
        batch = operator_norms_lanczos(mats)
        singles = np.array([operator_norms_lanczos(m[None])[0] for m in mats])
        assert np.array_equal(batch, singles)
        order = np.random.default_rng(5).permutation(12)
        assert np.array_equal(operator_norms_lanczos(mats[order]), batch[order])

    def test_zero_and_infinite(self):
        mats = np.zeros((3, 4, 4))
        mats[1, 2, 0] = np.inf
        mats[2] = np.eye(4) * 2.0
        np.testing.assert_array_equal(operator_norms_lanczos(mats), [0.0, math.inf, 2.0])

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_rejects_negative_and_nan_entries(self, bad):
        mats = np.ones((2, 3, 3))
        mats[1, 0, 2] = bad
        with pytest.raises(InvalidArgument):
            operator_norms_lanczos(mats)


class TestGrowthBoundedSearch:
    def test_grid_is_mapped_only_where_it_is_read(self):
        # a grid of a million points is given by its size and index map, and
        # no call maps more indices than the first pass takes
        size = 10**6
        mapped = []

        def time_at(i):
            mapped.append(np.size(i))
            return i * 1e-3

        growth_bounded_search(ScalarDecay(1.0).trajectory(), size, time_at, True,
                              lambda new, vals, hi, head: np.zeros(hi.size, dtype=bool))
        assert 0 < max(mapped) <= size // SEARCH_STRIDE + 2


def _dense_outcomes(t, x, r):
    """Each row's latest read with x <= r and earliest with x > r, as times and x.

    The dense reference: every row against every read, with repeats, as the
    entry bisection's known outcomes once read them.  None is -inf and +inf.
    """
    above = x <= r[:, None]
    t_above, t_below = np.where(above, t, -math.inf), np.where(above, math.inf, t)
    i, j = t_above.argmax(1), t_below.argmin(1)
    rows = np.arange(r.size)
    return t_above[rows, i], x[i], t_below[rows, j], x[j]


def _dense_around(t, ends):
    """The first read at or after each end and the last read before it, as times; none is +-inf."""
    after = np.where(t >= ends[:, None], t, math.inf).argmin(1)
    before = np.where(t < ends[:, None], t, -math.inf).argmax(1)
    rows = np.arange(ends.size)
    return (np.where(t >= ends[:, None], t, math.inf)[rows, after],
            np.where(t < ends[:, None], t, -math.inf)[rows, before])


@st.composite
def _read_batches(draw):
    """A curve on a few times, logs that rise and tie and may be -inf, read in unsorted batches."""
    times = draw(st.lists(st.floats(0.0, 64.0), min_size=1, max_size=12, unique=True))
    logs = draw(st.lists(st.one_of(st.sampled_from([-math.inf, 0.0, -1.0, -2.5]),
                                   st.floats(-50.0, 5.0)),
                         min_size=len(times), max_size=len(times)))
    batches = draw(st.lists(st.lists(st.sampled_from(times), min_size=1, max_size=8),
                            min_size=1, max_size=5))
    return dict(zip(times, logs)), batches


class TestReadStore:
    @settings(max_examples=200, deadline=None)
    @given(case=_read_batches(), extra=st.lists(st.floats(-60.0, 6.0), max_size=4),
           ends=st.lists(st.floats(0.0, 70.0), min_size=1, max_size=6))
    def test_lookups_match_a_dense_scan_of_every_read(self, case, extra, ends):
        curve, batches = case
        evaluated = []

        def logs(ts):
            evaluated.extend(ts.tolist())
            return np.array([curve[t] for t in ts])

        store = ReadStore(NormTrajectory(log_evaluate_many=logs, growth_rate=0.0))
        for batch in batches:
            got = store.read(np.array(batch))
            assert got.tolist() == [curve[t] for t in batch]
        every = np.array([t for batch in batches for t in batch])
        # each time read once, and the store holds each, sorted
        assert sorted(evaluated) == sorted(set(every.tolist())) == store.t[:-1].tolist()
        seen_log = np.array([curve[t] for t in every])
        # thresholds at the logs read, ties included, and elsewhere
        finite = {v for v in seen_log.tolist() if math.isfinite(v)}
        thresholds = np.array(sorted(finite | set(extra)))
        if thresholds.size:
            lo, x_lo, hi, x_hi = _dense_outcomes(every, -seen_log, -thresholds)
            i, j = store.last_at_or_above(thresholds), store.first_below(thresholds)
            assert np.where(i >= 0, store.t[i], -math.inf).tolist() == lo.tolist()
            assert store.t[j].tolist() == hi.tolist()
            found = i >= 0
            assert (-store.log[i[found]]).tolist() == x_lo[found].tolist()
            found = j < store.t.size - 1
            assert (-store.log[j[found]]).tolist() == x_hi[found].tolist()
        ends = np.array(ends)
        after, before = _dense_around(every, ends)
        at = store.t.searchsorted(ends)
        assert store.t[at].tolist() == after.tolist()
        assert np.where(at > 0, store.t[at - 1], -math.inf).tolist() == before.tolist()
        envelope = [max([curve[t] for t in every if t >= e], default=-math.inf) for e in ends]
        assert store.envelope(ends).tolist() == envelope


class TestQuadrature:
    def test_polynomial(self):
        res = integrate_adaptive(lambda t: t, QuadratureSpec(0.0, 1.0, abs_tol=1e-10))
        assert res.is_value and res.value == pytest.approx(0.5, abs=1e-10)

    def test_exponential_tail(self):
        res = integrate_adaptive(lambda t: np.exp(-2.0 * t), QuadratureSpec(0.0))
        assert res.is_value and res.value == pytest.approx(0.5, abs=1e-9)

    def test_endpoint_singularity(self):
        res = integrate_adaptive(lambda t: t**-0.5, QuadratureSpec(0.0, 1.0, abs_tol=1e-8))
        assert res.is_value and res.value == pytest.approx(2.0, abs=1e-8)

    def test_power_tail_value(self):
        res = integrate_adaptive(lambda t: 4.0 / t**2, QuadratureSpec(2.0, abs_tol=1e-8))
        assert res.is_value and res.value == pytest.approx(2.0, abs=1e-6)

    def test_harmonic_divergent(self):
        res = integrate_adaptive(lambda t: 1.0 / (2.0 * t), QuadratureSpec(1.0))
        assert res.is_divergent

    def test_growing_increments_divergent(self):
        res = integrate_adaptive(lambda t: (2.0 * t) ** -0.5, QuadratureSpec(1.0))
        assert res.is_divergent

    def test_blowup_divergent(self):
        res = integrate_adaptive(lambda t: np.exp(t), QuadratureSpec(0.0))
        assert res.is_divergent

    def test_log_slow_tail_inconclusive(self):
        # integral of 1/(t log^2 t ... ) variants converge too slowly to
        # certify within the horizon budget
        res = integrate_adaptive(
            lambda t: 1.0 / (t * np.log(t)),
            QuadratureSpec(2.0, max_subdivisions=600),
        )
        assert res.kind in ("inconclusive", "divergent")
        if res.kind == "inconclusive":
            assert res.horizon is not None

    def test_nan_integrand_raises(self):
        from semistab import NumericsFailure

        with pytest.raises(NumericsFailure):
            integrate_adaptive(lambda t: np.full_like(t, np.nan), QuadratureSpec(0.0, 1.0))

    def test_empty_interval(self):
        res = integrate_adaptive(lambda t: t, QuadratureSpec(1.0, 1.0))
        assert res.is_value and res.value == 0.0

    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            QuadratureSpec(-1.0, 1.0)
        with pytest.raises(InvalidArgument):
            QuadratureSpec(0.0, 1.0, abs_tol=0.0)

    # the integrands above, each group under the spec its tests use
    STACKS = {
        "unit": (QuadratureSpec(0.0, 1.0, abs_tol=1e-8),
                 [lambda t: t, lambda t: t**-0.5, lambda t: np.full_like(t, 1.0),
                  *(lambda t, k=k: t**k for k in range(2, 12))]),
        "from-0": (QuadratureSpec(0.0), [lambda t: np.exp(-2.0 * t), lambda t: np.exp(t)]),
        "from-1": (QuadratureSpec(1.0), [lambda t: 1.0 / (2.0 * t), lambda t: (2.0 * t) ** -0.5]),
        "from-2": (QuadratureSpec(2.0, abs_tol=1e-8), [lambda t: 4.0 / t**2, lambda t: 1.0 / t**2]),
        "slow-tail": (QuadratureSpec(2.0, max_subdivisions=600),
                      [lambda t: 1.0 / (t * np.log(t)), lambda t: 4.0 / t**2]),
        "empty": (QuadratureSpec(1.0, 1.0), [lambda t: t, lambda t: t**2]),
    }

    @pytest.mark.parametrize("name", STACKS)
    def test_stacked_rows_match_scalar_calls(self, name):
        # one mesh refined for every row: each row has the verdict of its own
        # call and a value within the accept tolerance of it
        spec, fs = self.STACKS[name]
        rows = integrate_adaptive(lambda t: np.stack([f(t) for f in fs]), spec)
        assert isinstance(rows, tuple) and len(rows) == len(fs)
        for f, row in zip(fs, rows):
            res = integrate_adaptive(f, spec)
            assert row.kind == res.kind, (row, res)
            assert abs(row.value - res.value) <= 8.0 * max(spec.abs_tol, spec.rel_tol * abs(res.value))

    def test_a_decided_row_stops_reading_its_values(self):
        # exp(-2t) is decided by t = 72 and 4/t^2 reads on to t = 144; the
        # first row turns NaN past t = 100, which would raise were it open
        def f(t):
            late = np.where(t > 100.0, np.nan, np.exp(-2.0 * t))
            return np.stack([late, 4.0 / t**2])

        decided, power = integrate_adaptive(f, QuadratureSpec(2.0))
        assert decided.is_value and power.is_value
        assert decided.value == pytest.approx(0.5 * math.exp(-4.0), rel=1e-9)
        assert power.value == pytest.approx(2.0, rel=1e-8)

    def test_a_row_past_the_threshold_splits_once_then_diverges(self):
        # its verdict is already decided, so it splits only its worst panel,
        # as one-panel-at-a-time bisection did, and reads 30 nodes after the
        # 420 of its 28 initial panels
        sizes = []

        def f(t):
            sizes.append(t.size)
            return 1e13 * t**-0.5

        res = integrate_adaptive(f, QuadratureSpec(0.0, 1.0))
        assert res.is_divergent and res.value > 1e12
        assert sizes == [0, 420, 30]

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1e-2, 1.0, 1e2])
    def test_graded_first_segment_needs_no_split_round(self, c, p):
        # the lower-limit spike of a criterion weight, x^-p with x ~ t - t_0:
        # on the ratio-2 mesh toward it every initial panel already meets the
        # accept rule, so the first segment, [0, 16], is read in one call of
        # its 28 panels and no later call reads inside it
        calls = []

        def f(t):
            calls.append(t)
            return c * (t + 1e-6) ** -p

        integrate_adaptive(f, QuadratureSpec(0.0))
        first = [ts for ts in calls if ts.size and ts.min() < 16.0]
        assert [ts.size for ts in first] == [420]
        assert first[0] is calls[1] and first[0].max() < 16.0

    @staticmethod
    def _cut_rows(tau, qs, scale=1.0, above=()):
        """scale (1 + t)^-q for q in ``qs``, exactly 0 from ``tau`` on, then
        the rows ``above``, which stay positive; with the calls it reads."""
        calls = []

        def f(t):
            calls.append(t)
            cut = [np.where(t < tau, scale * (1.0 + t) ** -q, 0.0) for q in qs]
            return np.stack(cut + [g(t) for g in above])

        return integrate_adaptive(f, QuadratureSpec(0.0)), calls

    @staticmethod
    def _cut_integral(tau, q, scale=1.0):
        """The integral of scale (1 + t)^-q over [0, tau]."""
        log = math.log1p(tau)
        return scale * (log if q == 1.0 else math.expm1((1.0 - q) * log) / (1.0 - q))

    def test_a_zero_edge_panel_is_cut_in_three_around_its_edge(self):
        # every row is exactly 0 past tau = 20 sqrt 2, inside the tail segment
        # [16, 32]: a panel with a trailing run of zero nodes is cut in three
        # around its last nonzero node and the first zero one, so the step is
        # bracketed 9.5 to 230 times tighter per round, not 2.
        # Past the first zero node the rounds read 164 nodes short of it, and
        # 12 calls in all, where halving read 271 nodes in 23 calls
        tau = 20.0 * math.sqrt(2.0)
        spec = QuadratureSpec(0.0)
        rows, calls = self._cut_rows(tau, (2.0, 1.5))
        for q, row in zip((2.0, 1.5), rows):
            exact = self._cut_integral(tau, q)
            assert row.is_value
            assert abs(row.value - exact) <= 8.0 * max(spec.abs_tol, spec.rel_tol * abs(exact))
        first = next(ts for ts in calls if (ts > tau).any())
        zero = first[first > tau].min()
        between = sum(int(((ts > tau) & (ts < zero)).sum()) for ts in calls)
        assert between <= 200
        assert len(calls) <= 12

    def test_a_positive_row_keeps_every_split_at_the_midpoint(self):
        # a third row stays positive past tau, so no node reads 0 in every row
        # and each panel of the tail segment [16, 32] is a dyadic piece of it
        tau = 20.0 * math.sqrt(2.0)
        rows, calls = self._cut_rows(tau, (2.0, 1.5), above=(lambda t: (1.0 + t) ** -3,))
        assert [row.kind for row in rows] == ["value"] * 3
        for ts in calls:
            panels = ts.reshape(-1, 15)
            inside = panels[(panels[:, 0] > 16.0) & (panels[:, -1] < 32.0)]
            pieces = 16.0 * 0.9914553711208126 / (inside[:, -1] - inside[:, 0])
            dyadic = 2.0 ** np.round(np.log2(pieces))
            assert np.allclose(pieces, dyadic, rtol=1e-9)
            # a dyadic piece's midpoint, its middle node, is exact
            starts = (inside[:, 7] - 16.0) * dyadic / 16.0
            assert np.array_equal(starts, np.floor(starts) + 0.5)

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(0.05, 31.9), q=st.floats(0.5, 4.0), scale=st.floats(1e-3, 1e3))
    @example(tau=19.992245524190402, q=1.0026750508967428, scale=0.45581188790572386)
    @example(tau=3.4808045465559485, q=2.0690017595751735, scale=0.7616265740356529)
    def test_rows_cut_to_zero_integrate_to_their_closed_forms(self, tau, q, scale):
        # wherever an initial panel's nodes see the step to zero, each row is
        # a value within the finite branch's accept rule of its integral over
        # [0, tau].  A step between a panel's end and its outermost node is
        # seen by no node, like a kink there.  Halving lost the first
        # example's step next to a midpoint (15,000 tol off), and a middle
        # child cut exactly at the two nodes lost the second's next to its
        # end (4,300 tol off).  Up to t = 32 no tail rule has read an
        # increment, so the verdict cannot rest on a geometric guess that a
        # cut power tail would mislead
        edges = np.append(_graded_edges(0.0, 16.0, True), 32.0)
        i = np.searchsorted(edges, tau) - 1
        centre, half = 0.5 * (edges[i] + edges[i + 1]), 0.5 * (edges[i + 1] - edges[i])
        assume(abs(tau - centre) < 0.9914553711208126 * half)
        spec = QuadratureSpec(0.0)
        qs = (q, q + 0.5)
        rows, _ = self._cut_rows(tau, qs, scale)
        for q_row, row in zip(qs, rows):
            exact = self._cut_integral(tau, q_row, scale)
            assert row.kind == "value"
            assert abs(row.value - exact) <= 8.0 * max(spec.abs_tol, spec.rel_tol * abs(exact))

    def test_a_tail_value_needs_its_segments_converged(self):
        # a row jumping every 1e-3 on [16, 32] spends that segment's cap of
        # 500 splits unconverged; the tail past 32, (1 + t)^-3, settles, but
        # the summed segment errors stay beyond 8 tol, so it is inconclusive
        nodes = []

        def f(t):
            rough = (16.0 < t) & (t < 32.0)
            nodes.append(int(rough.sum()))
            return (1.0 + t) ** -3 * np.where(rough, 1.0 + np.floor(1000.0 * t) % 2, 1.0)

        spec = QuadratureSpec(0.0)
        res = integrate_adaptive(f, spec)
        assert sum(nodes) == 15 + 30 * 500
        assert res.kind == "inconclusive" and res.horizon is not None
        assert res.error > 8.0 * max(spec.abs_tol, spec.rel_tol * abs(res.value))
        smooth = integrate_adaptive(lambda t: (1.0 + t) ** -3, spec)
        assert smooth.is_value and smooth.value == pytest.approx(0.5, rel=1e-9)

    def test_kronrod_rule_exact_on_polynomials(self):
        # Gauss-7/Kronrod-15 integrates low-degree polynomials exactly
        for k in range(0, 12):
            res = integrate_adaptive(lambda t, k=k: t**k, QuadratureSpec(0.0, 1.0))
            assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-12)
