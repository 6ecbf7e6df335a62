"""Properties of norm evaluation: a pure function of t.

Every matrix or fractional-integration norm must be the same bits whichever
path computed it (a batch of points or a single point), whatever was
queried before, and in whichever thread.  The entry-time tables built on
those norms obey metamorphic relations: scaling the generator divides the
entry times and multiplies the reported nu, t_r never decreases in r, and
the integral criteria never claim a stronger class than the classifier.
The sparse search for the overshoot suprema, and the growth-bounded
entry-time lattice scan of a matrix curve, return bit for bit what
evaluating every grid or lattice point gives; the growth rate they rely on
bounds the computed norms.  The matrix norm is the exp of the matrix log
route bit for bit, on the operator and on an orbit; the route agrees with
a 40-digit mpmath exponential down to norms of about 1e-280, and with
renormalized squaring deep in the tail, past the norm's underflow.  The
spectral radius of exp(tA) from the spectral mapping theorem is the one
read off the spectrum of the computed exponential.  The growth routes on
the default grid read a scalar decay's rate -nu however deep its norm
sinks, and on a stable matrix they lie at or above the spectral abscissa,
never -inf.
Weighted shifts with a convex exponent phi have known truth: entry times
phi^-1(r), cut off at L, and reciprocal-log criteria that converge exactly
when the integral of phi^-p does.  The quadrature's settled tails are
checked against known answers: power-law integrals in closed form, the
criteria of scalar decay and the gaussian shift from next to their
lower-limit spike in closed form, and a Jordan block's criterion against a
40-digit quadrature of its exact log curve; no weight whose integral
diverges on a matrix reads a value.  A model's spec string parses back to
itself.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semistab as ss
from semistab.numerics import NORM_FLOOR, operator_norms_lanczos

from conftest import (COARSE_CFG, assert_matches_fresh_integral, convex_exponents, counting,
                      log_exponent, piecewise_exponent, power_exponent,
                      validate_submultiplicativity)

GRID_STEP = ss.SearchConfig().grid_step
J10 = np.array([[-1.0, 10.0], [0.0, -1.0]])
FRACTIONAL_NS = (16, 64)


@st.composite
def stable_generators(draw):
    """Upper-triangular generators with negative diagonal, often non-normal."""
    n = draw(st.integers(2, 4))
    diag = draw(st.lists(st.floats(-3.0, -0.1), min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(-12.0, 12.0), min_size=n * n, max_size=n * n))
    return np.triu(np.reshape(upper, (n, n)), k=1) + np.diag(diag)


@settings(max_examples=30, deadline=None)
@given(a=stable_generators(), k0=st.integers(0, 40000), size=st.integers(1, 64))
@example(a=J10, k0=16500, size=64)
def test_lattice_slice_matches_points_bitwise(a, k0, size):
    # slices past k = 16000 are where a spacing inferred from ts[1] - ts[0]
    # stops matching the lattice
    traj = ss.MatrixSemigroup(a).trajectory()
    ts = np.arange(k0, k0 + size, dtype=float) * GRID_STEP
    points = np.array([traj.evaluate(t) for t in ts])
    assert np.array_equal(traj.evaluate_many(ts), points)


@settings(max_examples=30, deadline=None)
@given(a=stable_generators())
@example(a=J10)
def test_norm_is_independent_of_query_order(a):
    model = ss.MatrixSemigroup(a)
    before = model.norm_at(0.7)
    model.norm_at(30.0)
    model.norm_at_many(np.arange(100) * 0.31)
    assert model.norm_at(0.7) == before


def _log_norms_by_squaring(a, ts):
    """Reference deep-tail log norms: ||exp((t/2^K) A)|| squared up K times.

    Each level renormalizes the matrix to unit norm and doubles the
    accumulated log, so the log stays representable far past the norm's
    underflow: a route independent of the model's spectral shift.
    """
    ks = np.maximum(1, np.ceil(np.log2(np.maximum(ts, 1.0)))).astype(np.int64)
    d = ss.numerics._expm(a * (ts / 2.0**ks)[:, None, None])
    log_scale = np.zeros(ts.size)
    for j in range(int(ks.max())):
        live = ks > j
        n = ss.numerics.operator_norms_batch(d[live])
        log_scale[live] = 2.0 * (log_scale[live] + np.log(n))
        dn = d[live] / n[:, None, None]
        d[live] = dn @ dn
    return log_scale + np.log(ss.numerics.operator_norms_batch(d))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 2.0),
       abscissa=st.floats(-3.0, -0.2), order=st.randoms(use_true_random=False))
@example(n=2, seed=0, scale=1.0, abscissa=-0.2, order=None)
def test_deep_log_norms_match_squaring(n, seed, scale, abscissa, order):
    # random generators, shifted so that max Re(eig) = abscissa: the log
    # route's shifted exponential agrees with renormalized squaring where
    # the norm has underflowed (worst of 5,000 such generators: 5.9e-13),
    # and gives the same bits on the batch and point paths in any order
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)) * scale
    a += (abscissa - np.linalg.eigvals(a).real.max()) * np.eye(n)
    traj = ss.MatrixSemigroup(a).trajectory()
    ts = np.geomspace(1.0, 3e4, 40)
    logs = traj.log_evaluate_many(ts)
    deep = traj.evaluate_many(ts) <= 1e-280
    assert deep[-1]
    np.testing.assert_allclose(logs[deep], _log_norms_by_squaring(a, ts[deep]), rtol=1e-12, atol=0.0)
    perm = list(range(ts.size))
    if order is not None:
        order.shuffle(perm)
    points = {i: traj.log_evaluate_many(ts[i:i + 1])[0] for i in perm}
    assert np.array_equal([points[i] for i in range(ts.size)], logs)
    assert np.array_equal(traj.log_evaluate_many(ts[perm]), logs[perm])


@st.composite
def log_route_generators(draw):
    """Stable generators of order 1 to 4 with an upper coupling: triangular,
    rotation blocks (complex eigenvalue pairs), or equal-diagonal Jordan type."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["triangular", "complex", "jordan"]))
    upper = draw(st.lists(st.floats(-12.0, 12.0), min_size=n * n, max_size=n * n))
    a = np.triu(np.reshape(upper, (n, n)), k=1)
    if kind == "jordan":
        return a + draw(st.floats(-6.0, -0.05)) * np.eye(n)
    a += np.diag(draw(st.lists(st.floats(-6.0, -0.05), min_size=n, max_size=n)))
    if kind == "complex":
        # blocks [[d, w], [-r*w, d]]: eigenvalues d +- i*w*sqrt(r), non-normal unless r = 1
        for i in range(0, n - 1, 2):
            a[i + 1, i + 1] = a[i, i]
            a[i, i + 1] = draw(st.floats(0.5, 10.0))
            a[i + 1, i] = -draw(st.floats(0.1, 10.0)) * a[i, i + 1]
    return a


def _outcome(log_norms, ts):
    try:
        return log_norms(ts)
    except ss.NumericsFailure as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(a=log_route_generators(), scales=st.lists(st.floats(0.0, 1e4), max_size=8),
       order=st.randoms(use_true_random=False))
@example(a=J10, scales=[1e3, 1e4], order=None)
@example(a=np.array([[-2000.0]]), scales=[], order=None)
@example(a=np.array([[-3.0, 5.0], [-5.0, -3.0]]), scales=[], order=None)
@example(a=np.array([[-0.02, 1.0], [0.0, -0.02]]), scales=[], order=None)
def test_log_route_matches_the_norm_and_its_own_points(a, scales, order):
    # one route at every time, s*t + log ||exp(t(A - sI))||, from next to
    # t = 0 across the norm's underflow to deep times, for the operator and
    # for an orbit, and the norm is its exp bit for bit.  The batch and point
    # paths give the same bits in any order; a failure names the same first
    # time.  Against a 40-digit mpmath expm, at five times up to where the
    # norm is about 1e-280, the route is within eval_error_bound (worst of
    # 2,000 such generators: 1.2e-10 nats; 4.9e-10 on 2,000 drawn with 30 %
    # of their entries at the ends of their ranges).  scipy's expm is no such
    # reference: it reads up to 3.6e-7 nats off on Jordan-type generators
    mp = pytest.importorskip("mpmath")
    model = ss.MatrixSemigroup(a)
    x = np.ones(len(a)) / math.sqrt(len(a))
    orbit = model.vector_trajectory(x)
    edge = math.log(1e-280) / model.abscissa
    ts = edge * np.concatenate([[0.0, 1e-6, 1e-3, 0.5, 1.0], np.linspace(0.9, 1.6, 200), scales])
    with mp.workdps(40):
        exps = [mp.expm(mp.matrix(a.tolist()) * mp.mpf(float(t))) for t in ts[:5]]
        references = ([float(mp.log(max(mp.svd_r(e, compute_uv=False)))) for e in exps],
                      [float(mp.log(mp.norm(e * mp.matrix(x.tolist())))) for e in exps])
    routes = ((model._log_norms, model.norm_at_many), (orbit.log_evaluate_many, orbit.evaluate_many))
    for (log_norms, norms), reference in zip(routes, references):
        logs = _outcome(log_norms, ts)
        points = _outcome(lambda t: np.array([log_norms(t[i:i + 1])[0] for i in range(t.size)]), ts)
        if isinstance(logs, str):
            assert points == logs
            continue
        assert np.array_equal(points, logs)
        perm = list(range(ts.size))
        if order is not None:
            order.shuffle(perm)
        assert np.array_equal(log_norms(ts[perm]), logs[perm])
        assert np.array_equal(norms(ts[perm]), np.exp(logs[perm]))
        reference = np.array(reference)
        live = reference > math.log(1e-280)
        assert live[0]
        assert np.abs(logs[:5][live] - reference[live]).max() <= model.eval_error_bound


@pytest.mark.parametrize("n", FRACTIONAL_NS)
@settings(max_examples=15, deadline=None)
@given(ts=st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 180.0)), min_size=1, max_size=40))
def test_fractional_batch_matches_points_bitwise(n, ts):
    # times past 170 have a zero kernel; 0 is the identity
    model = ss.FractionalIntegration(n)
    ts = np.array(ts)
    points = np.array([model.norm_at(t) for t in ts])
    assert np.array_equal(model.norm_at_many(ts), points)


CLOSED_FORMS = (ss.ScalarDecay(1.0), ss.ScalarDecay(1.625), ss.GaussianShift(),
                ss.NilpotentShift(1.3), ss.DampedNilpotent(2.0, 1.5),
                ss.WeightedShift(phi=lambda t: t**1.5),
                ss.WeightedShift(phi=lambda t: t * np.log1p(t) ** 2, L=3.0))


@pytest.mark.parametrize("model", CLOSED_FORMS, ids=lambda m: m.spec_string())
@settings(max_examples=30, deadline=None)
@given(ts=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40))
@example(ts=[26.0, 16.0])
@example(ts=list(np.linspace(0.01, 20.0, 2000)))
def test_closed_form_batch_matches_points_bitwise(model, ts):
    # math.exp and np.exp differ in the last bit at t = 26 for nu = 1 and
    # on dozens of Gaussian points in [0.01, 20]; both paths use the batch
    traj = model.trajectory()
    ts = np.array(ts)
    batch = traj.evaluate_many(ts)
    assert np.array_equal(model.norm_at_many(ts), batch)
    assert np.array_equal(np.array([model.norm_at(t) for t in ts]), batch)
    assert np.array_equal(np.array([traj.evaluate(t) for t in ts]), batch)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_single_path_rejects_bad_times_and_nan_norms(bad):
    for model in CLOSED_FORMS + (ss.MatrixSemigroup(J10), ss.FractionalIntegration(16)):
        traj = model.trajectory()
        with pytest.raises(ss.InvalidArgument):
            traj.evaluate(bad)
        with pytest.raises(ss.InvalidArgument):
            traj.evaluate_many(np.array([0.5, bad]))
        with pytest.raises(ss.InvalidArgument):
            model.norm_at(bad)
        with pytest.raises(ss.InvalidArgument):
            traj.log_evaluate_many(np.array([0.5, bad]))
    nan_past_1 = ss.NormTrajectory(log_evaluate_many=lambda ts: np.where(ts > 1.0, np.nan, 0.0),
                                   growth_rate=0.0)
    assert nan_past_1.evaluate(0.5) == 1.0
    assert nan_past_1.log_evaluate_many(np.array([0.5]))[0] == 0.0
    with pytest.raises(ss.NumericsFailure):
        nan_past_1.evaluate(2.0)
    with pytest.raises(ss.NumericsFailure):
        nan_past_1.evaluate_many(np.array([0.5, 2.0]))
    with pytest.raises(ss.NumericsFailure):
        nan_past_1.log_evaluate_many(np.array([0.5, 2.0]))


@pytest.mark.parametrize("n", FRACTIONAL_NS)
def test_fractional_norm_is_independent_of_query_order(n):
    model = ss.FractionalIntegration(n)
    before = model.norm_at(0.7)
    model.norm_at(30.0)
    assert model.norm_at(0.7) == before
    model.norm_at_many(np.arange(100) * 0.31)
    assert model.norm_at(0.7) == before


@pytest.mark.parametrize("n", FRACTIONAL_NS)
def test_fractional_norm_matches_svd(n):
    # near t = 0 the kernel is close to a multiple of the identity and its
    # singular values cluster; t = 150 has entries below 1e-260
    model = ss.FractionalIntegration(n)
    for t in (1e-7, 1e-4, 1e-2, 0.5, 1.0, 5.0, 40.0, 150.0):
        ref = np.linalg.svd(model.kernel_matrix(t), compute_uv=False)[0]
        assert abs(model.norm_at(t) - ref) <= 1e-12 * ref, t


@pytest.mark.parametrize("n", (16, 64, 80, 96))
def test_fractional_norm_is_the_norm_of_its_kernel_matrix_bitwise(n):
    # the model runs Lanczos on unit-peak kernels and divides by the power
    # of two; kernel_matrix returns the unscaled operator.  Logs are
    # compared because exp(log(x)) need not round-trip to x.
    model = ss.FractionalIntegration(n)
    ts = np.concatenate([np.geomspace(1e-6, 1.0, 12), np.linspace(1.0, 170.99, 120)])
    logs = model._log_norms(ts)
    norms = operator_norms_lanczos(np.stack([model.kernel_matrix(t) for t in ts]))
    live = norms > NORM_FLOOR
    assert live.sum() > 100
    assert np.array_equal(logs[live], np.log(norms[live]))
    assert np.all(logs[~live] == -math.inf)


@st.composite
def nonnegative_stacks(draw):
    """Fractional kernels from their subnormal band, or uniform stacks near the underflow."""
    if draw(st.booleans()):
        model = ss.FractionalIntegration(draw(st.sampled_from([16, 64, 80])))
        ts = draw(st.lists(st.floats(100.0, 170.0), min_size=1, max_size=4))
        return np.stack([model.kernel_matrix(t) for t in ts])
    shape = (draw(st.integers(1, 4)), *[draw(st.integers(1, 12))] * 2)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1.0, shape) * 1e-305


@settings(max_examples=40, deadline=None)
@given(mats=nonnegative_stacks(), data=st.data())
def test_lanczos_norm_commutes_with_powers_of_two(mats, data):
    # the invariant behind the fractional model's unit-peak kernels: any e
    # up to where the norm, at most n times the largest entry, overflows,
    # and down while the smallest nonzero entry stays normal, so that 2^e K
    # holds K's bits
    exps = np.frexp(mats[mats > 0.0])[1]
    top = 1023 - int(exps.max()) - mats.shape[1].bit_length()
    e = data.draw(st.integers(min(0, -1021 - int(exps.min())), top))
    scaled = np.ldexp(mats, e)
    assert np.array_equal(np.ldexp(scaled, -e), mats)
    # a subnormal norm of K (n = 16 near t = 170) loses bits to ldexp itself
    ref = operator_norms_lanczos(mats)
    normal = ref >= np.finfo(float).tiny
    assert np.array_equal(operator_norms_lanczos(scaled)[normal], np.ldexp(ref[normal], e))


def test_concurrent_readers_get_single_thread_values():
    slices = [np.arange(k0, k0 + 300, dtype=float) * GRID_STEP
              for k0 in (0, 15900, 17000, 39000)]
    for make in (lambda: ss.MatrixSemigroup(J10), lambda: ss.FractionalIntegration(16)):
        _check_concurrent_readers(make, slices)


def _check_concurrent_readers(make, slices):
    reference = make()
    expected = [reference.norm_at_many(ts) for ts in slices]
    shared = make()  # its trajectory is built lazily by the readers
    results = [None] * len(slices)

    def read(i):
        traj = shared.trajectory()
        out = []
        for _ in range(4):
            out.append(traj.evaluate_many(slices[i]))
            out.append(np.array([traj.evaluate(t) for t in slices[i][::15]]))
        results[i] = out

    threads = [threading.Thread(target=read, args=(i,)) for i in range(len(slices))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, out in enumerate(results):
        assert out is not None
        for j, got in enumerate(out):
            assert np.array_equal(got, expected[i] if j % 2 == 0 else expected[i][::15])


# ---------------------------------------------------------------------------
# metamorphic properties of the entry-time tables

TIME_TOL = ss.SearchConfig().time_tol
# upper-bidiagonal with diagonal near -6 and superdiagonals near 11, like the
# benchmark's transient generators: the norm rises far above 1 first
BIDIAGONAL_4 = np.array([
    [-6.02, 10.4, 0.0, 0.0],
    [0.0, -5.93, 11.1, 0.0],
    [0.0, 0.0, -6.08, 11.7],
    [0.0, 0.0, 0.0, -5.97],
])


def _assert_scaled(base, scaled, c):
    # t -> ||T(t)|| of the scaled model is the base curve at c*t, so
    # t_r(scaled) = t_r(base)/c; each side is off by at most half its final
    # bracket, time_tol/2 in its own time units
    assert [math.isinf(t) for t in scaled.t] == [math.isinf(t) for t in base.t]
    for r, (ts, tb) in enumerate(zip(scaled.t, base.t)):
        if math.isfinite(tb):
            assert abs(ts - tb / c) <= TIME_TOL * (1.0 + 1.0 / c), (c, r, ts, tb)


def _assert_nu_scaled(base, scaled, c):
    """The reported nu of the curve t -> base(c*t) is c times the base's.

    ``base`` and ``scaled`` are (trajectory, table) pairs.  The classifier's
    nu and the indices' nu_hat are both 1/m, m the mean of the last
    w = plateau_window gaps u_r, which telescopes to
    (t_{R+1} - t_{R+1-w})/w.  Each t_r is within time_tol of its exact value
    in its own time units (the bound of ``_assert_scaled``), so m is within
    2*time_tol/w of its exact value: relative error at most
    d1 = 2*time_tol/(w*mu) on the base side, mu the base's tail mean, and
    d2 = c*d1 on the scaled side, whose exact tail mean is mu/c.  The ratio
    nu_scaled/(c*nu_base) = (1 + e1)/(1 + e2) with |e1| <= d1, |e2| <= d2
    then differs from 1 by at most (d1 + d2)/(1 - d2).
    """
    w = ss.ClassifyThresholds().plateau_window
    mu = float(np.mean(base[1].u[-w:]))
    d1 = 2.0 * TIME_TOL / (w * mu)
    d2 = c * d1
    tol = (d1 + d2) / (1.0 - d2)
    verdicts = [ss.classify(table) for _, table in (base, scaled)]
    assert [v.verdict for v in verdicts] == [ss.VERDICT_STABLE] * 2
    nu_hats = [ss.stability_and_extinction_indices(traj, table).nu_hat
               for traj, table in (base, scaled)]
    for nu_base, nu_scaled in ((verdicts[0].nu, verdicts[1].nu), tuple(nu_hats)):
        assert abs(nu_scaled / (c * nu_base) - 1.0) <= tol, (c, nu_base, nu_scaled, tol)


@pytest.mark.parametrize("a", [J10, BIDIAGONAL_4], ids=["j10", "bidiagonal4"])
@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_matrix_scaling_divides_entry_times(a, c):
    trajs = [ss.MatrixSemigroup(x * a).trajectory() for x in (1.0, c)]
    base, scaled = (ss.entry_time_table(traj, 20) for traj in trajs)
    assert all(math.isfinite(t) for t in base.t)
    _assert_scaled(base, scaled, c)
    _assert_nu_scaled((trajs[0], base), (trajs[1], scaled), c)


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scalar_decay_scaling_divides_entry_times(c):
    nu = 1.5
    trajs = [ss.ScalarDecay(x * nu).trajectory() for x in (1.0, c)]
    base, scaled = (ss.entry_time_table(traj, 20) for traj in trajs)
    _assert_scaled(base, scaled, c)
    _assert_nu_scaled((trajs[0], base), (trajs[1], scaled), c)


ROTATION = np.array([[-3.0, 5.0], [-5.0, -3.0]])


def _rescaled_config(cfg, c):
    """``cfg`` in a time unit c times shorter: its four time fields over c."""
    return ss.SearchConfig(time_tol=cfg.time_tol / c, grid_step=cfg.grid_step / c,
                           horizon_start=cfg.horizon_start / c, horizon_cap=cfg.horizon_cap / c)


def _time_scaled(case, c):
    """The model and its curve read at c*t: a convex exponent's shift, or a generator times c."""
    if isinstance(case, np.ndarray):
        return ss.MatrixSemigroup(case), ss.MatrixSemigroup(c * case)
    scaled = ss.WeightedShift(phi=lambda t: case.phi(c * t),
                              L=case.L / c if case.L < math.inf else None)
    return case.model(), scaled


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(convex_exponents(), st.sampled_from([J10, ROTATION])),
       k=st.integers(-8, 8))
@example(case=J10, k=6)
@example(case=ROTATION, k=-6)
@example(case=piecewise_exponent((0.0, 1.0), (0.3, 2.0), L=2.2), k=3)
def test_time_rescaling_divides_entry_tables(case, k):
    # T_c(t) = T(c*t) with c = 2^k, searched with every time field of the
    # config over c, is the same search in another time unit: each t_r
    # divides by c bit for bit, and every status stays, Illinois probes,
    # lattice scans and extinction seeds included
    c = 2.0 ** k
    base, scaled = _time_scaled(case, c)
    cfg = ss.SearchConfig()
    want = ss.entry_time_table(base.trajectory(), 40, cfg)
    got = ss.entry_time_table(scaled.trajectory(), 40, _rescaled_config(cfg, c))
    assert list(got.t) == [t / c for t in want.t]
    assert [e.status for e in got.statuses] == [e.status for e in want.statuses]


def test_entry_times_ordered(gaussian, scalar2, nilpotent, damped, matrix_j10,
                             matrix_nilpotent_gen, fractional_64):
    tables = [gaussian[1], scalar2[1], nilpotent[1], damped[1], matrix_j10[2],
              matrix_nilpotent_gen[2], fractional_64[1]]
    for table in tables:
        assert all(b >= a for a, b in zip(table.t, table.t[1:])), table.label
        assert all(u >= 0.0 for u in table.u if math.isfinite(u)), table.label


def test_pazy_never_outranks_classifier(fractional_64):
    # the integral criteria are sufficient conditions: whatever class they
    # certify, the entry-time classifier must concede at least as much
    jordan = ss.MatrixSemigroup(np.array([[-6.0, 14.0], [0.0, -6.0]])).trajectory()
    for traj, table in (fractional_64, (jordan, ss.entry_time_table(jordan, 20))):
        verdict = ss.classify(table, ss.ClassifyThresholds())
        rep = ss.pazy_criteria(traj, t0=table.t[0])
        if rep.implied is not None:
            assert ss.VERDICT_ORDER[rep.implied] <= ss.VERDICT_ORDER[verdict.verdict], (
                traj.label, rep.implied, verdict.verdict)


# ---------------------------------------------------------------------------
# weighted shifts with a convex exponent: curves whose truth is known


@settings(max_examples=30, deadline=None)
@given(m=convex_exponents())
@example(m=power_exponent(1.0, 1.2))
@example(m=log_exponent(1.0))
@example(m=piecewise_exponent((0.0, 1.0), (0.3, 2.0), L=2.2))
def test_weighted_shift_entry_times_invert_the_exponent(m):
    # t_r = min(phi^-1(r), L); a convex phi with phi(0) = 0 is superadditive,
    # so the norm is submultiplicative; and the norm is exactly 0 from L on
    traj = m.model().trajectory()
    table = ss.entry_time_table(traj, 40)
    for r in range(41):
        assert abs(table.t[r] - min(m.inverse(r), m.L)) <= table.time_tol, (m.label, r, table.t[r])
    grid = np.linspace(0.0, table.t[40], 9)
    assert validate_submultiplicativity(traj, list(itertools.product(grid, grid))).passed, m.label
    assert traj.extinction_time == (m.L if m.L < math.inf else None)
    if m.L < math.inf:
        ts = np.array([m.L, np.nextafter(m.L, math.inf), m.L + 1.0, 2.0 * m.L + 5.0])
        assert not traj.evaluate_many(ts).any(), m.label


def _reciprocal_log_entries(m):
    """The (ii)-(iv) entries for the weighted shift of ``m``, which enters the unit ball at t = 0."""
    rep = ss.pazy_criteria(m.model().trajectory(), t0=0.0)
    return [e for e in rep.entries if e.weight.startswith("inverse-log-power")]


@settings(max_examples=30, deadline=None)
@given(m=convex_exponents())
@example(m=log_exponent(1.0))          # (iii) reads inconclusive
@example(m=log_exponent(0.5))          # (iii) reads divergent
@example(m=power_exponent(2.0, 1.0))   # (iii), at p = 1, reads divergent
@example(m=piecewise_exponent((0.0, 1.0), (1e-305, 1.0)))  # x^-p overflows next to t_0
def test_no_criterion_reads_value_where_its_integral_diverges(m):
    # verdicts are not asserted: the classifier reads t^1.2 as stable
    for e in _reciprocal_log_entries(m):
        if not m.converges(e.p):
            assert e.kind != ss.VALUE, (m.label, e)


@pytest.mark.xfail(strict=True, reason="integrating from t_0 + 1e-6, (t^2/3)^-p has a head "
                   "integral past 1e12 at p = 1.5 and 2; a lower limit of t_1 removes it")
@settings(max_examples=30, deadline=None)
@given(m=convex_exponents())
@example(m=power_exponent(1.0 / 3.0, 2.0))
def test_no_criterion_reads_divergent_where_its_integral_converges(m):
    # increments of a t^-q tail over doubled horizons shrink by 2^(1-q), which
    # for q < 1.05 the quadrature's 1 % decay rule cannot tell from 1/t
    for e in _reciprocal_log_entries(m):
        q = m.power * e.p
        if m.converges(e.p) and (m.L < math.inf or not 1.0 < q < 1.05):
            assert e.kind != ss.DIVERGENT, (m.label, e)


# ---------------------------------------------------------------------------
# the settled quadrature tail: values against known integrals


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.2, 5.0), alpha=st.floats(1.0, 2.0), p=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       a=st.floats(0.5, 4.0))
@example(c=1.0, alpha=1.0, p=1.0, a=1.0)
def test_power_law_tail_is_within_tolerance(c, alpha, p, a):
    # int_a^inf (c t^alpha)^-p dt = c^-p a^(1 - alpha p) / (alpha p - 1) when
    # alpha p > 1, else infinite.  Past a the increments over doubled
    # horizons are exactly geometric, so a settled tail estimate is the truth
    q = alpha * p
    spec = ss.QuadratureSpec(a)
    res = ss.integrate_adaptive(lambda t: (c * t**alpha) ** -p, spec)
    if q <= 1.0:
        assert res.kind != ss.VALUE
        return
    if p >= 1.5:
        assert res.is_value
    if res.is_value:
        exact = c**-p * a ** (1.0 - q) / (q - 1.0)
        assert abs(res.value - exact) <= max(spec.abs_tol, spec.rel_tol * exact)


@settings(max_examples=40, deadline=None)
@given(nu=st.none() | st.floats(0.5, 20.0))
@example(nu=None)
@example(nu=1.109)
def test_criteria_from_the_lower_limit_spike_match_their_closed_forms(nu):
    # from a = t_0 + 1e-6 the weights of (i) at p = 1 and (ii) at p = 1.5
    # spike at the lower limit, which the graded first segment resolves with
    # no split round.  The scalar decay's norm e^(-nu t) integrates to
    # e^(-nu a)/nu and its (nu t)^-1.5 to 2/(nu^1.5 sqrt(a)); the gaussian
    # shift's norm e^(-t^2/4) integrates to sqrt(pi) erfc(a/2), and its
    # (t^2/4)^-1.5 to 4/a^2, past the divergence threshold
    model = ss.GaussianShift() if nu is None else ss.ScalarDecay(nu)
    rep = ss.pazy_criteria(model.trajectory(), t0=0.0)
    a = rep.a
    if nu is None:
        exact = {("i", 1.0): math.sqrt(math.pi) * math.erfc(a / 2.0), ("ii", 1.5): 4.0 / a**2}
    else:
        exact = {("i", 1.0): math.exp(-nu * a) / nu, ("ii", 1.5): 2.0 / (nu**1.5 * math.sqrt(a))}
    spec = ss.QuadratureSpec(a)
    values = {(e.criterion, e.p): e.value for e in rep.entries
              if (e.criterion, e.p) in exact and e.kind == ss.VALUE}
    assert set(values) == ({("i", 1.0)} if nu is None else set(exact)), rep.entries
    for key, value in values.items():
        assert abs(value - exact[key]) <= 8.0 * max(spec.abs_tol, spec.rel_tol * abs(value)), \
            (key, value, exact[key])


@settings(max_examples=8, deadline=None)
@given(c=st.floats(-6.1, -5.9), b=st.floats(13.0, 15.0))
@example(c=-1.0, b=10.0)
@example(c=-5.998, b=13.86)
def test_jordan_block_criterion_matches_its_closed_form_curve(c, b):
    # for A = [[c, b], [0, c]], -log||exp(tA)|| = -ct - asinh(bt/2) exactly;
    # (ii) at p = 1.5 is within 1e-9 of a 40-digit quadrature of that curve
    # from the report's lower limit (1.8e-10 on the second example)
    mp = pytest.importorskip("mpmath")
    rep = ss.pazy_criteria(ss.MatrixSemigroup([[c, b], [0.0, c]]).trajectory())
    (entry,) = [e for e in rep.entries if e.criterion == "ii" and e.p == 1.5]
    assert entry.kind == ss.VALUE
    with mp.workdps(40):
        lower = mp.mpf(rep.a)
        # the integrand is (t - t_0)^-1.5 like just past t_0: split toward it
        edges = [lower] + [lower + mp.mpf(10) ** k for k in range(-6, 4)] + [mp.inf]
        reference = float(mp.quad(lambda t: (-c * t - mp.asinh(b * t / 2)) ** -1.5, edges))
    assert abs(entry.value - reference) <= 1e-9 * reference


@settings(max_examples=25, deadline=None)
@given(case=st.one_of(convex_exponents(), stable_generators()))
@example(case=J10)
@example(case=power_exponent(0.25, 2.0))   # (ii) at p = 1.5 diverges past 1e12: phase two runs
@example(case=piecewise_exponent((0.0, 1.0), (0.0, 1.0), L=2.0))  # flat start, then a cutoff
def test_lockstep_entries_match_one_weight_integrals(case):
    # the criteria share one mesh, refined for every weight still open; each
    # entry has the kind of its own one-weight integral.  A converged value
    # is within the accept tolerance of it on a smooth curve.  Divergent and
    # inconclusive values are partial sums where a refinement or a tail
    # stopped, and on a kinked piecewise phi the one-weight mesh can miss a
    # kink that the shared mesh resolves (phi with slopes 0.1294849661688697
    # and 0.2, knot 2.733898922896671: (i) reads 1.05e-5 off alone, 2.6e-11
    # in lockstep), so those values are not compared
    smooth = isinstance(case, np.ndarray) or not case.label.startswith("piecewise")
    model = ss.MatrixSemigroup(case) if isinstance(case, np.ndarray) else case.model()
    traj = model.trajectory()
    rep = ss.pazy_criteria(traj)
    for e in rep.entries:
        assert_matches_fresh_integral(traj, rep.a, e, value=smooth and e.kind == ss.VALUE)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: from t_0 + 1e-6 both meshes spend all "
                   "500 first-segment splits at the spike, and (ii) at p = 1.5 lands on either "
                   "side of the 8 tol line; integrating from t_1 removes the spike")
def test_lockstep_kinds_match_one_weight_integrals_beside_a_spike():
    # a case the property above falsifies in about one run in five: (ii)
    # at p = 1.5 sums errors of 1.8724e-4 in lockstep and 1.7314e-4 alone,
    # against 8 tol = 1.8703e-4, so it reads inconclusive in lockstep and
    # value 23378.596 alone.  From t_1 = 34.84 both read value 10.2458
    a = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -2.0, 7.25, 9.0], [0.0, 0.0, -0.375, 9.0],
                  [0.0, 0.0, 0.0, -0.1953125]])
    traj = ss.MatrixSemigroup(a).trajectory()
    rep = ss.pazy_criteria(traj)
    for e in rep.entries:
        assert_matches_fresh_integral(traj, rep.a, e, value=False)


@settings(max_examples=20, deadline=None)
@given(a=stable_generators())
@example(a=J10)
def test_no_divergent_inverse_log_weight_reads_value_on_a_matrix(a):
    # x = -log||exp(tA)|| grows linearly on a stable matrix, so x^-p with
    # p <= 1 has no finite tail integral
    rep = ss.pazy_criteria(ss.MatrixSemigroup(a).trajectory())
    for e in rep.entries:
        if e.weight.startswith("inverse-log-power") and e.p <= 1.0:
            assert e.kind != ss.VALUE, e


# ---------------------------------------------------------------------------
# the overshoot suprema: a sparse search with the dense grid's result

NU_GRIDS = (None, [55.0, 0.3, 9.0, 1.7, 300.0])
T_GRIDS = {
    "default": None,
    "geometric": np.geomspace(1e-3, 12.0, 3001),
    "decreasing": np.linspace(9.0, 0.0, 1500),
    "repeated": np.repeat(np.linspace(0.0, 6.0, 700), 2),  # ties on every step
    "runs": np.repeat(np.linspace(0.0, 6.0, 60), 45),  # gaps of equal times across strides
    # scalar20's log reads -800 at t = 40, finite and below log(1e-300)
    "deep": np.linspace(0.0, 40.0, 2001),
}


@pytest.fixture(scope="module")
def fractional_16():
    traj = ss.FractionalIntegration(16).trajectory()
    return traj, ss.entry_time_table(traj, 20)


def _spike_to_zero(ts):
    """The log of exp(-2t) with a tent of slope 400 on [0.029, 0.031], and 0 from t = 3.9.

    log f rises at most at slope 398, so growth rate 400 bounds it.  On the
    default indices grid (step 7.8/4096) the tent holds one point, index
    16, between the first-pass points 0 and 32; the maxima for nu = 1 and
    nu = 2 sit there.  From t = 3.9 on the curve is exactly zero.
    """
    tent = np.maximum(0.0, 0.001 - np.abs(ts - 0.03))
    return np.where(ts < 3.9, 400.0 * tent - 2.0 * ts, -np.inf)


@pytest.fixture(scope="module")
def spike_to_zero():
    traj = ss.NormTrajectory(log_evaluate_many=_spike_to_zero, growth_rate=400.0,
                             label="spike-to-zero")
    return traj, ss.entry_time_table(traj, 20)


@pytest.fixture(scope="module")
def scalar20():
    traj = ss.ScalarDecay(20.0).trajectory()
    return traj, ss.entry_time_table(traj, 40)


def _dense_overshoot(traj, table, nu_grid, t_grid):
    """(per_nu, k_hat_overshoot) from every grid point with a finite log: the reference."""
    nu_grid = sorted(float(v) for v in (nu_grid or [2.0**k for k in range(11)]))
    if t_grid is None:
        finite = [x for x in table.t if math.isfinite(x)]
        t_hi = max(finite) if finite else 32.0
        t_grid = np.linspace(0.0, max(2.0 * t_hi, t_hi + 1.0), 4097)
    logs = traj.log_evaluate_many(t_grid)
    live = logs > -math.inf
    log_vals = logs[live]
    live_ts = t_grid[live]
    per_nu, k = [], -math.inf
    for nu in nu_grid:
        log_m = log_vals + nu * live_ts
        idx = int(np.argmax(log_m))
        boundary = live_ts[idx] == float(t_grid[-1])
        ratio = math.inf if boundary else float(log_m[idx]) / nu
        per_nu.append((nu, float(log_m[idx]), ratio, boundary))
        k = max(k, ratio)
    return tuple(per_nu), k


@pytest.mark.parametrize("name", [
    "scalar2", "scalar20", "gaussian", "nilpotent", "damped", "fractional_16", "fractional_64",
    "matrix_j10", "matrix_nilpotent_gen", "spike_to_zero",
])
def test_indices_search_matches_dense_grid(name, request):
    traj, table = request.getfixturevalue(name)[-2:]
    assert traj.is_contraction == (not name.startswith(("matrix", "spike")))
    for (grid_name, t_grid), nu_grid in itertools.product(T_GRIDS.items(), NU_GRIDS):
        got = ss.stability_and_extinction_indices(traj, table, nu_grid, t_grid)
        per_nu, k = _dense_overshoot(traj, table, nu_grid, t_grid)
        assert repr(got.per_nu) == repr(per_nu), (grid_name, nu_grid)
        assert repr(got.k_hat_overshoot) == repr(k), (grid_name, nu_grid)
        # the same call with no bound on the norm's rise evaluates every point
        dense, calls = counting(traj, growth_rate=math.inf)
        everything = ss.stability_and_extinction_indices(dense, table, nu_grid, t_grid)
        assert calls["calls"] == 1
        assert repr(got.notes) == repr(everything.notes), (grid_name, nu_grid)
        assert repr(everything.per_nu) == repr(per_nu), (grid_name, nu_grid)


# ---------------------------------------------------------------------------
# the entry-time lattice scan: a growth-bounded sparse scan with the dense result


@st.composite
def generators(draw):
    """Dense 2x2-4x4 generators of either stability."""
    n = draw(st.integers(2, 4))
    return np.reshape(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)), (n, n))


@settings(max_examples=40, deadline=None)
@given(a=generators(), t=st.floats(0.0, 4.0), s=st.floats(0.0, 4.0))
@example(a=J10, t=0.0, s=0.2)
@example(a=np.array([[-0.5, 1.01], [0.0, -0.5]]), t=0.0, s=1e-3)
def test_growth_rate_bounds_the_norm(a, t, s):
    # ||T(t+s)|| <= exp(omega*s) ||T(t)||, for the operator and for an orbit
    model = ss.MatrixSemigroup(a)
    x = np.ones(a.shape[0]) / math.sqrt(a.shape[0])
    for traj in (model.trajectory(), model.vector_trajectory(x)):
        f_t, f_ts = traj.evaluate_many(np.array([t, t + s]))
        assert f_ts <= f_t * math.exp(traj.growth_rate * s) * (1.0 + 1e-9)


@pytest.mark.parametrize("model", CLOSED_FORMS + (ss.FractionalIntegration(16),),
                         ids=lambda m: m.spec_string())
@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 172.0), s=st.floats(0.0, 8.0))
@example(t=0.0, s=1e-3)
@example(t=7.9, s=8.0)
@example(t=169.5, s=2.0)
def test_stated_growth_rate_bounds_the_norm(model, t, s):
    # every model's own rate holds on its own curve: the closed forms state
    # 0, and fractional integration's rate, sampled up to t = 8, holds until
    # its kernel vanishes past t = 170
    traj = model.trajectory()
    f_t, f_ts = traj.evaluate_many(np.array([t, t + s]))
    assert f_ts <= f_t * math.exp(traj.growth_rate * s) * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.5, 1e3))
@example(nu=6.0)
def test_scalar_decay_grid_routes_read_minus_nu(nu):
    # log||T(t)||/t = -nu on every grid point, however far below 1e-300
    # the norm has sunk
    traj = ss.ScalarDecay(nu).trajectory()
    table = ss.entry_time_table(traj, 20)
    g = ss.growth_characteristic(traj, table, ss.default_growth_grid(traj, table))
    assert g.omega_large_t == pytest.approx(-nu, rel=1e-12)
    assert g.omega_inf_grid == pytest.approx(-nu, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=stable_generators())
@example(a=np.array([[-5.998, 13.86], [0.0, -5.998]]))
def test_matrix_grid_routes_lie_above_the_abscissa(a):
    # ||T(t)|| >= exp(s t), s the spectral abscissa, so log||T(t)||/t >= s
    # on every grid point up to the log's error over t; the prefactor of a
    # non-normal block keeps both routes above s, and neither is -inf
    model = ss.MatrixSemigroup(a)
    traj = model.trajectory()
    table = ss.entry_time_table(traj, 20, COARSE_CFG)
    grid = ss.default_growth_grid(traj, table)
    g = ss.growth_characteristic(traj, table, grid)
    slack = traj.eval_error_bound / grid[0]
    assert model.abscissa - slack <= g.omega_inf_grid <= g.omega_large_t < 0.0


def _scan_cases(name, request):
    """(trajectory, r_max, search config) for each general curve of one case.

    The generators of random_stable_20 are all contractions; they are
    scanned as general curves, under a positive rate of 1e-300, too small
    to move any bound.
    """
    if name == "random_mixed_100":
        for a, table in request.getfixturevalue(name):
            traj = ss.MatrixSemigroup(a).trajectory()
            if not traj.is_contraction:
                yield traj, table.r_max, COARSE_CFG
    elif name == "random_stable_20":
        for _, traj, table in request.getfixturevalue(name):
            yield counting(traj, growth_rate=1e-300)[0], table.r_max, COARSE_CFG
    elif name == "matrix_j10":
        _, traj, table = request.getfixturevalue(name)
        yield traj, table.r_max, ss.SearchConfig()
    elif name == "spike_to_zero":
        yield request.getfixturevalue(name)[0], 20, ss.SearchConfig()
    elif name == "lumer_phillips_edge":
        yield ss.MatrixSemigroup([[-0.5, 1.01], [0.0, -0.5]]).trajectory(), 40, ss.SearchConfig()
    elif name == "2x2_transient":
        # its growth bound from t = 16 clears the window (16, 32] unread
        yield ss.MatrixSemigroup([[-6.026, 14.86], [0.0, -6.026]]).trajectory(), 40, ss.SearchConfig()
    else:
        orbit = ss.MatrixSemigroup(J10).vector_trajectory(np.array([0.0, 1.0]))
        yield orbit, 40, ss.SearchConfig()


def _entries(table):
    return repr((table.r_max, table.t, table.u, table.statuses))


@pytest.mark.parametrize("name", [
    "random_mixed_100", "random_stable_20", "matrix_j10", "lumer_phillips_edge", "j10_orbit",
    "spike_to_zero", "2x2_transient",
])
def test_entry_scan_matches_dense_lattice(name, request):
    # [[-0.5,1.01],[0,-0.5]]: A + A^T is just indefinite, so the norm rises
    # to about 1 + 9e-4 near t = 0.28, and t_0 is bisected, not exact
    for traj, r_max, cfg in _scan_cases(name, request):
        assert math.isfinite(traj.growth_rate) and not traj.is_contraction
        # the reference has no bound: every lattice point, in one call per window
        dense, _ = counting(traj, growth_rate=math.inf)
        table = ss.entry_time_table(traj, r_max, cfg)
        assert _entries(table) == _entries(ss.entry_time_table(dense, r_max, cfg)), traj.label
        got = ss.stability_and_extinction_indices(traj, table)
        per_nu, k = _dense_overshoot(traj, table, None, None)
        assert repr((got.per_nu, got.k_hat_overshoot)) == repr((per_nu, k)), traj.label


def test_transient_entry_scan_is_sparse():
    traj = ss.MatrixSemigroup(J10).trajectory()
    sparse, calls = counting(traj)
    dense, dense_calls = counting(traj, growth_rate=math.inf)
    table = ss.entry_time_table(sparse, 40)
    assert _entries(table) == _entries(ss.entry_time_table(dense, 40))
    assert calls["points"] <= dense_calls["points"] / 8, (calls, dense_calls)


# ---------------------------------------------------------------------------
# spectral radii: the spectral mapping theorem against the spectrum of exp(tA)


@st.composite
def triangular_generators(draw):
    """Upper- or lower-triangular 2x2-4x4 generators of either stability."""
    n = draw(st.integers(2, 4))
    diag = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(-12.0, 12.0), min_size=n * n, max_size=n * n))
    a = np.triu(np.reshape(upper, (n, n)), k=1) + np.diag(diag)
    return a.T if draw(st.booleans()) else a


@settings(max_examples=60, deadline=None)
@given(a=triangular_generators(), t=st.floats(0.0, 5.0, exclude_min=True),
       c=st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3)))
@example(a=J10, t=1.0, c=-2.0)
def test_spectral_mapping_matches_the_spectrum_of_the_exponential(a, t, c):
    # r(exp(tA)) = exp(t max Re lambda(A)); every radius is at most the norm,
    # and the radius is absolutely homogeneous
    e = ss.matrix_exponential(a, t)
    mapped = ss.gelfand_spectral_radius(ss.MatrixSemigroup(a), t)
    direct = ss.spectral_radius_estimate(e)
    assert mapped == pytest.approx(direct, rel=1e-9, abs=0.0)
    norm = float(np.linalg.norm(e, 2))
    assert max(mapped, direct) <= norm * (1.0 + 1e-12)
    assert ss.spectral_radius_estimate(c * e) == pytest.approx(abs(c) * direct, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# model specs: the report's model string is the model that was analyzed

_PARAMETER = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(
    st.builds(ss.ScalarDecay, _PARAMETER),
    st.builds(ss.NilpotentShift, _PARAMETER),
    st.builds(ss.DampedNilpotent, _PARAMETER, _PARAMETER),
    st.builds(lambda a: ss.MatrixSemigroup(np.reshape(a, (2, 2))),
              st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4)),
))
@example(m=ss.ScalarDecay(2.123456789))
@example(m=ss.MatrixSemigroup([[-1.23456789, 1.0], [0.0, -1.0]]))
@example(m=ss.MatrixSemigroup([[0.0, 1.0], [0.0, -0.0]]))  # "-0" would parse as the integer 0
def test_spec_string_parses_back_to_itself(m):
    # the report's formatter keeps 12 significant digits, and they survive the parser
    text = m.spec_string()
    again = ss.build_model_from_spec(text)
    assert again.spec_string() == text
    for key in getattr(m, "keys", ()):
        assert getattr(again, key) == pytest.approx(getattr(m, key), rel=1e-11, abs=0.0)
    if isinstance(m, ss.MatrixSemigroup):
        np.testing.assert_allclose(again.a, m.a, rtol=1e-11, atol=0.0)
