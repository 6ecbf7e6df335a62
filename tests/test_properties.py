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
bounds the computed norms.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semistab as ss

from conftest import COARSE_CFG, counting

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
                ss.NilpotentShift(1.3), ss.DampedNilpotent(2.0, 1.5))


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


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_single_path_rejects_bad_times_and_nan_norms(bad):
    for model in CLOSED_FORMS + (ss.MatrixSemigroup(J10), ss.FractionalIntegration(16)):
        traj = model.trajectory()
        with pytest.raises(ss.InvalidArgument):
            traj.evaluate(bad)
        with pytest.raises(ss.InvalidArgument):
            traj.evaluate_many(np.array([0.5, bad]))
        with pytest.raises(ss.InvalidArgument):
            model.norm_at(bad)
    nan_past_1 = ss.NormTrajectory(lambda ts: np.where(ts > 1.0, np.nan, 1.0), is_contraction=True)
    assert nan_past_1.evaluate(0.5) == 1.0
    with pytest.raises(ss.NumericsFailure):
        nan_past_1.evaluate(2.0)
    with pytest.raises(ss.NumericsFailure):
        nan_past_1.evaluate_many(np.array([0.5, 2.0]))


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
# the overshoot suprema: a sparse search with the dense grid's result

NU_GRIDS = (None, [55.0, 0.3, 9.0, 1.7, 300.0])
T_GRIDS = {
    "default": None,
    "geometric": np.geomspace(1e-3, 12.0, 3001),
    "decreasing": np.linspace(9.0, 0.0, 1500),
    "repeated": np.repeat(np.linspace(0.0, 6.0, 700), 2),  # ties on every step
}


@pytest.fixture(scope="module")
def fractional_16():
    traj = ss.FractionalIntegration(16).trajectory()
    return traj, ss.entry_time_table(traj, 20)


def _dense_overshoot(traj, table, nu_grid, t_grid, floor=1e-300):
    """(per_nu, k_hat_overshoot) from every grid point: the reference."""
    nu_grid = sorted(float(v) for v in (nu_grid or [2.0**k for k in range(11)]))
    if t_grid is None:
        finite = [x for x in table.t if math.isfinite(x)]
        t_hi = max(finite) if finite else 32.0
        t_grid = np.linspace(0.0, max(2.0 * t_hi, t_hi + 1.0), 4097)
    vals = traj.evaluate_many(t_grid)
    live = vals > floor
    log_vals = np.log(vals[live])
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
    "scalar2", "gaussian", "nilpotent", "damped", "fractional_16", "fractional_64",
    "matrix_j10", "matrix_nilpotent_gen",
])
def test_indices_search_matches_dense_grid(name, request):
    traj, table = request.getfixturevalue(name)[-2:]
    assert traj.is_contraction == (not name.startswith("matrix"))
    for (grid_name, t_grid), nu_grid in itertools.product(T_GRIDS.items(), NU_GRIDS):
        got = ss.stability_and_extinction_indices(traj, table, nu_grid, t_grid)
        per_nu, k = _dense_overshoot(traj, table, nu_grid, t_grid)
        assert repr(got.per_nu) == repr(per_nu), (grid_name, nu_grid)
        assert repr(got.k_hat_overshoot) == repr(k), (grid_name, nu_grid)
        # the same call with no bound on the norm's rise evaluates every point
        dense, calls = counting(traj, is_contraction=False, growth_rate=math.inf)
        everything = ss.stability_and_extinction_indices(dense, table, nu_grid, t_grid)
        assert calls["evaluate_many"] == 1
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


def _scan_cases(name, request):
    """(trajectory, r_max, search config) for each general curve of one case.

    The generators of random_stable_20 are all contractions; they are
    scanned as general curves, under the bound omega+ = 0.
    """
    if name == "random_mixed_100":
        for a, table in request.getfixturevalue(name):
            traj = ss.MatrixSemigroup(a).trajectory()
            if not traj.is_contraction:
                yield traj, table.r_max, COARSE_CFG
    elif name == "random_stable_20":
        for _, traj, table in request.getfixturevalue(name):
            yield counting(traj, is_contraction=False)[0], table.r_max, COARSE_CFG
    elif name == "matrix_j10":
        _, traj, table = request.getfixturevalue(name)
        yield traj, table.r_max, ss.SearchConfig()
    elif name == "lumer_phillips_edge":
        yield ss.MatrixSemigroup([[-0.5, 1.01], [0.0, -0.5]]).trajectory(), 40, ss.SearchConfig()
    else:
        orbit = ss.MatrixSemigroup(J10).vector_trajectory(np.array([0.0, 1.0]))
        yield orbit, 40, ss.SearchConfig()


def _entries(table):
    return repr((table.r_max, table.t, table.u, table.statuses))


@pytest.mark.parametrize("name", [
    "random_mixed_100", "random_stable_20", "matrix_j10", "lumer_phillips_edge", "j10_orbit",
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
