import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semistab as ss
from semistab import InvalidArgument, SearchConfig, entrytime
from semistab.entrytime import STATUS_BISECTED, STATUS_EXACT, STATUS_HORIZON
from semistab.numerics import ReadStore

from conftest import convex_exponents, counting

CFG = SearchConfig()


class TestFinalEntryTime:
    def test_scalar_decay(self):
        et = ss.final_entry_time(ss.ScalarDecay(1.0).trajectory(), 3)
        assert et.time == pytest.approx(3.0, abs=CFG.time_tol)

    def test_gaussian(self):
        et = ss.final_entry_time(ss.GaussianShift().trajectory(), 4)
        assert et.time == pytest.approx(4.0, abs=CFG.time_tol)

    def test_nilpotent_jump(self):
        et = ss.final_entry_time(ss.NilpotentShift(1.0).trajectory(), 2)
        assert et.time == pytest.approx(1.0, abs=CFG.time_tol)

    def test_nilpotent_generator_never_enters(self, matrix_nilpotent_gen):
        _, traj, _ = matrix_nilpotent_gen
        et = ss.final_entry_time(traj, 1)
        assert math.isinf(et.time) and et.status == STATUS_HORIZON

    def test_contraction_t0_is_zero(self):
        et = ss.final_entry_time(ss.GaussianShift().trajectory(), 0)
        assert et.time == 0.0 and et.status == STATUS_EXACT

    def test_transient_growth_positive_t0(self, matrix_j10):
        _, traj, table = matrix_j10
        assert table.t[0] > 3.0
        # the norm sits at the threshold 1 at the crossing
        assert traj.evaluate(table.t[0]) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_negative_r(self):
        with pytest.raises(InvalidArgument):
            ss.final_entry_time(ss.GaussianShift().trajectory(), -1)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1.5])
    def test_rejects_r_that_is_no_integer(self, r):
        model = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        with pytest.raises(InvalidArgument, match="nonnegative integer"):
            ss.final_entry_time(model.trajectory(), r)
        with pytest.raises(InvalidArgument, match="nonnegative integer"):
            ss.final_entry_time(model.vector_trajectory(np.array([1.0, 0.0])), r)


class TestEntryTimeTable:
    def test_gaussian_relative_times(self):
        table = ss.entry_time_table(ss.GaussianShift().trajectory(), 2)
        expected = [2.0, 2.0 * (math.sqrt(2) - 1.0), 2.0 * (math.sqrt(3) - math.sqrt(2))]
        np.testing.assert_allclose(table.u, expected, atol=2 * CFG.time_tol)

    def test_scalar_decay_constant_gaps(self, scalar2):
        _, table = scalar2
        np.testing.assert_allclose(table.u[:6], 0.5, atol=2 * CFG.time_tol)

    def test_nilpotent_gaps(self, nilpotent):
        _, table = nilpotent
        assert table.u[0] == pytest.approx(1.0, abs=2 * CFG.time_tol)
        assert all(abs(u) <= 2 * CFG.time_tol for u in table.u[1:])

    def test_infinite_propagates(self, matrix_nilpotent_gen):
        _, _, table = matrix_nilpotent_gen
        assert all(math.isinf(u) for u in table.u)
        assert all(s.status == STATUS_HORIZON for s in table.statuses)

    def test_times_nondecreasing(self, gaussian):
        _, table = gaussian
        finite = [x for x in table.t if math.isfinite(x)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))

    def test_rejects_tiny_rmax(self):
        with pytest.raises(InvalidArgument):
            ss.entry_time_table(ss.GaussianShift().trajectory(), 0)

    @pytest.mark.parametrize("r_max", [math.nan, math.inf, 20.5])
    def test_rejects_rmax_that_is_no_integer(self, r_max):
        with pytest.raises(InvalidArgument, match="r_max must be an integer"):
            ss.entry_time_table(ss.GaussianShift().trajectory(), r_max)

    def test_csv_round_trip(self, nilpotent):
        _, table = nilpotent
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "r,t_r,u_r,status"
        assert len(lines) == table.r_max + 3
        # last row carries t_{r_max+1} with an empty u field
        last = lines[-1].split(",")
        assert last[0] == str(table.r_max + 1) and last[2] == ""

    def test_csv_renders_inf(self, matrix_nilpotent_gen):
        _, _, table = matrix_nilpotent_gen
        assert ",inf,inf,horizon" in table.to_csv()


class TestEnvelopeScan:
    def test_unstable_table_skips_dense_scans(self, matrix_nilpotent_gen):
        # the norm of [[0,1],[0,0]] grows like t: the check at each horizon
        # keeps the scan from walking the 1e7-point lattice up to the cap
        _, traj, _ = matrix_nilpotent_gen
        wrapped, calls = counting(traj)
        table = ss.entry_time_table(wrapped, 20)
        assert all(s.status == STATUS_HORIZON for s in table.statuses)
        assert calls["points"] < 1000

    @pytest.mark.parametrize("make", [
        lambda: ss.FractionalIntegration(64),
        lambda: ss.MatrixSemigroup(np.array([[-1.0, 10.0], [0.0, -1.0]])),
    ], ids=["fractional64", "j10"])
    def test_one_batched_search(self, make):
        # every r is bracketed by one scan and bisected in lockstep: a handful
        # of horizon points, then one batched call per scan window or round
        model = make()
        wrapped, calls = counting(model.trajectory())
        table = ss.entry_time_table(wrapped, 40)
        assert all(math.isfinite(t) for t in table.t)
        assert calls["calls"] <= 50, calls

    @pytest.mark.parametrize("base, peak", [(1.0, 1e-6), (0.999, 2e-3)],
                             ids=["above-tolerance", "narrow-rise"])
    def test_growth_bounded_scan_finds_a_one_point_peak(self, base, peak):
        # the curve peaks on one lattice point, t = 0.005, between the
        # first-pass points, and the sparse scan must still evaluate it.
        # above-tolerance: the curve is 1 elsewhere up to t = 0.008, so only
        # the peak makes t_0 bisected rather than exact.  narrow-rise: the
        # curve starts below 1, so the peak is the t_0 anchor.
        def logs(ts):
            tent = np.maximum(0.0, 1.0 - np.abs(ts - 0.005) / 5e-4)
            return np.where(ts <= 0.008, np.log(base + peak * tent), math.log(base) + 0.008 - ts)

        sparse, calls = counting(ss.NormTrajectory(log_evaluate_many=logs, growth_rate=8.0))
        dense = ss.NormTrajectory(log_evaluate_many=logs)
        got, want = ss.entry_time_table(sparse, 3), ss.entry_time_table(dense, 3)
        assert repr((got.t, got.statuses)) == repr((want.t, want.statuses))
        assert want.statuses[0].status == STATUS_BISECTED
        assert calls["points"] < 5000

    def test_curve_with_no_rate_scans_whole_lattice_windows(self):
        # a curve that states no growth rate is not a contraction, and the
        # entry scan evaluates each lattice window whole, in one call
        sizes = []

        def logs(ts):
            sizes.append(ts.size)
            return -ts

        traj = ss.NormTrajectory(log_evaluate_many=logs)
        assert traj.growth_rate == math.inf and not traj.is_contraction
        table = ss.entry_time_table(traj, 3)
        window = round(CFG.horizon_start / CFG.grid_step)
        # t = 0, the first horizon, its window; the second horizon, its
        # window.  A window ends on its horizon, which is not read again
        assert sizes[:5] == [1, 1, window - 1, 1, window - 1]
        assert all(abs(t - r) <= CFG.time_tol for r, t in enumerate(table.t))

    def test_entries_are_final(self, matrix_j10):
        # final entry: after t_r the curve never rises above exp(-r) again
        _, traj, table = matrix_j10
        assert all(math.isfinite(t) for t in table.t)
        assert all(b >= a for a, b in zip(table.t, table.t[1:]))
        for r, t in enumerate(table.t):
            after = t + 0.01 * np.arange(1, 1601)
            assert not np.any(traj.evaluate_many(after) > math.exp(-r))


class TestVectorEntryTime:
    def test_fast_mode(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        et = ss.final_entry_time(m.vector_trajectory(np.array([0.0, 1.0])), 1)
        assert et.time == pytest.approx(0.5, abs=CFG.time_tol)

    def test_fast_mode_past_its_underflow(self):
        # the orbit's shifted factor exp(-999 t) underflows past t = 0.75,
        # where its norm is below the floor: the search reads it as 0
        m = ss.MatrixSemigroup(np.diag([-1.0, -1000.0]))
        for r in (1, 40):
            et = ss.final_entry_time(m.vector_trajectory(np.array([0.0, 1.0])), r)
            assert et.time == pytest.approx(r / 1000.0, abs=CFG.time_tol)

    def test_slow_mode(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        et = ss.final_entry_time(m.vector_trajectory(np.array([1.0, 0.0])), 1)
        assert et.time == pytest.approx(1.0, abs=CFG.time_tol)

    def test_slow_mode_attains_operator_norm(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        et = ss.final_entry_time(m.vector_trajectory(np.array([1.0, 0.0])), 3)
        assert et.time == pytest.approx(3.0, abs=CFG.time_tol)

    def test_rejects_non_unit(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        with pytest.raises(InvalidArgument):
            ss.final_entry_time(m.vector_trajectory(np.array([1.0, 1.0])), 1)

    def test_dominated_by_operator_entry_time(self):
        m = ss.MatrixSemigroup(np.diag([-0.5, -1.0, -1.5, -2.0]))
        op = ss.final_entry_time(m.trajectory(), 2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            vt = ss.final_entry_time(m.vector_trajectory(x), 2)
            assert vt.time <= op.time + CFG.time_tol


def _bisect_every_row(traj, thresholds, lo, hi, f_hi, rows, time_tol):
    """Reference lockstep bisection: every row evaluates its own midpoint."""
    thr, a, b, fb = thresholds[rows], lo[rows], hi[rows], f_hi[rows]
    while True:
        wide = b - a > time_tol
        if not wide.all():
            done = rows[~wide]
            lo[done], hi[done], f_hi[done] = a[~wide], b[~wide], fb[~wide]
            rows, thr, a, b, fb = rows[wide], thr[wide], a[wide], b[wide], fb[wide]
        if not rows.size:
            return
        mid = 0.5 * (a + b)
        vals = traj.log_evaluate_many(mid)
        above = vals >= thr
        a, b, fb = np.where(above, mid, a), np.where(above, b, mid), np.where(above, fb, vals)


@st.composite
def dissipative_generators(draw):
    """2x2-4x4 generators -B B^T - I/20 + (K - K^T): a negative definite symmetric part."""
    n = draw(st.integers(2, 4))
    b, k = (np.reshape(draw(st.lists(st.floats(-bound, bound), min_size=n * n, max_size=n * n)),
                       (n, n)) for bound in (2.0, 5.0))
    return -(b @ b.T) - 0.05 * np.eye(n) + (k - k.T)


_SMALL_FRACTIONAL = [ss.FractionalIntegration(16), ss.FractionalIntegration(24)]


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(convex_exponents().map(lambda m: m.model()),
                       dissipative_generators().map(ss.MatrixSemigroup),
                       st.sampled_from(_SMALL_FRACTIONAL)))
@example(model=ss.MatrixSemigroup(np.array([[-0.05, -1.0], [1.0, -0.05]])))
def test_known_outcomes_give_the_bisection_table(model):
    # on a contraction the midpoints that reads already decide are not
    # read, yet every bracket, t_r and status is the one bisecting every
    # row gives; cutoffs cover the plateau rows and the extinction seeds.
    # The example crosses -27 and -29 exactly at the midpoints t = 540 and
    # 580, where its computed log rises by rounding: a probe a few ulps
    # past 540 read above -27 while t = 540 itself reads below
    traj = model.trajectory()
    assert traj.is_contraction
    table = ss.entry_time_table(traj, 40)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entrytime, "_bisect", _bisect_every_row)
        assert repr(table) == repr(ss.entry_time_table(traj, 40))


class TestInvariants:
    def test_monotone_gaps_analytic(self, gaussian, scalar2, nilpotent, damped):
        slack = 1e-7 + 4 * CFG.time_tol
        for _, table in (gaussian, scalar2, nilpotent, damped):
            finite = [u for u in table.u if math.isfinite(u)]
            assert all(b <= a + slack for a, b in zip(finite, finite[1:]))

    @pytest.mark.parametrize("spec, nu", [
        ("scalar-decay nu=0.5", 0.5), ("scalar-decay nu=1", 1.0), ("scalar-decay nu=2", 2.0),
        ("matrix [[-1e17,0],[0,-1]]", 1.0),
    ])
    def test_pure_exponentials_read_exact_unit_steps(self, spec, nu):
        # log||T(t)|| = -nu*t meets each threshold -r exactly at a bisection
        # midpoint, and the log comparison is exact there: every u_r is 1/nu
        # to half the bisection width, and the u_r never rise.  Comparing
        # exp(-nu*t) with math.exp(-r) read one ulp either side of the
        # crossing and a defect of 1.49e-8
        table = ss.entry_time_table(ss.build_model_from_spec(spec).trajectory(), 40)
        assert table.monotonicity_defect == 0.0
        assert all(abs(u - 1.0 / nu) <= table.time_tol / 2 for u in table.u)

    def test_crossing_value_when_continuous(self, gaussian, scalar2):
        # at a bisected entry time of a norm-continuous trajectory the curve
        # sits at the threshold
        for traj, table in (gaussian, scalar2):
            for r in (1, 5, 10):
                thr = math.exp(-r)
                assert abs(traj.evaluate(table.t[r]) - thr) <= thr * 1e-4

    def test_stopping_time_equivalence(self):
        # a contraction's search and the general scan of the same curve agree
        for model in (ss.ScalarDecay(1.5), ss.GaussianShift(), ss.DampedNilpotent(2.0, 1.5)):
            traj = model.trajectory()
            general, _ = counting(traj, growth_rate=math.inf)
            own = ss.entry_time_table(traj, 5).t
            scanned = ss.entry_time_table(general, 5).t
            assert all(abs(a - b) <= 2 * CFG.time_tol for a, b in zip(own, scanned))

    def test_extinction_plateau_statuses(self, nilpotent):
        _, table = nilpotent
        # beyond the cutoff every entry collapses onto the boundary
        assert table.statuses[1].status == STATUS_BISECTED
        assert all(s.status == STATUS_EXACT for s in table.statuses[2:])
        spread = max(table.t[1:]) - min(table.t[1:])
        assert spread <= 2 * CFG.time_tol

    @pytest.mark.parametrize("model, most", [
        (ss.NilpotentShift(1.0), 33), (ss.DampedNilpotent(1.0, 1.0), 33),
        (ss.DampedNilpotent(0.5, 3.0), 80), (ss.DampedNilpotent(4.0, 4.0), 500),
    ], ids=["nilpotent L=1", "damped nu=1 L=1", "damped nu=0.5 L=3", "damped nu=4 L=4"])
    def test_plateau_rows_ride_on_the_crossing(self, model, most, monkeypatch):
        # past an extinction plateau's crossing every later threshold shares
        # one bracket, whose midpoint takes one norm per round, where
        # bisecting every row on its own takes 1,273 norms; the table is the
        # same.  Under damped-nilpotent the earlier rows leave the shared
        # bracket one by one as their crossings part.
        wrapped, calls = counting(model.trajectory())
        table = ss.entry_time_table(wrapped, 40)
        assert calls["points"] <= most, calls
        monkeypatch.setattr(entrytime, "_bisect", _bisect_every_row)
        assert repr(table) == repr(ss.entry_time_table(wrapped, 40))

    @pytest.mark.parametrize("model, points, calls", [
        (ss.GaussianShift(), 254, 14), (ss.ScalarDecay(2.76), 93, 8),
        (ss.FractionalIntegration(64), 294, 16),
    ], ids=["gaussian", "scalar-decay nu=2.76", "fractional n=64"])
    def test_bisection_evaluates_each_midpoint_once(self, model, points, calls, monkeypatch):
        # on a contraction every read decides the side of every midpoint
        # before or after it, for every row, so bisection reads only the
        # midpoints left open, and an Illinois point per row pins each
        # crossing: 254, 93 and 294 norms, where reading each distinct
        # midpoint once took 1,066, 1,087 and 1,101, and every row taking
        # its own 1,271; the table is the same.  The counts include the
        # reads at t = 0 and at each horizon, and fractional integration's
        # reads keep their rounding margin, as on the model's own trajectory.
        # The gaussian's first round read t = 8 twice, as a midpoint and as
        # an Illinois point, before every read went through one store
        wrapped, counted = counting(model.trajectory())
        table = ss.entry_time_table(wrapped, 40)
        assert (counted["points"], counted["calls"]) == (points, calls)
        monkeypatch.setattr(entrytime, "_bisect", _bisect_every_row)
        assert repr(table) == repr(ss.entry_time_table(wrapped, 40))

    @pytest.mark.parametrize("a, points, calls", [
        ([[-1.0, 10.0], [0.0, -1.0]], 3652, 39), ([[-6.026, 14.86], [0.0, -6.026]], 1470, 26),
    ], ids=["j10", "2x2 transient"])
    def test_lattice_search_reads_each_norm_once(self, a, points, calls):
        # a rising curve's table reads its lattice coarse to fine, then
        # bisects every bracket; a lattice window ends on its horizon, which
        # is read once, where it was read again at 16, 32 and 64 on j10 and
        # at 16 and 32 on the 2x2 transient (3,655 and 1,972 norms).  The 2x2
        # transient's growth bound from t = 16 clears every pending threshold
        # on (16, 32], so that window reads only its horizon (1,970 norms in
        # 27 calls when it was searched); j10's bound does not clear its windows
        wrapped, counted = counting(ss.MatrixSemigroup(np.array(a)).trajectory())
        ss.entry_time_table(wrapped, 40)
        assert (counted["points"], counted["calls"]) == (points, calls)

    def test_a_stated_extinction_time_pins_the_plateau(self, monkeypatch):
        # the curve is read at its extinction time and at the float before
        # it in the first round, so the plateau rows bisect without a read
        # from then on: t = 0, the first horizon, those two and the first
        # midpoint, where bisection takes 33
        model = ss.NilpotentShift(1.0)
        points = []

        def logs(ts):
            points.extend(ts)
            return model.trajectory().log_evaluate_many(ts)

        stated = ss.NormTrajectory(log_evaluate_many=logs, growth_rate=0.0, extinction_time=1.0)
        table = ss.entry_time_table(stated, 40)
        assert sorted(points) == [0.0, math.nextafter(1.0, 0.0), 1.0, 8.0, 16.0]
        monkeypatch.setattr(entrytime, "_bisect", _bisect_every_row)
        assert repr(table) == repr(ss.entry_time_table(stated, 40))

    def test_reads_that_rise_still_bound_each_crossing(self):
        # should a contraction's reads rise, each row's interval still runs
        # from its last read at or above the threshold to its first below it
        logs = {0.0: 0.0, 4.0: -4.0, 1.0: -1.5, 1.5: -0.5, 2.0: -2.5, 3.0: -1.8}
        traj = ss.NormTrajectory(log_evaluate_many=lambda ts: np.array([logs[t] for t in ts]),
                                 growth_rate=0.0)
        store = ReadStore(traj)
        store.read(np.array([0.0, 4.0]))
        store.read(np.array([1.0, 1.5, 2.0, 3.0]))
        thresholds = np.array([-1.0, -2.0])
        assert store.t[store.last_at_or_above(thresholds)].tolist() == [1.5, 3.0]
        assert store.t[store.first_below(thresholds)].tolist() == [1.0, 2.0]

    def test_search_config_validation(self):
        with pytest.raises(InvalidArgument):
            SearchConfig(time_tol=1e-2, grid_step=1e-3)
        with pytest.raises(InvalidArgument):
            SearchConfig(horizon_start=2e4, horizon_cap=1e4)

    @pytest.mark.parametrize("cfg", [
        dict(horizon_cap=math.inf), dict(time_tol=1e-20), dict(time_tol=math.ulp(1e4)),
        dict(time_tol=1e-8, horizon_cap=1e9),
    ], ids=["inf-cap", "tiny-tol", "one-ulp", "tol-below-cap-ulps"])
    def test_search_config_rejects_a_tol_bisection_cannot_reach(self, cfg):
        # no bracket passes the cap, so a time_tol of two ulps of the cap
        # leaves every midpoint strictly inside its bracket
        with pytest.raises(InvalidArgument):
            SearchConfig(**cfg)

    def test_two_ulp_tol_bisects_to_the_float(self):
        cfg = SearchConfig(time_tol=2.0 * math.ulp(1e4))
        entry = ss.final_entry_time(ss.ScalarDecay(2.0).trajectory(), 3, cfg)
        assert entry.status == STATUS_BISECTED and abs(entry.time - 1.5) <= entry.tol


class TestGapGrowthNonNormal:
    """Norm-level gaps may legitimately increase for non-normal generators.

    The nonincreasing-gaps law is a statement about suprema of vector-orbit
    entry times.  The table stores differences of norm-level entry times,
    which agree with those suprema only where the log-norm is convex; a norm
    curve approaching its decay envelope C*exp(-nu*t) from above has a
    concave log-norm stretch, and there the differences creep upward toward
    1/nu.  This generator (found by randomized search, envelope ratio
    sigma(t)*exp(nu*t) decreasing through 2.05 -> 1.99) pins that behaviour.
    """

    A = np.array([
        [-1.028, 0.068, -0.745, 0.840],
        [0.0, -0.344, -0.354, 0.794],
        [0.0, 0.0, -0.683, 0.445],
        [0.0, 0.0, 0.0, -0.595],
    ])

    def test_gaps_grow_toward_reciprocal_rate(self):
        import semistab as ss

        model = ss.MatrixSemigroup(self.A)
        cfg = SearchConfig(grid_step=1e-2)
        table = ss.entry_time_table(model.trajectory(), 16, cfg)
        nu = 0.344
        # verified against an eigendecomposition + svd oracle: the growth is
        # in the curve, not in the search
        assert table.monotonicity_defect > 1e-3
        post_transient = table.u[2:]
        assert all(u <= 1.0 / nu + 1e-3 for u in post_transient)
        assert abs(table.u[-1] - 1.0 / nu) <= 0.02 / nu
