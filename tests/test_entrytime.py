import math

import numpy as np
import pytest

import semistab as ss
from semistab import InvalidArgument, SearchConfig
from semistab.entrytime import STATUS_BISECTED, STATUS_EXACT, STATUS_HORIZON

from conftest import counting

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

    def test_rejects_threshold_below_floor(self):
        with pytest.raises(InvalidArgument):
            ss.entry_time_table(ss.GaussianShift().trajectory(), 800)

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
        assert calls["evaluate"] <= 10 and calls["evaluate_many"] <= 40, calls

    @pytest.mark.parametrize("base, peak", [(1.0, 1e-6), (0.999, 2e-3)],
                             ids=["above-tolerance", "narrow-rise"])
    def test_growth_bounded_scan_finds_a_one_point_peak(self, base, peak):
        # the curve peaks on one lattice point, t = 0.005, between the
        # first-pass points, and the sparse scan must still evaluate it.
        # above-tolerance: the curve is 1 elsewhere up to t = 0.008, so only
        # the peak makes t_0 bisected rather than exact.  narrow-rise: the
        # curve starts below 1, so the peak is the t_0 anchor.
        def many(ts):
            tent = np.maximum(0.0, 1.0 - np.abs(ts - 0.005) / 5e-4)
            return np.where(ts <= 0.008, base + peak * tent, base * np.exp(0.008 - ts))

        sparse, calls = counting(ss.NormTrajectory(many, is_contraction=False, growth_rate=8.0))
        dense = ss.NormTrajectory(many, is_contraction=False)
        got, want = ss.entry_time_table(sparse, 3), ss.entry_time_table(dense, 3)
        assert repr((got.t, got.statuses)) == repr((want.t, want.statuses))
        assert want.statuses[0].status == STATUS_BISECTED
        assert calls["points"] < 5000

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
        et = ss.vector_entry_time(m, np.array([0.0, 1.0]), 1)
        assert et.time == pytest.approx(0.5, abs=CFG.time_tol)

    def test_slow_mode(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        et = ss.vector_entry_time(m, np.array([1.0, 0.0]), 1)
        assert et.time == pytest.approx(1.0, abs=CFG.time_tol)

    def test_slow_mode_attains_operator_norm(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        et = ss.vector_entry_time(m, np.array([1.0, 0.0]), 3)
        assert et.time == pytest.approx(3.0, abs=CFG.time_tol)

    def test_rejects_non_unit(self):
        m = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        with pytest.raises(InvalidArgument):
            ss.vector_entry_time(m, np.array([1.0, 1.0]), 1)

    def test_dominated_by_operator_entry_time(self):
        m = ss.MatrixSemigroup(np.diag([-0.5, -1.0, -1.5, -2.0]))
        op = ss.final_entry_time(m.trajectory(), 2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            vt = ss.vector_entry_time(m, x, 2)
            assert vt.time <= op.time + CFG.time_tol


class TestInvariants:
    def test_monotone_gaps_analytic(self, gaussian, scalar2, nilpotent, damped):
        slack = 1e-7 + 4 * CFG.time_tol
        for _, table in (gaussian, scalar2, nilpotent, damped):
            finite = [u for u in table.u if math.isfinite(u)]
            assert all(b <= a + slack for a, b in zip(finite, finite[1:]))

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
            general, _ = counting(traj, is_contraction=False)
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

    def test_search_config_validation(self):
        with pytest.raises(InvalidArgument):
            SearchConfig(time_tol=1e-2, grid_step=1e-3)
        with pytest.raises(InvalidArgument):
            SearchConfig(horizon_start=2e4, horizon_cap=1e4)


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
