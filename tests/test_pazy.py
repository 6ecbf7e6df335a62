import math

import numpy as np
import pytest

import semistab as ss
from semistab import InvalidArgument, InverseLogPower, NormPower, NormTrajectory
from semistab.pazy import INAPPLICABLE

from conftest import assert_matches_fresh_integral, counting


class TestPazyIntegral:
    def test_scalar_decay_norm_power(self, scalar2):
        traj, _ = scalar2
        res = ss.pazy_integral(traj, NormPower(1.0), 0.0)
        assert res.is_value and res.value == pytest.approx(0.5, abs=1e-6)

    def test_gaussian_reciprocal_log(self, gaussian):
        # -log of the norm is t^2/4, so the weight is 4/t^2 with closed-form
        # tail integral 2 from a=2
        traj, _ = gaussian
        res = ss.pazy_integral(traj, InverseLogPower(1.0), 2.0)
        assert res.is_value and res.value == pytest.approx(2.0, abs=1e-4)

    def test_scalar_decay_sqrt_weight_diverges(self, scalar2):
        traj, _ = scalar2
        res = ss.pazy_integral(traj, InverseLogPower(0.5), 1.0)
        assert res.is_divergent

    def test_flat_norm_inapplicable(self, nilpotent):
        traj, _ = nilpotent
        res = ss.pazy_integral(traj, InverseLogPower(1.0), 0.5)
        assert res.kind == INAPPLICABLE

    def test_extinction_cutoff(self, nilpotent):
        traj, _ = nilpotent
        res = ss.pazy_integral(traj, NormPower(1.0), 0.0)
        assert res.is_value and res.value == pytest.approx(1.0, abs=1e-8)

    def test_weight_validation(self):
        with pytest.raises(InvalidArgument):
            NormPower(0.0)
        with pytest.raises(InvalidArgument):
            InverseLogPower(-1.0)

    def test_monotone_in_p_where_log_norm_exceeds_one(self, gaussian):
        # on [2, inf) the log-norm magnitude is at least 1, so smaller p
        # means a pointwise larger integrand; closed form is 2/(2p-1)
        traj, _ = gaussian
        values = []
        for p in (0.75, 1.0, 1.5, 2.0):
            res = ss.pazy_integral(traj, InverseLogPower(p), 2.0)
            assert res.value == pytest.approx(2.0 / (2.0 * p - 1.0), rel=1e-6)
            values.append(res.value)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestWeights:
    def test_vectorized_edge_cases(self):
        x = np.array([math.inf, 0.0, -1.0, 1.0])
        np.testing.assert_array_equal(NormPower(2.0).F(x), [0.0, 1.0, math.exp(2.0), math.exp(-2.0)])
        np.testing.assert_array_equal(InverseLogPower(2.0).F(x), [0.0, math.inf, math.inf, 1.0])


class TestPazyCriteria:
    @pytest.mark.parametrize("fixture", ["scalar2", "gaussian", "damped", "matrix_j10"])
    def test_entries_equal_fresh_integrals(self, fixture, request):
        # the weights share one mesh, refined for all of them, so each entry
        # has the kind of its one-weight integral and a value within the
        # accept tolerance of it
        traj, table = request.getfixturevalue(fixture)[-2:]
        rep = ss.pazy_criteria(traj, t0=table.t[0])
        assert rep.entries
        for e in rep.entries:
            assert_matches_fresh_integral(traj, rep.a, e)

    def test_each_node_array_evaluated_once(self):
        model = ss.GaussianShift()
        calls = []

        def record(f):
            def g(ts):
                calls.append(np.asarray(ts, dtype=float).tobytes())
                return f(ts)
            return g

        traj = NormTrajectory(
            log_evaluate_many=record(lambda ts: -np.asarray(ts) ** 2 / 4.0),
            growth_rate=0.0,
        )
        ss.pazy_criteria(traj, t0=0.0)
        assert calls and len(calls) == len(set(calls))

    def test_fractional_quadrature_budget(self):
        # with exact norms the integrand is smooth and the quadrature stops
        # refining; noisy norms near t = 0 drove it past 20,000 points
        model = ss.FractionalIntegration(64)
        base = model.trajectory()
        points = []

        def logs(ts):
            points.append(np.size(ts))
            return model._log_norms(ts)

        traj = NormTrajectory(
            log_evaluate_many=logs, growth_rate=base.growth_rate,
            eval_error_bound=base.eval_error_bound,
        )
        rep = ss.pazy_criteria(traj, t0=0.0)
        assert "iii" in rep.fired
        assert 0 < sum(points) < 4000

    def test_fractional_panels_share_calls(self):
        # the initial panels of a segment, and all children of a round of
        # splits, are read in one call each, for every weight at once: 106
        # calls at one call per panel, 52 with one quadrature per weight; the
        # ratio-2 first segment needs no split round (ratio 8 read 1,608 norms
        # in 32 calls), and the step to zero where the norm underflows
        # (t ~ 166.7) is cut in three at its edge nodes, not halved (halving read
        # 1,218 norms in 30 calls)
        wrapped, calls = counting(ss.FractionalIntegration(80).trajectory())
        rep = ss.pazy_criteria(wrapped, t0=0.0)
        assert "iii" in rep.fired
        assert calls["points"] == 909
        assert calls["calls"] <= 16

    def test_gaussian_panels_share_calls(self):
        # the lockstep mesh reads the norms the per-weight quadratures read,
        # in 8 calls where they took 29; the second phase, (ii) at p = 2,
        # re-reads the first phase's panels and no norm twice.  The ratio-2
        # first segment reads no split round: 528 norms in 6 calls, where
        # ratio 8 read 948 in 8
        wrapped, calls = counting(ss.GaussianShift().trajectory())
        rep = ss.pazy_criteria(wrapped, t0=0.0)
        assert rep.fired == ("i", "iii")
        assert calls["points"] == 528
        assert calls["calls"] <= 6
        _, read = self._read_curve(ss.GaussianShift(), 0.0)
        times = np.concatenate(read)
        assert np.unique(times).size == times.size == 528

    def test_gaussian_superstability_fires(self, gaussian):
        traj, _ = gaussian
        rep = ss.pazy_criteria(traj)
        assert "iii" in rep.fired and rep.implied == "superstable"
        assert "iv" not in rep.fired

    def test_scalar_decay_only_stable(self, scalar2):
        traj, _ = scalar2
        rep = ss.pazy_criteria(traj)
        assert "i" in rep.fired
        assert rep.implied == "stable"
        # the superstability weight integrates like the harmonic series
        iii = [e for e in rep.entries if e.criterion == "iii"]
        assert iii[0].kind == "divergent"

    @staticmethod
    def _read_curve(model, t0):
        """pazy_criteria of ``model``, with the times of each call its curve takes."""
        base = model.trajectory()
        calls = []

        def logs(ts):
            calls.append(np.asarray(ts, dtype=float))
            return model._log_norms(ts)

        traj = NormTrajectory(log_evaluate_many=logs, growth_rate=base.growth_rate,
                              eval_error_bound=base.eval_error_bound)
        return ss.pazy_criteria(traj, t0=t0), calls

    def test_j10_log_route_budget(self, matrix_j10):
        # next to t_0 the shifted log route is smooth to a few 1e-10 relative
        # in x; the plain log's noise there drove the stage, nearly all of it
        # criterion (ii) at p=1.5, to 538 curve calls.  A tail accepted only
        # once it was below tolerance took 60 calls and read t = 6.7e11; a
        # settled tail took 40 and stops at t = 6.4e5, one lockstep mesh for
        # every weight took 21, and a ratio-2 first segment takes 18
        model, _, table = matrix_j10
        rep, calls = self._read_curve(model, table.t[0])
        assert rep.fired == ("i", "ii")
        assert len(calls) <= 18
        assert max(ts.max() for ts in calls) < 1e7

    def test_scalar_decay_tail_budget(self):
        # x = t: the (ii) tail is geometric from the first doubling on, so it
        # settles at t = 128; accepted only below tolerance it took 60 calls
        # and read t = 1.1e12, one quadrature per weight took 27, one lockstep
        # mesh 8, and a ratio-2 first segment takes 5
        rep, calls = self._read_curve(ss.ScalarDecay(1.0), 0.0)
        assert rep.fired == ("i", "ii")
        assert len(calls) <= 5
        assert max(ts.max() for ts in calls) < 1e7

    def test_strongly_damped_matrix_is_not_extinct(self):
        # exp(-2000 t) underflows by t = 0.4: a log route that read the
        # underflow as extinction made (iii) and (iv) fire on a semigroup
        # that never vanishes
        rep = ss.pazy_criteria(ss.MatrixSemigroup([[-2000.0]]).trajectory())
        assert rep.implied == "stable" and "iii" not in rep.fired

    def test_damped_nilpotent_extinction(self, damped):
        traj, _ = damped
        rep = ss.pazy_criteria(traj)
        assert rep.fired == ("i", "ii", "iii", "iv")
        assert rep.implied == "finite-time-extinction"
        assert 0.9 <= rep.k_surrogate <= 1.1
        # shrinking-p trace approaches the extinction time from above
        values = [v for _, kind, v in rep.p_limit_trace if kind == "value"]
        assert values == sorted(values, reverse=True)

    def test_nilpotent_flat_start(self, nilpotent):
        traj, _ = nilpotent
        rep = ss.pazy_criteria(traj)
        assert "i" in rep.fired and rep.implied == "stable"
        assert all(e.kind == INAPPLICABLE for e in rep.entries if e.criterion != "i")

    def test_unstable_inapplicable(self, matrix_nilpotent_gen):
        _, traj, _ = matrix_nilpotent_gen
        rep = ss.pazy_criteria(traj)
        assert rep.overall == INAPPLICABLE and rep.implied is None

    def test_extinction_time_identity(self, damped):
        # the extinction time equals both the u sum and the small-p supremum
        traj, table = damped
        rep = ss.pazy_criteria(traj, t0=table.t[0])
        assert abs(rep.k_surrogate - sum(table.u)) <= 0.1

    def test_no_contradictions_on_suite(self, gaussian, scalar2, nilpotent, damped):
        for traj, _ in (gaussian, scalar2, nilpotent, damped):
            rep = ss.pazy_criteria(traj)
            assert rep.contradictions == ()


class TestSandwich:
    def test_scalar_decay_geometric_bounds(self):
        # u_r = 1 so the sums are geometric: lower 1/(e^2-1), upper e^2/(e^2-1)
        traj = ss.ScalarDecay(1.0).trajectory()
        table = ss.entry_time_table(traj, 25)
        sw = ss.ftrick_sandwich(table, traj, NormPower(2.0))
        assert sw.passed
        assert sw.lower == pytest.approx(1.0 / (math.e**2 - 1.0), abs=1e-4)
        assert sw.integral == pytest.approx(0.5, abs=1e-6)
        assert sw.upper == pytest.approx(math.e**2 / (math.e**2 - 1.0), abs=1e-4)

    def test_nilpotent_bounds(self, nilpotent):
        traj, table = nilpotent
        sw = ss.ftrick_sandwich(table, traj, NormPower(1.0))
        assert sw.passed
        assert sw.lower == pytest.approx(math.exp(-1.0), abs=1e-4)
        assert sw.integral == pytest.approx(1.0, abs=1e-4)
        assert sw.upper == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_infinite_upper(self, gaussian):
        # F(0) is infinite for reciprocal-log weights, so the upper sum is
        # reported as +inf and the bound holds trivially on that side
        traj, table = gaussian
        sw = ss.ftrick_sandwich(table, traj, InverseLogPower(2.0))
        assert math.isinf(sw.upper)
        assert math.isfinite(sw.lower)
        assert sw.passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_holds_across_contraction_models(self, p, gaussian, scalar2, nilpotent, damped):
        for traj, table in (gaussian, scalar2, nilpotent, damped):
            sw = ss.ftrick_sandwich(table, traj, NormPower(p))
            assert sw.passed, (traj.label, p, sw)

    def test_holds_on_contraction_matrix(self):
        model = ss.MatrixSemigroup(np.diag([-0.5, -1.5]))
        traj = model.trajectory()
        table = ss.entry_time_table(traj, 20)
        for p in (1.0, 2.0, 3.0):
            sw = ss.ftrick_sandwich(table, traj, NormPower(p))
            assert sw.passed

    def test_rejects_infinite_table(self, matrix_nilpotent_gen):
        _, traj, table = matrix_nilpotent_gen
        with pytest.raises(InvalidArgument):
            ss.ftrick_sandwich(table, traj, NormPower(1.0))

    def test_rejects_non_contraction(self, matrix_j10):
        _, traj, table = matrix_j10
        with pytest.raises(InvalidArgument):
            ss.ftrick_sandwich(table, traj, NormPower(1.0))
