import math

import numpy as np
import pytest

import semistab as ss
from semistab import (
    VERDICT_EXTINCTION,
    VERDICT_STABLE,
    VERDICT_SUPERSTABLE,
    VERDICT_UNSTABLE,
    InvalidArgument,
)
from semistab.oracles import spectral_abscissa_triangular

from conftest import counting

TH = ss.ClassifyThresholds()


class TestClassify:
    def test_gaussian_superstable(self, gaussian):
        _, table = gaussian
        verdict = ss.classify(table, TH)
        assert verdict.verdict == VERDICT_SUPERSTABLE

    def test_nilpotent_extinction(self, nilpotent):
        _, table = nilpotent
        verdict = ss.classify(table, TH)
        assert verdict.verdict == VERDICT_EXTINCTION
        assert verdict.k == pytest.approx(1.0, abs=1e-3)

    def test_scalar_decay_stable(self, scalar2):
        _, table = scalar2
        verdict = ss.classify(table, TH)
        assert verdict.verdict == VERDICT_STABLE
        assert verdict.nu == pytest.approx(2.0, abs=0.02)

    def test_nilpotent_generator_unstable(self, matrix_nilpotent_gen):
        _, _, table = matrix_nilpotent_gen
        verdict = ss.classify(table, TH)
        assert verdict.verdict == VERDICT_UNSTABLE

    def test_rejects_short_table(self):
        table = ss.entry_time_table(ss.ScalarDecay(1.0).trajectory(), 10)
        with pytest.raises(InvalidArgument):
            ss.classify(table, TH)

    def test_extinction_implies_superstable_tail(self, gaussian, scalar2, nilpotent, damped):
        # strength chain: every extinct verdict also passes the superstable
        # and stable tests
        for _, table in (gaussian, scalar2, nilpotent, damped):
            verdict = ss.classify(table, TH)
            stats = ss.tail_statistics(table.u, TH.plateau_window)
            if verdict.verdict == VERDICT_EXTINCTION:
                assert stats.second_half_sum < TH.eps_tailsum
                assert (stats.tail_mean < TH.eps_super
                        or stats.decay_ratio <= TH.tail_decay_ratio)
            if verdict.verdict in (VERDICT_EXTINCTION, VERDICT_SUPERSTABLE, VERDICT_STABLE):
                assert not stats.any_infinite

    def test_matrix_models_never_extinct(self, random_mixed_100):
        # exponentials of finite generators are invertible, so no table of a
        # matrix model may classify as extinct
        for _, table in random_mixed_100:
            verdict = ss.classify(table, TH)
            assert verdict.verdict != VERDICT_EXTINCTION

    def test_mixed_sign_verdicts(self, random_mixed_100):
        for a, table in random_mixed_100:
            verdict = ss.classify(table, TH)
            if spectral_abscissa_triangular(a) < 0:
                assert verdict.verdict == VERDICT_STABLE
            else:
                assert verdict.verdict == VERDICT_UNSTABLE


class TestGrowth:
    def test_scalar_decay_routes(self, scalar2):
        traj, table = scalar2
        growth = ss.growth_characteristic(traj, table, ss.default_growth_grid(traj, table))
        for route in (growth.omega_entry, growth.omega_large_t, growth.omega_inf_grid):
            assert route == pytest.approx(-2.0, abs=1e-3)
        assert growth.agreement_spread <= 1e-3

    def test_gaussian_all_routes_flagged(self, gaussian):
        # log||T(t)||/t = -t/4 keeps falling: both grid routes are the slope
        # at the grid's end, and the entry route's -inf flags the curve
        traj, table = gaussian
        grid = ss.default_growth_grid(traj, table)
        growth = ss.growth_characteristic(traj, table, grid)
        assert growth.omega_entry == -math.inf
        assert growth.omega_large_t == pytest.approx(-grid[-1] / 4.0, rel=1e-12)
        assert growth.omega_inf_grid == pytest.approx(-grid[-1] / 4.0, rel=1e-12)
        assert growth.spread_is_minus_infinity and growth.agreement_spread is None

    def test_transient_matrix_route_agreement(self, matrix_j10):
        _, traj, table = matrix_j10
        growth = ss.growth_characteristic(traj, table, ss.default_growth_grid(traj, table))
        assert abs(growth.omega_entry - (-1.0)) <= 5e-2
        assert abs(growth.omega_entry - growth.omega_large_t) <= 5e-2
        assert abs(growth.omega_large_t - (-1.0)) <= 5e-2

    def test_unstable_entry_route_zero(self, matrix_nilpotent_gen):
        _, traj, table = matrix_nilpotent_gen
        growth = ss.growth_characteristic(traj, table, np.linspace(0.5, 32.0, 64))
        assert growth.omega_entry == 0.0

    def test_default_growth_grid_reads_no_norm(self, fractional_64):
        traj, table = fractional_64
        wrapped, calls = counting(traj)
        grid = ss.default_growth_grid(wrapped, table)
        assert calls == {"calls": 0, "points": 0}
        assert grid.size == 513 and grid[-1] == 4.0 * table.t_hi + 100.0

    @pytest.mark.parametrize("model", ["nilpotent", "damped", "fractional_64"])
    def test_floor_at_last_grid_point_needs_one_norm(self, model, request):
        # these curves state an exact zero, a log of -inf, at the end of the
        # default grid, so both grid routes are -inf whatever the other 512
        # points are.  Fractional integration's kernel is exactly zero past
        # t = 170, where Gamma(t + 1) overflows, and from rmax 40 on its
        # default grid ends there
        traj, table = request.getfixturevalue(model)
        if model == "fractional_64":
            table = ss.entry_time_table(traj, 40)
        grid = ss.default_growth_grid(traj, table)
        wrapped, calls = counting(traj)
        g = ss.growth_characteristic(wrapped, table, grid)
        assert calls == {"calls": 1, "points": 1}
        assert g.omega_large_t == g.omega_inf_grid == -math.inf

    def test_routes_read_whole_grid_above_floor(self, scalar2):
        traj, table = scalar2
        grid = ss.default_growth_grid(traj, table)
        wrapped, calls = counting(traj)
        g = ss.growth_characteristic(wrapped, table, grid)
        assert calls["points"] == grid.size
        assert g.omega_large_t == pytest.approx(-2.0) and g.omega_inf_grid == pytest.approx(-2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_grid_times_that_are_not_positive_and_finite(self, scalar2, matrix_j10,
                                                                 gaussian, bad):
        # log||T(0)||/0 is NaN, which the routes' max and min would swallow:
        # on scalar-decay nu=2 linspace(0, 50, 101) read omega_inf_grid NaN
        # with a spread of 0.  The check comes before any norm is read, on a
        # superexponential curve (the gaussian) as on the others
        for traj, table in (scalar2, matrix_j10[1:], gaussian):
            for grid in (np.linspace(0.0, 50.0, 101), ss.default_growth_grid(traj, table)):
                grid = np.concatenate([[bad], grid[1:]])
                with pytest.raises(InvalidArgument, match="positive and finite"):
                    ss.growth_characteristic(traj, table, grid)

    def test_requires_grid_past_table(self, scalar2):
        traj, table = scalar2
        with pytest.raises(InvalidArgument):
            ss.growth_characteristic(traj, table, np.linspace(0.1, 1.0, 16))


class TestGelfand:
    def test_normal_matrix(self):
        model = ss.MatrixSemigroup(np.diag([-1.0, -3.0]))
        assert ss.gelfand_spectral_radius(model, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_nilpotent_generator(self):
        # exp(N) is defective with both eigenvalues 1, though its norm exceeds 1
        model = ss.MatrixSemigroup(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert ss.gelfand_spectral_radius(model, 1.0) == 1.0

    def test_scalar_generator(self):
        model = ss.MatrixSemigroup(-2.0 * np.eye(2))
        assert ss.gelfand_spectral_radius(model, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-6)

    def test_consistent_with_stability_index(self, matrix_j10, scalar2):
        model, traj, table = matrix_j10
        verdict = ss.classify(table, TH)
        assert verdict.verdict == VERDICT_STABLE
        for t in (1.0, 2.0):
            radius = ss.gelfand_spectral_radius(model, t)
            assert radius <= math.exp(-t * verdict.nu) * 1.05

    def test_quasinilpotent_fractional_kernels(self, fractional_400):
        model, _, _, verdict, _ = fractional_400
        assert verdict.verdict == VERDICT_SUPERSTABLE
        for t in (1.0, 2.0):
            radius = ss.spectral_radius_estimate(model.kernel_matrix(t))
            assert radius < 0.05

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidArgument):
            ss.gelfand_spectral_radius(ss.MatrixSemigroup(np.eye(2)), 0.0)

    @pytest.mark.parametrize("n, t, expected", [
        (256, 1.0, 1.0 / 512),
        (256, 2.0, 1.9073486328125e-06),  # (1/512)^2 / Gamma(3)
        (400, 1.0, 1.0 / 800),
    ])
    def test_fractional_kernel_is_its_diagonal(self, n, t, expected):
        # the discretized kernel is lower-triangular Toeplitz with the single
        # eigenvalue (1/(2n))^t / Gamma(t+1)
        radius = ss.spectral_radius_estimate(ss.FractionalIntegration(n).kernel_matrix(t))
        assert radius == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_transient_generator_reads_its_abscissa(self):
        model = ss.MatrixSemigroup(np.array([[-1.0, 10.0], [0.0, -1.0]]))
        assert ss.gelfand_spectral_radius(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_reads_the_abscissa_of_the_model(self, monkeypatch):
        # the model's one eigensolve gives the abscissa; the radius solves no more
        a = np.array([[-1.0, 10.0, 0.0], [0.0, -0.5, 2.0], [-3.0, 0.0, -2.0]])
        model = ss.MatrixSemigroup(a)
        expected = [float(np.exp(t * np.linalg.eigvals(a).real.max())) for t in (0.5, 1.0, 3.0)]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
        assert [ss.gelfand_spectral_radius(model, t) for t in (0.5, 1.0, 3.0)] == expected
        assert calls == []

    def test_failed_eigensolve_is_a_numerics_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # a matrix model eigensolves its generator once, when built, for the
        # abscissa that gelfand_spectral_radius reads
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ss.NumericsFailure, match="did not converge"):
            ss.spectral_radius_estimate(np.eye(2))
        with pytest.raises(ss.NumericsFailure, match="did not converge"):
            ss.MatrixSemigroup(np.eye(2))

    @pytest.mark.parametrize("m", [
        np.ones((2, 3)), np.ones(3), np.zeros((0, 0)),
        np.array([[1.0, math.nan], [0.0, 1.0]]), np.array([[math.inf]]),
    ], ids=["non-square", "vector", "empty", "nan", "inf"])
    def test_rejects_unusable_matrices(self, m):
        with pytest.raises(InvalidArgument):
            ss.spectral_radius_estimate(m)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_times_that_are_not_finite_and_positive(self, t):
        with pytest.raises(InvalidArgument):
            ss.gelfand_spectral_radius(ss.MatrixSemigroup(np.eye(2)), t)


class TestIndices:
    def test_scalar_decay(self, scalar2):
        traj, table = scalar2
        idx = ss.stability_and_extinction_indices(traj, table)
        assert idx.nu_hat == pytest.approx(2.0, abs=0.02)
        assert math.isinf(idx.k_hat_sum)

    def test_damped_nilpotent_cross_check(self, damped):
        traj, table = damped
        idx = ss.stability_and_extinction_indices(traj, table)
        assert 0.95 <= idx.k_hat_sum <= 1.05
        assert 0.95 <= idx.k_hat_overshoot <= 1.05

    def test_gaussian_sum_grows_without_converging(self, gaussian):
        traj, table = gaussian
        idx = ss.stability_and_extinction_indices(traj, table)
        assert not idx.sum_converged
        assert idx.k_hat_sum == pytest.approx(2.0 * math.sqrt(51.0), abs=0.01)
        shorter = ss.entry_time_table(traj, 30)
        idx30 = ss.stability_and_extinction_indices(traj, shorter)
        assert idx30.k_hat_sum < idx.k_hat_sum  # still growing with r_max

    def test_contraction_grid_searched_sparsely(self, fractional_64):
        # the dense grid is 4097 norms in one call; the coarse-to-fine search
        # evaluates every 32nd point, then only cells that may hold a maximum
        traj, table = fractional_64
        wrapped, calls = counting(traj)
        ss.stability_and_extinction_indices(wrapped, table)
        assert calls["points"] <= 600 and calls["calls"] <= 10

    def test_unstable(self, matrix_nilpotent_gen):
        _, traj, table = matrix_nilpotent_gen
        idx = ss.stability_and_extinction_indices(traj, table)
        assert idx.nu_hat == 0.0 and math.isinf(idx.k_hat_sum)
