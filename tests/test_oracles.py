import math

import numpy as np
import pytest

import semistab as ss
from semistab import InvalidArgument
from semistab.oracles import closed_form_entry_times, spectral_abscissa_triangular

from conftest import dense_grid_entry_time


class TestClosedForms:
    def test_gaussian_value(self):
        table = closed_form_entry_times(ss.GaussianShift(), 10)
        assert table.t[9] == pytest.approx(6.0)

    def test_scalar_decay_value(self):
        table = closed_form_entry_times(ss.ScalarDecay(4.0), 5)
        assert table.t[2] == pytest.approx(0.5)

    def test_damped_nilpotent_cutoff(self):
        table = closed_form_entry_times(ss.DampedNilpotent(1.0, 1.0), 5)
        assert table.t[3] == pytest.approx(1.0)

    def test_rejects_numeric_models(self):
        with pytest.raises(InvalidArgument):
            closed_form_entry_times(ss.MatrixSemigroup(np.eye(2)), 5)

    @pytest.mark.parametrize("model", [
        ss.ScalarDecay(1.0),
        ss.ScalarDecay(2.0),
        ss.GaussianShift(),
        ss.NilpotentShift(1.0),
        ss.DampedNilpotent(1.0, 1.0),
    ], ids=lambda m: m.spec_string())
    def test_agrees_with_search_up_to_r50(self, model):
        cfg = ss.SearchConfig()
        exact = closed_form_entry_times(model, 50)
        computed = ss.entry_time_table(model.trajectory(), 50, cfg)
        worst = max(abs(a - b) for a, b in zip(exact.t, computed.t))
        assert worst <= 2 * cfg.time_tol


class TestDenseGrid:
    def test_scalar_decay(self):
        o = dense_grid_entry_time(ss.ScalarDecay(1.0).trajectory(), 2, 1e-4)
        assert o == pytest.approx(2.0, abs=1e-4)

    def test_gaussian(self):
        o = dense_grid_entry_time(ss.GaussianShift().trajectory(), 1, 1e-4)
        assert o == pytest.approx(2.0, abs=1e-4)

    def test_transient_growth_positive_start(self, matrix_j10):
        # the norm exceeds 1 on an initial stretch, so the entry into the
        # unit ball happens strictly after zero; a finer grid brackets it
        _, traj, _ = matrix_j10
        coarse = dense_grid_entry_time(traj, 0, 1e-3, horizon=8.0)
        fine = dense_grid_entry_time(traj, 0, 1e-4, horizon=8.0)
        assert fine > 0.0
        assert abs(coarse - fine) <= 1e-3 + 1e-4

    def test_brackets_bisected_result(self, gaussian, scalar2):
        for traj, table in (gaussian, scalar2):
            for r in (1, 3):
                o = dense_grid_entry_time(traj, r, 1e-4)
                assert abs(o - table.t[r]) <= 1e-4

    def test_horizon_exceeded(self, matrix_nilpotent_gen):
        _, traj, _ = matrix_nilpotent_gen
        o = dense_grid_entry_time(traj, 1, 0.01, horizon=32.0)
        assert math.isinf(o)


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa_triangular(np.diag([-1.0, -3.0])) == -1.0

    def test_upper_triangular(self):
        assert spectral_abscissa_triangular([[-1.0, 10.0], [0.0, -1.0]]) == -1.0

    def test_nilpotent(self):
        assert spectral_abscissa_triangular([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_lower_triangular_accepted(self):
        assert spectral_abscissa_triangular([[-2.0, 0.0], [5.0, -1.0]]) == -1.0

    def test_rejects_full_matrix(self):
        with pytest.raises(InvalidArgument):
            spectral_abscissa_triangular([[1.0, 2.0], [3.0, 4.0]])
