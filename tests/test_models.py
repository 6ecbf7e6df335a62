import math

import numpy as np
import pytest

import semistab as ss
from semistab import InvalidArgument, InvalidModel, SpecError


ANALYTIC_MODELS = [
    ss.ScalarDecay(1.0),
    ss.ScalarDecay(2.0),
    ss.GaussianShift(),
    ss.NilpotentShift(1.0),
    ss.DampedNilpotent(1.0, 1.0),
]


class TestNormAt:
    def test_gaussian_value(self):
        assert ss.GaussianShift().norm_at(2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_nilpotent_after_cutoff(self):
        assert ss.NilpotentShift(1.0).norm_at(1.5) == 0.0

    def test_scalar_decay_value(self):
        assert ss.ScalarDecay(3.0).norm_at(1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)

    @pytest.mark.parametrize("model", ANALYTIC_MODELS, ids=lambda m: m.spec_string())
    def test_starts_at_one(self, model):
        assert model.norm_at(0.0) == 1.0

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidArgument):
            ss.GaussianShift().norm_at(-1.0)
        with pytest.raises(InvalidArgument):
            ss.ScalarDecay(1.0).trajectory().evaluate(math.nan)

    def test_gaussian_squared_bound(self):
        m = ss.GaussianShift()
        for t in np.linspace(0.0, 6.0, 25):
            assert m.norm_at(t) ** 2 <= math.exp(-t * t / 2.0) * (1 + 1e-12)


class TestSpecParsing:
    def test_scalar_decay(self):
        m = ss.build_model_from_spec("scalar-decay nu=2")
        assert isinstance(m, ss.ScalarDecay) and m.nu == 2.0

    def test_matrix_literal(self):
        m = ss.build_model_from_spec("matrix [[-1,10],[0,-1]]")
        assert isinstance(m, ss.MatrixSemigroup)
        np.testing.assert_array_equal(m.a, [[-1.0, 10.0], [0.0, -1.0]])

    def test_nilpotent_flags(self):
        m = ss.build_model_from_spec("nilpotent-shift L=1")
        traj = m.trajectory()
        assert isinstance(m, ss.NilpotentShift)
        assert traj.is_contraction and traj.extinction_time == 1.0

    def test_damped_nilpotent(self):
        m = ss.build_model_from_spec("damped-nilpotent nu=1 L=2")
        assert m.nu == 1.0 and m.L == 2.0

    def test_fractional_default_n(self):
        m = ss.build_model_from_spec("fractional-integration")
        assert m.n == 400

    def test_roundtrip_spec_strings(self):
        for text in ["scalar-decay nu=2", "gaussian-shift", "nilpotent-shift L=1",
                     "damped-nilpotent nu=1 L=1", "fractional-integration n=64"]:
            m = ss.build_model_from_spec(text)
            again = ss.build_model_from_spec(m.spec_string())
            assert type(again) is type(m)

    @pytest.mark.parametrize("bad,pos", [
        ("unknown-kind nu=1", 0),
        ("scalar-decay nu=abc", 13),
        ("scalar-decay", 0),
        ("scalar-decay nu=-2", 0),
        ("matrix [[1,2],[3]]", 7),
        ("matrix [[1,2,3],[4,5,6]]", 7),
        ("nilpotent-shift L=1 junk", 20),
        ("scalar-decay nu=1 nu=2", 18),
        ("  [[1]]", 2),
    ])
    def test_errors_carry_position(self, bad, pos):
        with pytest.raises(SpecError) as err:
            ss.build_model_from_spec(bad)
        assert err.value.position == pos

    def test_empty_spec(self):
        with pytest.raises(SpecError):
            ss.build_model_from_spec("   ")


class TestFlags:
    def test_analytic_flags(self):
        for m in (ss.ScalarDecay(2.0), ss.GaussianShift(), ss.DampedNilpotent(1, 1)):
            traj = m.trajectory()
            assert traj.is_contraction and traj.eval_error_bound == 0.0
            assert traj is m.trajectory()
        assert ss.ScalarDecay(2.0).trajectory().extinction_time is None
        assert ss.NilpotentShift(1.0).trajectory().extinction_time == 1.0

    def test_matrix_contraction_sampled(self):
        assert ss.MatrixSemigroup(np.diag([-1.0, -2.0])).trajectory().is_contraction
        assert not ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]]).trajectory().is_contraction
        assert not ss.MatrixSemigroup([[0.0, 1.0], [0.0, 0.0]]).trajectory().is_contraction

    @pytest.mark.parametrize("a, flag", [
        (np.zeros((3, 3)), True),
        (np.eye(2), False),
        ([[0.0, 1.0], [-1.0, 0.0]], True),     # rotations: A + A^T = 0
        ([[-0.5, 1.0], [0.0, -0.5]], True),    # A + A^T singular, top eigenvalue 0
        ([[-0.5, 1.01], [0.0, -0.5]], False),  # just past it: the norm rises first
        ([[-1.0, 2.0], [0.0, -2.0]], True),
    ])
    def test_matrix_flag_on_the_lumer_phillips_boundary(self, a, flag):
        assert ss.MatrixSemigroup(a).trajectory().is_contraction is flag
        assert _sampled_flag(ss.MatrixSemigroup(a)) is flag

    def test_matrix_flag_agrees_with_sampling(self):
        rng = np.random.default_rng(11)
        flags = []
        for _ in range(120):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n)) - rng.uniform(0.0, 3.0) * np.eye(n)
            model = ss.MatrixSemigroup(a)
            flags.append(model.trajectory().is_contraction)
            assert flags[-1] is _sampled_flag(model)
        assert 10 <= sum(flags) <= 110

    def test_matrix_trajectory_evaluates_no_norm(self, monkeypatch):
        calls = []
        many = ss.MatrixSemigroup.norm_at_many
        monkeypatch.setattr(ss.MatrixSemigroup, "norm_at_many",
                            lambda self, ts: calls.append(ts) or many(self, ts))
        for a in ([[-1.0, 10.0], [0.0, -1.0]], np.diag([-1.0, -2.0])):
            ss.MatrixSemigroup(a).trajectory()
        assert calls == []

    def test_rejects_non_square_generator(self):
        with pytest.raises(InvalidModel):
            ss.MatrixSemigroup(np.ones((2, 3)))

    def test_rejects_empty_generator(self):
        # a 0x0 generator has no top eigenvalue, so no growth rate or flag
        with pytest.raises(InvalidModel):
            ss.MatrixSemigroup(np.zeros((0, 0)))
        with pytest.raises(InvalidModel):
            ss.matrix_exponential(np.zeros((0, 0)), 1.0)

    def test_growth_rate_from_one_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        model = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]])
        traj = model.trajectory()
        orbit = model.vector_trajectory(np.array([0.0, 1.0]))
        assert len(calls) == 1
        # the top eigenvalue of (A + A^T)/2 = [[-1, 5], [5, -1]]
        assert traj.growth_rate == orbit.growth_rate == pytest.approx(4.0, rel=1e-14)
        assert not traj.is_contraction
        for m in (ss.ScalarDecay(1.0), ss.GaussianShift(), ss.FractionalIntegration(16)):
            assert m.trajectory().growth_rate == math.inf

    def test_rejects_nan_growth_rate(self):
        with pytest.raises(InvalidArgument):
            ss.NormTrajectory(np.exp, is_contraction=False, growth_rate=math.nan)


def _sampled_flag(model):
    """The norm starts at most 1 and never rises on a 186-point grid in [0, 16]."""
    grid = np.union1d(np.linspace(0.0, 16.0, 161), np.geomspace(5e-3, 1.0, 25))
    vals = model.norm_at_many(grid)
    return bool(vals[0] <= 1.0 + 1e-10 and np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-10)))


class TestMatrixNorms:
    def test_against_svd_of_closed_form(self):
        # triangular 2x2 exponentials have a closed form; the spectral norm
        # of that closed form via LAPACK is a fully independent route
        def closed(a, b, d, t):
            if abs(a - d) < 1e-13:
                return math.exp(a * t) * np.array([[1.0, b * t], [0.0, 1.0]])
            return np.array([
                [math.exp(a * t), b * (math.exp(a * t) - math.exp(d * t)) / (a - d)],
                [0.0, math.exp(d * t)],
            ])

        for a, b, d in [(-1.0, 10.0, -1.0), (-1.0, 3.0, -2.0), (-0.5, 1.0, -2.5)]:
            model = ss.MatrixSemigroup(np.array([[a, b], [0.0, d]]))
            for t in np.arange(0.1, 5.05, 0.35):
                ref = np.linalg.svd(closed(a, b, d, t), compute_uv=False)[0]
                assert abs(model.norm_at(float(t)) - ref) <= 1e-6

    def test_batch_lattice_matches_scalar(self):
        model = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]])
        ts = np.arange(1, 41) * 0.125
        batch = model.trajectory().evaluate_many(ts)
        fresh = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]])
        singles = [fresh.norm_at(float(t)) for t in ts]
        np.testing.assert_allclose(batch, singles, rtol=1e-8)

    def test_log_norm_deep_tail(self):
        # log route must keep tracking the decay after the norm underflows
        traj = ss.MatrixSemigroup(np.diag([-1.0, -2.0])).trajectory()
        assert traj.evaluate(900.0) == 0.0
        assert traj.log_evaluate_many(np.array([900.0]))[0] == pytest.approx(-900.0, rel=1e-6)


class TestSubmultiplicativity:
    GRID = [(s, t) for s in (0.3, 0.7, 1.1, 2.0) for t in (0.3, 0.7, 1.1, 2.0)]

    def test_scalar_decay_equality(self):
        rep = ss.validate_submultiplicativity(ss.ScalarDecay(2.0).trajectory(), self.GRID)
        assert rep.passed and rep.max_violation == 0.0

    def test_gaussian(self):
        rep = ss.validate_submultiplicativity(ss.GaussianShift().trajectory(), self.GRID)
        assert rep.passed

    def test_random_matrix(self):
        rng = np.random.default_rng(3)
        traj = ss.MatrixSemigroup(rng.uniform(-1, 1, (3, 3))).trajectory()
        rep = ss.validate_submultiplicativity(traj, self.GRID)
        assert rep.passed

    def test_matrix_bound_sees_small_violations(self):
        # a normal generator meets the law with equality, so a 1e-7 relative
        # bump of ||T(s+t)|| must fail the check at the exact kernel's bound
        model = ss.MatrixSemigroup(np.diag([-0.5, -1.5]))
        exact = model.trajectory()
        sums = [s + t for s, t in self.GRID]
        bumped = ss.NormTrajectory(
            lambda ts: model.norm_at_many(ts) * np.where(np.isin(ts, sums), 1.0 + 1e-7, 1.0),
            is_contraction=True, eval_error_bound=exact.eval_error_bound,
        )
        assert ss.validate_submultiplicativity(exact, self.GRID).passed
        assert not ss.validate_submultiplicativity(bumped, self.GRID).passed
        # the batched check reports what a pair-by-pair loop reports
        worst, worst_pair = 0.0, None
        slack = 1e-8 + 2.0 * bumped.eval_error_bound
        for s, t in self.GRID:
            vs, vt, vst = bumped.evaluate(s), bumped.evaluate(t), bumped.evaluate(s + t)
            rel = (vst - vs * vt * (1.0 + slack)) / max(vs * vt, 1e-300)
            if rel > worst:
                worst, worst_pair = rel, (s, t)
        rep = ss.validate_submultiplicativity(bumped, self.GRID)
        assert (rep.max_violation, rep.worst_pair) == (worst, worst_pair)


class TestFractionalIntegration:
    def test_plain_integration_operator(self, fractional_400):
        # order 1 is cumulative integration on [0,1]; its singular values are
        # 2/((2k-1)*pi), largest 2/pi
        model = fractional_400[0]
        assert model.norm_at(1.0) == pytest.approx(2.0 / math.pi, abs=0.01)

    def test_against_doubled_resolution(self, fractional_400):
        model = fractional_400[0]
        fine = ss.FractionalIntegration(800)
        coarse = model.norm_at(2.0)
        assert abs(coarse - fine.norm_at(2.0)) <= 0.02 * fine.norm_at(2.0)

    def test_reference_curve_order_of_magnitude(self, fractional_400):
        model = fractional_400[0]
        ref = ss.fractional_reference(5.0)
        value = model.norm_at(5.0)
        assert ref / 3.0 <= value <= ref * 3.0

    def test_strictly_decreasing(self, fractional_400):
        model = fractional_400[0]
        vals = [model.norm_at(float(t)) for t in range(1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_submultiplicative_within_bound(self, fractional_400):
        traj = fractional_400[1]
        grid = [(s, t) for s in (0.5, 1.0, 2.0, 4.0) for t in (0.5, 1.0, 2.0, 4.0)]
        rep = ss.validate_submultiplicativity(traj, grid)
        assert rep.passed

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 2.5, 40.0])
    def test_kernel_is_toeplitz_cell_integral(self, n, t):
        k = ss.FractionalIntegration(n).kernel_matrix(t)
        assert not np.triu(k, 1).any()
        for d in range(n):
            diag = np.diagonal(k, -d)
            assert np.all(diag == diag[0])
        # direct formula: the kernel integrated over cell j at midpoint i
        mids = (np.arange(n) + 0.5) / n
        edges = np.arange(n + 1) / n
        near = np.maximum(mids[:, None] - edges[None, :-1], 0.0) ** t
        far = np.maximum(mids[:, None] - edges[None, 1:], 0.0) ** t
        ref = (near - far) / math.gamma(t + 1.0)
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [0.5, 1.0, 20.0, 169.5])
    def test_kernel_denominator_is_gamma(self, t):
        model = ss.FractionalIntegration(16)
        undivided = model._kernels(np.array([t]), np.array([1.0]))[0]
        np.testing.assert_array_equal(model.kernel_matrix(t), undivided / math.gamma(t + 1.0))

    def test_gamma_overflow_is_extinction(self):
        assert ss.fractional_reference(175.0) == 0.0
        assert ss.FractionalIntegration(16).norm_at(175.0) == 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidModel):
            ss.FractionalIntegration(8)

    def test_norm_helper(self):
        assert ss.FractionalIntegration(64).norm_at(1.0) == pytest.approx(2.0 / math.pi, abs=0.02)
