import math

import numpy as np
import pytest

import semistab as ss
from semistab import InvalidArgument, InvalidModel, NumericsFailure, SpecError, models

from conftest import validate_submultiplicativity


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
        ("fractional-integration n=nan", 23),
        ("fractional-integration n=inf", 23),
        ("fractional-integration  n=64.5", 24),
        ("damped-nilpotent nu=1", 0),
        ("damped-nilpotent L=1", 0),
        ("gaussian-shift nu=1", 15),
        ("nilpotent-shift L=inf", 0),
    ])
    def test_errors_carry_position(self, bad, pos):
        with pytest.raises(SpecError) as err:
            ss.build_model_from_spec(bad)
        assert err.value.position == pos

    def test_empty_spec(self):
        with pytest.raises(SpecError):
            ss.build_model_from_spec("   ")


class TestWeightedShift:
    @pytest.mark.parametrize("model", ANALYTIC_MODELS[1:], ids=lambda m: m.spec_string())
    def test_log_norms_are_the_old_closed_forms(self, model):
        # the literal expressions each closed form evaluated before it became a
        # weighted shift; the cutoff shift's log now reads -0.0 where it read
        # 0.0, which array_equal accepts and exp maps to the same 1.0
        nu, L = getattr(model, "nu", 2.0), model.L if math.isfinite(model.L) else 1.3
        t = np.concatenate([[0.0, L, np.nextafter(L, np.inf), np.nextafter(L, -np.inf), 26.0],
                            np.linspace(0.01, 20.0)])
        old = {"scalar-decay": lambda: -nu * t,
               "gaussian-shift": lambda: -t * t / 4.0,
               "nilpotent-shift": lambda: np.where(t < L, 0.0, -np.inf),
               "damped-nilpotent": lambda: np.where(t < L, -nu * t, -np.inf)}[model.kind]()
        new = model._log_norms(t)
        assert np.array_equal(new, old)
        assert np.array_equal(np.exp(new).view(np.int64), np.exp(old).view(np.int64))

    def test_takes_phi_or_its_declared_keys(self):
        m = ss.WeightedShift(phi=lambda t: t**1.5, L=2.0)
        assert m.spec_string() == "weighted-shift L=2" and m.trajectory().extinction_time == 2.0
        assert ss.WeightedShift(phi=np.sqrt).trajectory().extinction_time is None
        for bad in (lambda: ss.WeightedShift(), lambda: ss.WeightedShift(1.0, phi=np.sqrt),
                    lambda: ss.ScalarDecay(), lambda: ss.ScalarDecay(1.0, L=2.0),
                    lambda: ss.GaussianShift(phi=np.sqrt)):
            with pytest.raises(TypeError):
                bad()
        with pytest.raises(InvalidModel, match="weighted-shift requires L > 0, got inf"):
            ss.WeightedShift(phi=np.sqrt, L=math.inf)


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
        logs = ss.MatrixSemigroup._log_norms
        monkeypatch.setattr(ss.MatrixSemigroup, "_log_norms",
                            lambda self, ts: calls.append(ts) or logs(self, ts))
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

    def test_every_model_states_its_rate(self):
        # the closed forms never rise; fractional integration samples its rate
        for m in ANALYTIC_MODELS + [ss.FractionalIntegration(16)]:
            assert m.trajectory().growth_rate == 0.0 and m.trajectory().is_contraction

    def test_growth_rate_is_the_only_growth_fact(self):
        # a curve or model that states no rate is not a contraction
        assert ss.NormTrajectory(log_evaluate_many=np.negative).growth_rate == math.inf
        assert not ss.NormTrajectory(log_evaluate_many=np.negative).is_contraction
        assert models.SemigroupModel.growth_rate == math.inf
        for rate, flag in [(-1.0, True), (0.0, True), (1e-300, False), (4.0, False)]:
            assert ss.NormTrajectory(log_evaluate_many=np.negative,
                                     growth_rate=rate).is_contraction is flag
        with pytest.raises(AttributeError):
            ss.NormTrajectory(log_evaluate_many=np.negative).is_contraction = True

    def test_curve_is_stated_only_as_its_log(self):
        # a norm callable passed positionally is refused, not read as logs
        with pytest.raises(TypeError):
            ss.NormTrajectory(np.exp)
        traj = ss.NormTrajectory(log_evaluate_many=np.negative)
        ts = np.array([0.0, 1.0, 800.0])
        assert np.array_equal(traj.evaluate_many(ts), np.exp(-ts))
        assert traj.evaluate(1.0) == math.exp(-1.0)

    def test_fractional_rate_is_sampled_once_on_first_use(self, monkeypatch):
        calls = []
        many = ss.FractionalIntegration.norm_at_many
        monkeypatch.setattr(ss.FractionalIntegration, "norm_at_many",
                            lambda self, ts: calls.append(np.size(ts)) or many(self, ts))
        model = ss.FractionalIntegration(16)
        model.kernel_matrix(1.0)
        assert calls == []
        assert model.trajectory().growth_rate == model.growth_rate == 0.0
        assert calls == [185]  # 186 grid points, one of them shared

    def test_rejects_nan_growth_rate(self):
        with pytest.raises(InvalidArgument):
            ss.NormTrajectory(log_evaluate_many=np.negative, growth_rate=math.nan)


def _sampled_flag(model):
    """The norm starts at most 1 and never rises on a 186-point grid in [0, 16]."""
    grid = np.union1d(np.linspace(0.0, 16.0, 161), np.geomspace(5e-3, 1.0, 25))
    vals = model.norm_at_many(grid)
    return bool(vals[0] <= 1.0 + 1e-10 and np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-10)))


class TestMatrixNorms:
    def test_stiff_generator_fails_at_its_growth_bound(self):
        # omega = -(3 - sqrt(2))/2 here.  Scaling and squaring the shifted
        # generator beside the stiff mode rounds the decay of the non-normal
        # slow block away, on the operator norm and on an orbit in that block
        model = ss.MatrixSemigroup([[-1e17, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -2.0]])
        assert model.growth_rate == pytest.approx(-(3.0 - math.sqrt(2.0)) / 2.0, rel=1e-15)
        orbit = model.vector_trajectory(np.array([0.0, 0.0, 1.0]))
        for traj, first in ((model.trajectory(), "0.01"), (orbit, "0.46")):
            with pytest.raises(NumericsFailure, match=rf"Lumer-Phillips bound .* at t = {first}$"):
                traj.evaluate_many(np.linspace(40.0, 0.0, 4001))
        assert model.norm_at(0.0) == 1.0

    @pytest.mark.parametrize("stiff", [1e9, 1e17])
    def test_stiff_diagonal_reads_its_slow_mode(self, stiff):
        # diag(-stiff, -1) has the shift s = -1, which leaves the slow mode
        # exactly 1: the norm and the slow mode's orbit read exactly e^-t, and
        # their logs exactly -t.  Scaling and squaring the unshifted generator
        # read up to 7.3e-6 high at 1e9 and every norm 1 at 1e17
        model = ss.MatrixSemigroup(np.diag([-stiff, -1.0]))
        assert model.growth_rate == model.abscissa == -1.0
        ts = np.linspace(40.0, 0.0, 4001)
        for traj in (model.trajectory(), model.vector_trajectory(np.array([0.0, 1.0]))):
            assert np.array_equal(traj.evaluate_many(ts), np.exp(-ts))
            assert np.array_equal(traj.log_evaluate_many(ts), -ts)
        # the stiff mode's orbit underflows to exactly 0 from the first step
        fast = model.vector_trajectory(np.array([1.0, 0.0]))
        assert np.array_equal(fast.evaluate_many(ts), np.where(ts > 0.0, 0.0, 1.0))

    def test_orbit_log_route_past_the_norm_underflow(self):
        # the fast mode's orbit is exp(-1000 t): exact logs while its shifted
        # factor exp(-999 t) is representable, also where a sum of squares
        # underflows, and -inf past that, where s = -1 puts it below the floor
        orbit = ss.MatrixSemigroup(np.diag([-1.0, -1000.0])).vector_trajectory(np.array([0.0, 1.0]))
        logs = orbit.log_evaluate_many(np.array([0.0, 0.5, 0.7, 1.0]))
        np.testing.assert_allclose(logs[:3], [0.0, -500.0, -700.0], rtol=1e-14)
        assert logs[3] == -math.inf

    def test_growing_orbit_vanishes_below_the_floor_up_to_its_limit(self):
        # s = 1: the orbit in the mode -1000 has a shifted factor exp(-1001 t)
        # that underflows to 0.  While s*t <= log(1e-300 / (2 * 2^-1074)),
        # 52.97 nats, that 0 puts the norm below the floor; past it, it does not
        model = ss.MatrixSemigroup([[1.0, 0.0], [0.0, -1000.0]])
        orbit = model.vector_trajectory(np.array([0.0, 1.0]))
        assert np.array_equal(orbit.evaluate_many(np.array([0.0, 1.0])), [1.0, 0.0])
        limit = math.log(1e-300 / 2.0) + 1074 * math.log(2.0)
        assert orbit.log_evaluate_many(np.array([limit]))[0] == -math.inf
        with pytest.raises(NumericsFailure, match="not finite at t = 53, shift s = 1.0"):
            orbit.log_evaluate_many(np.array([1.0, 53.0]))

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

    def test_log_norm_deep_tail_strongly_damped(self):
        # exp(-2000 t) underflows even at t = 0.5, yet its log is exact
        ts = np.array([1.0, 10.0])
        logs = ss.MatrixSemigroup([[-2000.0]]).trajectory().log_evaluate_many(ts)
        assert (logs == -2000.0 * ts).all()

    @pytest.mark.parametrize("a, b", [(-1.0, 10.0), (-6.026, 14.86)], ids=["j10", "gallery"])
    def test_log_norm_deep_tail_jordan_closed_form(self, a, b):
        # ||exp(t [[a,b],[0,a]])|| = exp(a t + asinh(|b| t/2)); the shifted route
        # stays within 4 eps of that scale from next to t_0, where x = -log||T||
        # is near 0, out past the norm's underflow (worst of 300 random such
        # blocks against a 40-digit reference: 1.2 eps; the plain log read up
        # to 463 eps)
        traj = ss.MatrixSemigroup([[a, b], [0.0, a]]).trajectory()
        deep = np.array([900.0, 5e3, 2e4])
        assert (traj.evaluate_many(deep) == 0.0).all()
        t0 = ss.final_entry_time(traj, 0.0).time
        ts = np.concatenate([[t0 + 1e-6, t0 + 1e-3, 1.0, 5.0, 20.0], deep])
        at, bend = a * ts, np.arcsinh(abs(b) * ts / 2.0)
        err = np.abs(traj.log_evaluate_many(ts) - (at + bend))
        assert (err <= 4.0 * np.finfo(float).eps * (np.abs(at) + bend + 1.0)).all(), err

    def test_log_norm_deep_batch_is_one_exponential(self, monkeypatch):
        # one stacked exponential and one stack of norms (the 2x2 closed
        # form of operator_norms_batch) for the whole batch, however deep
        # the times: no squaring ladder per level
        calls = []
        for name in ("_expm", "operator_norms_batch"):
            kernel = getattr(models, name)
            monkeypatch.setattr(models, name, lambda m, name=name, kernel=kernel:
                                calls.append(name) or kernel(m))
        traj = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]]).trajectory()
        out = traj.log_evaluate_many(np.geomspace(900.0, 3e4, 15))
        assert np.isfinite(out).all()
        assert calls == ["_expm", "operator_norms_batch"]

    def test_huge_generator_entry_leaves_the_taylor_terms_finite(self):
        # B^16/16! ~ 1e336/2e13 would overflow; the terms are powers of
        # B/rho, rho the power of two at or above ||B||, so the slow mode 0 of
        # the shifted generator reads exactly 1 and log||T(t)|| = -t exactly
        ts = np.array([0.0, 1e-3, 0.5, 1.0, 7.0, 100.0, 1e4])
        traj = ss.MatrixSemigroup(np.diag([-1e21, -1.0, -2.0])).trajectory()
        assert np.array_equal(traj.log_evaluate_many(ts), -ts)

    def test_log_norm_fails_where_the_shift_breaks_down(self):
        # P J P^-1 with J the 3x3 Jordan block at -2: its computed spectral
        # abscissa is off by about 1.6e-5, which t = 1e6 amplifies past the
        # float range; the log route must say so rather than return inf
        jordan = np.array([[-2.0, 5.0, 0.0], [0.0, -2.0, 5.0], [0.0, 0.0, -2.0]])
        p = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
        traj = ss.MatrixSemigroup(p @ jordan @ np.linalg.inv(p)).trajectory()
        assert np.isfinite(traj.log_evaluate_many(np.array([900.0]))).all()
        with pytest.raises(NumericsFailure, match=r"t = 1e\+06"):
            traj.log_evaluate_many(np.array([900.0, 1e6]))

    def test_log_norm_certified_deep_times_are_exponentiated_once(self, monkeypatch):
        # every time, shallow or deep, takes the shifted route: a mixed batch
        # is one stacked exponential holding each time once
        sizes = []
        monkeypatch.setattr(models, "_expm", lambda m, kernel=models._expm:
                            sizes.append(len(m)) or kernel(m))
        ts = np.concatenate([np.geomspace(900.0, 3e4, 15), [0.0, 0.3, 3.6, 40.0, 646.0]])
        out = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]]).trajectory().log_evaluate_many(ts)
        assert np.isfinite(out).all()
        assert sizes == [ts.size]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_log_norm_fails_where_the_shifted_factor_is_not_finite(self, monkeypatch, bad):
        # a shallow time has no other route to fall back on: a NaN, infinite
        # or zero shifted norm raises, naming the time and the shift
        model = ss.MatrixSemigroup([[-1.0, 10.0], [0.0, -1.0]])
        ts = np.array([1.0, 2.5, 646.0])
        monkeypatch.setattr(models, "operator_norms_batch",
                            lambda m: np.where(np.arange(len(m)) == 1, bad, 1.0))
        with pytest.raises(NumericsFailure, match=r"not finite at t = 2\.5, shift s = -1\.0"):
            model.trajectory().log_evaluate_many(ts)

    def test_log_norm_above_its_lumer_phillips_bound_fails(self, monkeypatch):
        # diag(-1, -2) has omega = -1, so ||T(t)|| <= exp(-t); a shifted norm
        # read 1e-6 high puts the log above that bound, which the route checks
        model = ss.MatrixSemigroup(np.diag([-1.0, -2.0]))
        kernel = models.operator_norms_batch
        monkeypatch.setattr(models, "operator_norms_batch", lambda m: kernel(m) * (1.0 + 1e-6))
        with pytest.raises(NumericsFailure, match=r"Lumer-Phillips bound .* at t = 0\.5"):
            model.trajectory().log_evaluate_many(np.array([2.0, 0.5, 900.0]))


class TestSubmultiplicativity:
    GRID = [(s, t) for s in (0.3, 0.7, 1.1, 2.0) for t in (0.3, 0.7, 1.1, 2.0)]

    def test_scalar_decay_equality(self):
        rep = validate_submultiplicativity(ss.ScalarDecay(2.0).trajectory(), self.GRID)
        assert rep.passed and rep.max_violation == 0.0

    def test_gaussian(self):
        rep = validate_submultiplicativity(ss.GaussianShift().trajectory(), self.GRID)
        assert rep.passed

    def test_random_matrix(self):
        rng = np.random.default_rng(3)
        traj = ss.MatrixSemigroup(rng.uniform(-1, 1, (3, 3))).trajectory()
        rep = validate_submultiplicativity(traj, self.GRID)
        assert rep.passed

    def test_matrix_bound_sees_small_violations(self):
        # a normal generator meets the law with equality, so a 1e-7 relative
        # bump of ||T(s+t)|| must fail the check at the exact kernel's bound
        model = ss.MatrixSemigroup(np.diag([-0.5, -1.5]))
        exact = model.trajectory()
        sums = [s + t for s, t in self.GRID]
        bumped = ss.NormTrajectory(
            log_evaluate_many=lambda ts: model._log_norms(ts) + np.where(
                np.isin(ts, sums), math.log1p(1e-7), 0.0),
            growth_rate=0.0, eval_error_bound=exact.eval_error_bound,
        )
        assert validate_submultiplicativity(exact, self.GRID).passed
        assert not validate_submultiplicativity(bumped, self.GRID).passed
        # the batched check reports what a pair-by-pair loop reports
        worst, worst_pair = 0.0, None
        slack = 1e-8 + 2.0 * bumped.eval_error_bound
        for s, t in self.GRID:
            vs, vt, vst = bumped.evaluate(s), bumped.evaluate(t), bumped.evaluate(s + t)
            rel = (vst - vs * vt * (1.0 + slack)) / max(vs * vt, 1e-300)
            if rel > worst:
                worst, worst_pair = rel, (s, t)
        rep = validate_submultiplicativity(bumped, self.GRID)
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
        rep = validate_submultiplicativity(traj, grid)
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

    @pytest.mark.parametrize("n", [math.nan, math.inf, 64.5])
    def test_rejects_n_that_is_no_integer(self, n):
        with pytest.raises(InvalidModel, match="requires an integer n >= 16"):
            ss.FractionalIntegration(n)

    def test_norm_helper(self):
        assert ss.FractionalIntegration(64).norm_at(1.0) == pytest.approx(2.0 / math.pi, abs=0.02)
