import math

import numpy as np
import pytest

from semistab import (
    InvalidArgument,
    InvalidModel,
    QuadratureSpec,
    gamma_eval,
    integrate_adaptive,
    matrix_exponential,
    operator_norm,
)
from semistab.numerics import operator_norms_batch, operator_norms_lanczos


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
                    gap = operator_norm(est - es @ et, 1e-10)
                    bound = 1e-8 * (1.0 + operator_norm(es, 1e-10) * operator_norm(et, 1e-10))
                    assert gap <= bound

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


class TestGamma:
    def test_one(self):
        assert gamma_eval(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_factorial(self):
        assert gamma_eval(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half(self):
        assert gamma_eval(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_against_stdlib_on_range(self):
        # independent reference: the C library implementation
        for x in np.linspace(0.1, 50.0, 997):
            assert gamma_eval(float(x)) == pytest.approx(math.gamma(x), rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument):
            gamma_eval(0.0)
        with pytest.raises(InvalidArgument):
            gamma_eval(-1.5)

    def test_beyond_double_range(self):
        assert gamma_eval(180.0) == math.inf
        assert math.isfinite(gamma_eval(170.0))


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

    def test_scalar_only_integrand_accepted(self):
        res = integrate_adaptive(lambda t: float(t) ** 2, QuadratureSpec(0.0, 1.0))
        assert res.is_value and res.value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_empty_interval(self):
        res = integrate_adaptive(lambda t: t, QuadratureSpec(1.0, 1.0))
        assert res.is_value and res.value == 0.0

    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            QuadratureSpec(-1.0, 1.0)
        with pytest.raises(InvalidArgument):
            QuadratureSpec(0.0, 1.0, abs_tol=0.0)
        with pytest.raises(InvalidArgument):
            QuadratureSpec(0.0, math.inf, tail_policy="closed-cutoff")

    def test_kronrod_rule_exact_on_polynomials(self):
        # Gauss-7/Kronrod-15 integrates low-degree polynomials exactly
        for k in range(0, 12):
            res = integrate_adaptive(lambda t, k=k: t**k, QuadratureSpec(0.0, 1.0))
            assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-12)
