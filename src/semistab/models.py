"""Semigroup models and the norm trajectories they induce.

A :class:`NormTrajectory` is the single abstraction the analysis consumes: a
scalar curve t -> ||T(t)|| plus capability flags.  Models produce trajectories
either from closed forms (scalar decay, Gaussian-weighted shift, shifts with a
hard cutoff) or numerically (matrix generators, the discretized fractional
integration operator).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidModel, NumericsFailure, SpecError
# matrix_exponential, operator_norm and _power_iteration are unused here but
# stay importable from this module: the benchmark's tracer wraps the numerics
# kernels where models looks them up, by these names
from .numerics import (  # noqa: F401
    gamma_eval,
    matrix_exponential,
    operator_norm,
    operator_norms_batch,
    operator_norms_lanczos,
    _expm,
    _power_iteration,
)

_CHUNK = 4096              # matrices per stacked exponential, bounding temporaries
_STACK_BYTES = 1 << 20     # bytes of fractional kernels per Lanczos stack, sized to stay in cache
_FLAG_TOL = 1e-10          # slack when sampling for the contraction flag


def _check_time(t):
    t = float(t)
    if math.isnan(t) or t < 0.0 or math.isinf(t):
        raise InvalidArgument(f"time must be finite and nonnegative, got {t}")
    return t


class NormTrajectory:
    """A norm curve t -> ||T(t)|| with capability flags.

    ``evaluate`` takes a single nonnegative time; ``evaluate_many`` takes an
    ndarray (models override it with vectorized implementations).
    ``extinction_time`` is the time past which the norm is identically zero,
    or None.  ``eval_error_bound`` is zero for exact closed
    forms and a discretization-error estimate otherwise.
    """

    def __init__(self, evaluate, *, is_contraction, is_norm_continuous, is_exact,
                 eval_error_bound=0.0, extinction_time=None, label="",
                 evaluate_many=None, log_evaluate_many=None, warnings=()):
        self._evaluate = evaluate
        self._evaluate_many = evaluate_many
        self._log_evaluate_many = log_evaluate_many
        self.is_contraction = bool(is_contraction)
        self.is_norm_continuous = bool(is_norm_continuous)
        self.is_exact = bool(is_exact)
        self.eval_error_bound = float(eval_error_bound)
        self.extinction_time = extinction_time
        self.label = label
        self.warnings = tuple(warnings)

    def evaluate(self, t):
        value = float(self._evaluate(_check_time(t)))
        if math.isnan(value):
            raise NumericsFailure(f"norm evaluation returned NaN at t={t}")
        return value

    def evaluate_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        if ts.size and (np.any(ts < 0) or not np.all(np.isfinite(ts))):
            raise InvalidArgument("times must be finite and nonnegative")
        if self._evaluate_many is not None:
            out = np.asarray(self._evaluate_many(ts), dtype=float)
        else:
            out = np.array([float(self._evaluate(t)) for t in ts], dtype=float)
        if np.any(np.isnan(out)):
            raise NumericsFailure("norm evaluation returned NaN")
        return out

    def log_evaluate_many(self, ts, floor=1e-300):
        """log ||T(t)|| on an array of times, -inf where extinct.

        Closed-form models supply an exact log route, which stays meaningful
        long after the norm itself has underflowed; otherwise this falls back
        to the logarithm of the evaluated norm with values at or below
        ``floor`` treated as extinct.
        """
        ts = np.asarray(ts, dtype=float)
        if self._log_evaluate_many is not None:
            return np.asarray(self._log_evaluate_many(ts), dtype=float)
        vals = self.evaluate_many(ts)
        out = np.full(vals.shape, -math.inf)
        live = vals > floor
        out[live] = np.log(vals[live])
        return out


@dataclass(frozen=True)
class SubmultiplicativityReport:
    """Worst violation of evaluate(s+t) <= evaluate(s)*evaluate(t)."""

    max_violation: float
    worst_pair: tuple[float, float] | None
    slack: float
    passed: bool


def validate_submultiplicativity(traj, pairs):
    """Check the semigroup law's norm consequence on a grid of (s, t) pairs.

    The violation at (s, t) is evaluate(s+t) - evaluate(s)*evaluate(t),
    normalized by the product; pass means every violation stays within
    1e-8 + 2 * eval_error_bound.
    """
    slack = 1e-8 + 2.0 * traj.eval_error_bound
    worst = 0.0
    worst_pair = None
    for s, t in pairs:
        vs, vt = traj.evaluate(s), traj.evaluate(t)
        vst = traj.evaluate(s + t)
        violation = vst - vs * vt * (1.0 + slack)
        scale = max(vs * vt, 1e-300)
        rel = violation / scale
        if rel > worst:
            worst = rel
            worst_pair = (s, t)
    return SubmultiplicativityReport(worst, worst_pair, slack, worst <= 0.0)


# ---------------------------------------------------------------------------
# model gallery


class SemigroupModel:
    """Base class: a named model that produces a NormTrajectory."""

    kind = ""

    def norm_at(self, t):
        raise NotImplementedError

    def norm_at_many(self, ts):
        return np.array([self.norm_at(t) for t in np.asarray(ts, dtype=float)])

    def trajectory(self):
        raise NotImplementedError

    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()!r}>"


class ScalarDecay(SemigroupModel):
    """Pure exponential decay exp(-nu*t): stable with index nu."""

    kind = "scalar-decay"

    def __init__(self, nu):
        if not (float(nu) > 0 and math.isfinite(nu)):
            raise InvalidModel(f"scalar-decay requires nu > 0, got {nu}")
        self.nu = float(nu)

    def norm_at(self, t):
        return math.exp(-self.nu * _check_time(t))

    def norm_at_many(self, ts):
        return np.exp(-self.nu * np.asarray(ts, dtype=float))

    def trajectory(self):
        return NormTrajectory(
            self.norm_at, evaluate_many=self.norm_at_many,
            log_evaluate_many=lambda ts: -self.nu * np.asarray(ts, dtype=float),
            is_contraction=True, is_norm_continuous=True, is_exact=True,
            label=self.spec_string(),
        )

    def spec_string(self):
        return f"scalar-decay nu={self.nu:g}"


class GaussianShift(SemigroupModel):
    """Right shift on a Gaussian-weighted half-line: norm exp(-t^2/4).

    The norm tends to zero faster than any exponential, yet never reaches
    zero: superstable without finite-time extinction.
    """

    kind = "gaussian-shift"

    def norm_at(self, t):
        t = _check_time(t)
        return math.exp(-t * t / 4.0)

    def norm_at_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.exp(-ts * ts / 4.0)

    def trajectory(self):
        return NormTrajectory(
            self.norm_at, evaluate_many=self.norm_at_many,
            log_evaluate_many=lambda ts: -np.asarray(ts, dtype=float) ** 2 / 4.0,
            is_contraction=True, is_norm_continuous=True, is_exact=True,
            label=self.spec_string(),
        )

    def spec_string(self):
        return "gaussian-shift"


class NilpotentShift(SemigroupModel):
    """Shift on L2[0, L] with a hard cutoff: norm 1 before L, 0 after.

    The norm curve jumps at t = L, so this trajectory is *not*
    norm-continuous; threshold-crossing identities that rely on continuity
    are gated off for it.
    """

    kind = "nilpotent-shift"

    def __init__(self, L):
        if not (float(L) > 0 and math.isfinite(L)):
            raise InvalidModel(f"nilpotent-shift requires L > 0, got {L}")
        self.L = float(L)

    def norm_at(self, t):
        return 1.0 if _check_time(t) < self.L else 0.0

    def norm_at_many(self, ts):
        return np.where(np.asarray(ts, dtype=float) < self.L, 1.0, 0.0)

    def trajectory(self):
        return NormTrajectory(
            self.norm_at, evaluate_many=self.norm_at_many,
            log_evaluate_many=lambda ts: np.where(
                np.asarray(ts, dtype=float) < self.L, 0.0, -np.inf),
            is_contraction=True, is_norm_continuous=False, is_exact=True,
            extinction_time=self.L, label=self.spec_string(),
        )

    def spec_string(self):
        return f"nilpotent-shift L={self.L:g}"


class DampedNilpotent(SemigroupModel):
    """Exponential decay exp(-nu*t) up to a hard cutoff at L, zero after.

    Synthetic model whose norm is strictly below 1 on (0, L): unlike the
    plain cutoff shift, reciprocal-log integrands stay finite on the decay
    interval, so every integral criterion is exercised.
    """

    kind = "damped-nilpotent"

    def __init__(self, nu, L):
        if not (float(nu) > 0 and math.isfinite(nu)):
            raise InvalidModel(f"damped-nilpotent requires nu > 0, got {nu}")
        if not (float(L) > 0 and math.isfinite(L)):
            raise InvalidModel(f"damped-nilpotent requires L > 0, got {L}")
        self.nu = float(nu)
        self.L = float(L)

    def norm_at(self, t):
        t = _check_time(t)
        return math.exp(-self.nu * t) if t < self.L else 0.0

    def norm_at_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts < self.L, np.exp(-self.nu * ts), 0.0)

    def trajectory(self):
        return NormTrajectory(
            self.norm_at, evaluate_many=self.norm_at_many,
            log_evaluate_many=lambda ts: np.where(
                np.asarray(ts, dtype=float) < self.L,
                -self.nu * np.asarray(ts, dtype=float), -np.inf),
            is_contraction=True, is_norm_continuous=False, is_exact=True,
            extinction_time=self.L, label=self.spec_string(),
        )

    def spec_string(self):
        return f"damped-nilpotent nu={self.nu:g} L={self.L:g}"


class MatrixSemigroup(SemigroupModel):
    """Finite-dimensional semigroup exp(t*A) for a square generator A.

    Norms are the exact largest singular value of exp(t*A).  Every batch of
    times goes through one stacked kernel (scaling and squaring per time,
    then a stacked singular value decomposition), and a single time is a
    batch of one, so each value is a pure function of its own t: the same
    bits on the batch and the point path, in any query order.  The model
    keeps no warm start, memo or lattice cache; the only state is the
    lazily built trajectory, whose flags are a function of A.  So models
    and trajectories may be shared across threads.
    """

    kind = "matrix"

    def __init__(self, a):
        self.a = _require_generator(a)
        self._traj = None

    def _map_expm(self, ts, reduce):
        """reduce() applied to stacks of exp(t*A) over the times ts, in chunks."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _CHUNK):
            chunk = flat[lo:lo + _CHUNK]
            out[lo:lo + _CHUNK] = reduce(_expm(self.a * chunk[:, None, None]))
        return out.reshape(ts.shape)

    def norm_at(self, t):
        return float(self.norm_at_many(np.array([_check_time(t)]))[0])

    def norm_at_many(self, ts):
        return self._map_expm(ts, operator_norms_batch)

    def log_norm_at(self, t):
        """log ||exp(t*A)||, stable far beyond the underflow point of the norm."""
        return float(self._log_norms(np.array([_check_time(t)]))[0])

    def _log_norms(self, ts):
        """log ||exp(t*A)|| on an array of times.

        Where the norm itself is representable this is just its logarithm;
        deeper in the tail the norm of exp((t/2^K)*A) is squared up K times
        with scalar renormalization, accumulating the log.
        """
        ts = np.asarray(ts, dtype=float)
        vals = self.norm_at_many(ts)
        out = np.empty(ts.shape)
        deep = vals <= 1e-280
        out[~deep] = np.log(vals[~deep])
        if deep.any():
            out[deep] = self._log_norms_deep(ts[deep])
        return out

    def _log_norms_deep(self, ts):
        ks = np.maximum(1, np.ceil(np.log2(np.maximum(ts, 1.0)))).astype(np.int64)
        d = _expm(self.a * (ts / 2.0**ks)[:, None, None])
        log_scale = np.zeros(ts.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(int(ks.max())):
                live = (ks > j) & (log_scale > -math.inf)
                n = operator_norms_batch(d[live])
                log_scale[live] = 2.0 * (log_scale[live] + np.log(n))
                dn = d[live] / n[:, None, None]
                d[live] = dn @ dn
            extinct = log_scale == -math.inf
            out = log_scale + np.log(operator_norms_batch(d))
        out[extinct] = -math.inf
        return out

    def trajectory(self):
        if self._traj is None:
            flags = _sample_flags(self)
            self._traj = NormTrajectory(
                self.norm_at, evaluate_many=self.norm_at_many,
                log_evaluate_many=self._log_norms,
                is_contraction=flags, is_norm_continuous=True, is_exact=False,
                eval_error_bound=1e-9, label=self.spec_string(),
            )
        return self._traj

    def vector_trajectory(self, x):
        """Norm curve t -> ||exp(t*A) x|| for a single unit vector x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.a.shape[0],):
            raise InvalidArgument(f"vector of length {self.a.shape[0]} required")
        if abs(float(np.linalg.norm(x)) - 1.0) > 1e-12:
            raise InvalidArgument("x must be a unit vector (within 1e-12)")
        parent = self.trajectory()

        def many(ts):
            return self._map_expm(ts, lambda e: np.linalg.norm(e @ x, axis=1))

        # a contraction semigroup contracts every orbit norm as well
        return NormTrajectory(
            lambda t: many(np.array([t]))[0], evaluate_many=many,
            is_contraction=parent.is_contraction, is_norm_continuous=True,
            is_exact=False, eval_error_bound=1e-9,
            label=f"{self.spec_string()} |x orbit",
        )

    def spec_string(self):
        rows = ",".join("[" + ",".join(f"{v:g}" for v in row) + "]" for row in self.a)
        return f"matrix [{rows}]"


def _require_generator(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidModel(f"matrix generator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidModel("matrix generator entries must be finite")
    return m


def _sample_flags(model, horizon=16.0):
    """Contraction flag by sampling on a diagnostic grid.

    The grid mixes a linear sweep with a geometric prefix so that fast
    transient growth near t=0 is not stepped over.
    """
    grid = np.unique(np.concatenate([
        np.linspace(0.0, horizon, 161),
        np.geomspace(5e-3, 1.0, 25),
    ]))
    vals = model.norm_at_many(grid)
    nonincreasing = bool(np.all(vals[1:] <= vals[:-1] * (1.0 + _FLAG_TOL)))
    return nonincreasing and vals[0] <= 1.0 + _FLAG_TOL


class FractionalIntegration(SemigroupModel):
    """Fractional-integration semigroup on L2[0,1], discretized on n cells.

    T(t) maps f to the order-t fractional integral s -> (1/Gamma(t))
    int_0^s (s-u)^(t-1) f(u) du.  Each matrix entry is the exact integral of
    the kernel over one cell against a piecewise-constant f (the analytic
    antiderivative absorbs the (s-u)^(t-1) singularity for t < 1).  An entry
    depends only on the lag i - j, so the matrix is lower-triangular
    Toeplitz, built from one length-n column ((m+1/2)/n)^t and its first
    differences.  Norms come from stacked Lanczos on the kernels of a chunk
    of times, with no warm start (:func:`operator_norms_lanczos`): each is
    the operator norm of exactly the matrix :meth:`kernel_matrix` returns,
    to about 1e-14 relative, and a pure function of t, the same bits on the
    batch and the point path in any query order.  A single time is a batch
    of one.  The reference curve 1/(t*Gamma(t)) is available as
    :func:`fractional_reference`.
    """

    kind = "fractional-integration"

    def __init__(self, n=400):
        n = int(n)
        if n < 16:
            raise InvalidModel(f"fractional-integration requires n >= 16, got {n}")
        self.n = n
        # log distance from a cell midpoint to the left edge of the cell m
        # cells back
        self._log_col = np.log((np.arange(n) + 0.5) / n)
        self._traj = None

    @staticmethod
    def _gamma(t):
        """Gamma(t+1), the kernel's denominator; inf where the kernel is zero."""
        return gamma_eval(t + 1.0) if t + 1.0 <= 171.0 else math.inf

    def _kernels(self, ts, denom):
        """C-contiguous stack of the operators at the times ts > 0."""
        n = self.n
        col = np.exp(ts[:, None] * self._log_col)
        # g[m] = col[m] - col[m-1] (col[-1] = 0) is the entry at lag m.  p
        # holds g reversed, then n - 1 zeros, so row i of the matrix is
        # p[n-1-i : 2n-1-i]: a strided view, copied once into the stack.
        p = np.zeros((ts.size, 2 * n - 1))
        p[:, n - 1] = col[:, 0]
        np.subtract(col[:, :0:-1], col[:, -2::-1], out=p[:, :n - 1])
        p[:, :n] /= denom[:, None]
        step, item = p.strides
        rows = np.lib.stride_tricks.as_strided(p[:, n - 1:], (ts.size, n, n), (step, -item, item))
        return rows.copy()

    def kernel_matrix(self, t):
        """The discretized operator at order t (lower triangular, n x n)."""
        t = _check_time(t)
        if t == 0.0:
            return np.eye(self.n)
        denom = self._gamma(t)
        if not math.isfinite(denom):
            return np.zeros((self.n, self.n))
        return self._kernels(np.array([t]), np.array([denom]))[0]

    def norm_at(self, t):
        return float(self.norm_at_many(np.array([_check_time(t)]))[0])

    def norm_at_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.where(flat == 0.0, 1.0, 0.0)
        denom = np.array([self._gamma(t) for t in flat])
        live = np.flatnonzero((flat > 0.0) & np.isfinite(denom))
        chunk = max(1, _STACK_BYTES // (8 * self.n * self.n))
        for lo in range(0, live.size, chunk):
            idx = live[lo:lo + chunk]
            out[idx] = operator_norms_lanczos(self._kernels(flat[idx], denom[idx]))
        return out.reshape(ts.shape)

    def trajectory(self):
        if self._traj is None:
            contraction = _sample_flags(self, horizon=8.0)
            self._traj = NormTrajectory(
                self.norm_at, evaluate_many=self.norm_at_many,
                is_contraction=contraction, is_norm_continuous=True, is_exact=False,
                eval_error_bound=4.0 / self.n, label=self.spec_string(),
                warnings=("unresolved-kernel",) if self.n < 64 else (),
            )
        return self._traj

    def spec_string(self):
        return f"fractional-integration n={self.n}"


def fractional_reference(t):
    """Reference decay curve 1/(t*Gamma(t)) for the fractional integration norm."""
    t = float(t)
    if t <= 0:
        raise InvalidArgument("t must be positive")
    g = gamma_eval(t + 1.0)
    return 0.0 if math.isinf(g) else 1.0 / g


def fractional_integration_norm(t, n=400):
    """Discretized fractional-integration operator norm at order t on n cells."""
    return FractionalIntegration(n).norm_at(t)


def norm_at(model, t):
    """Evaluate ||T(t)|| for any model."""
    return model.norm_at(t)


# ---------------------------------------------------------------------------
# model-spec mini-language

_KINDS = ("scalar-decay", "gaussian-shift", "nilpotent-shift",
          "damped-nilpotent", "fractional-integration", "matrix")


def build_model_from_spec(text):
    """Parse a one-line model spec: ``<kind> key=value ...``.

    Kinds: scalar-decay (nu=), gaussian-shift, nilpotent-shift (L=),
    damped-nilpotent (nu= L=), fractional-integration (n=, default 400),
    matrix (bracketed row list, e.g. ``matrix [[-1,10],[0,-1]]``).
    Raises :class:`SpecError` with the offending character position.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecError("empty model spec", 0)
    s = text.strip()
    offset = text.find(s)

    bracket = s.find("[")
    head = s if bracket < 0 else s[:bracket]
    tokens = [(m.group(0), offset + m.start()) for m in re.finditer(r"\S+", head)]
    if not tokens:
        raise SpecError("model spec must start with a kind, e.g. 'matrix [[...]]'", offset + bracket)
    kind, kind_pos = tokens[0]
    if kind not in _KINDS:
        raise SpecError(f"unknown model kind {kind!r}", kind_pos)

    if kind == "matrix":
        if len(tokens) > 1:
            raise SpecError(f"unexpected token {tokens[1][0]!r} before matrix literal", tokens[1][1])
        if bracket < 0:
            raise SpecError("matrix model requires a bracketed row list", offset + len(s))
        literal = s[bracket:]
        try:
            rows = ast.literal_eval(literal)
        except (ValueError, SyntaxError) as exc:
            raise SpecError(f"malformed matrix literal: {exc}", offset + bracket) from None
        try:
            a = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):
            raise SpecError("matrix literal must be a nested list of numbers", offset + bracket) from None
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpecError(f"matrix literal must be square, got shape {a.shape}", offset + bracket)
        return MatrixSemigroup(a)

    if bracket >= 0:
        raise SpecError("bracketed literal is only valid for the matrix kind", offset + bracket)

    params = {}
    for tok, pos in tokens[1:]:
        if "=" not in tok:
            raise SpecError(f"expected key=value, got {tok!r}", pos)
        key, _, raw = tok.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise SpecError(f"non-numeric value for {key!r}: {raw!r}", pos) from None
        if key in params:
            raise SpecError(f"duplicate key {key!r}", pos)
        params[key] = (value, pos)

    def take(key, required=True, default=None):
        if key in params:
            return params.pop(key)[0]
        if required:
            raise SpecError(f"{kind} requires {key}=", kind_pos)
        return default

    try:
        if kind == "scalar-decay":
            model = ScalarDecay(take("nu"))
        elif kind == "gaussian-shift":
            model = GaussianShift()
        elif kind == "nilpotent-shift":
            model = NilpotentShift(take("L"))
        elif kind == "damped-nilpotent":
            model = DampedNilpotent(take("nu"), take("L"))
        else:
            model = FractionalIntegration(int(take("n", required=False, default=400)))
    except InvalidModel as exc:
        raise SpecError(str(exc), kind_pos) from None
    if params:
        key = next(iter(params))
        raise SpecError(f"unknown parameter {key!r} for {kind}", params[key][1])
    return model
