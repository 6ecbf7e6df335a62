"""Semigroup models and the norm trajectories they induce.

A :class:`NormTrajectory` is the single abstraction the analysis consumes: a
curve t -> ||T(t)|| evaluated on arrays of times, plus what is known of it
(contraction, growth rate, error bound, extinction time).  Every model
computes norms only through its vectorized ``norm_at_many``; a single time
is a batch of one, so a norm has the same bits whichever path asked for
it.  Models produce trajectories either from closed forms (scalar decay,
Gaussian-weighted shift, shifts with a hard cutoff), which state only
their log curve, or numerically (matrix generators, the discretized
fractional integration operator).  A norm at or below :data:`~.numerics.NORM_FLOOR`
counts as exact zero.
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
    NORM_FLOOR,
    matrix_exponential,
    operator_norm,
    operator_norms_batch,
    operator_norms_lanczos,
    _as_square_matrix,
    _expm,
    _power_iteration,
)

_CHUNK = 4096              # matrices per stacked exponential, bounding temporaries
_STACK_BYTES = 1 << 20     # bytes of fractional kernels per Lanczos stack, sized to stay in cache
_FLAG_TOL = 1e-10          # slack when sampling for the contraction flag
_LUMER_PHILLIPS_TOL = 1e-12  # relative slack on the top eigenvalue of A + A^T


def _check_time(t):
    t = float(t)
    if math.isnan(t) or t < 0.0 or math.isinf(t):
        raise InvalidArgument(f"time must be finite and nonnegative, got {t}")
    return t


class NormTrajectory:
    """A norm curve t -> ||T(t)|| and what is known of it.

    ``evaluate_many`` maps an ndarray of nonnegative finite times to norms.
    It is the curve's one evaluation path: ``evaluate(t)`` is a batch of
    one.  Both raise :class:`InvalidArgument` on a negative or
    non-finite time and :class:`NumericsFailure` on a NaN norm.
    ``is_contraction`` says the norm starts at most 1 and never rises.
    ``growth_rate`` is an omega with ||T(t+s)|| <= exp(omega*s) ||T(t)||
    for all t, s >= 0, or +inf when none is known; it lets the searches
    skip stretches of a rising curve where no sample can matter.
    ``extinction_time`` is the time past which the norm is identically zero,
    or None.  ``eval_error_bound`` is zero for exact closed forms and a
    discretization-error estimate otherwise.  ``log_evaluate_many``, when
    given, is an exact route to log ||T(t)||.
    """

    def __init__(self, evaluate_many, *, is_contraction, growth_rate=math.inf,
                 eval_error_bound=0.0, extinction_time=None, label="",
                 log_evaluate_many=None):
        self._evaluate_many = evaluate_many
        self._log_evaluate_many = log_evaluate_many
        self.is_contraction = bool(is_contraction)
        self.growth_rate = float(growth_rate)
        if math.isnan(self.growth_rate):
            raise InvalidArgument("growth_rate must be a number or +inf, got NaN")
        self.eval_error_bound = float(eval_error_bound)
        self.extinction_time = extinction_time
        self.label = label

    def evaluate(self, t):
        return float(self.evaluate_many(np.array([float(t)]))[0])

    def evaluate_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        # method-form reductions: this runs once per bisection round
        if ts.size and ((ts < 0).any() or not np.isfinite(ts).all()):
            raise InvalidArgument("times must be finite and nonnegative")
        out = np.asarray(self._evaluate_many(ts), dtype=float)
        if np.isnan(out).any():
            raise NumericsFailure("norm evaluation returned NaN")
        return out

    def log_evaluate_many(self, ts):
        """log ||T(t)|| on an array of times, -inf where extinct.

        Closed-form and matrix models supply an exact log route, which stays
        meaningful long after the norm itself has underflowed; otherwise this
        falls back to the logarithm of the evaluated norm with values at or
        below NORM_FLOOR treated as extinct.
        """
        ts = np.asarray(ts, dtype=float)
        if self._log_evaluate_many is not None:
            return np.asarray(self._log_evaluate_many(ts), dtype=float)
        vals = self.evaluate_many(ts)
        out = np.full(vals.shape, -math.inf)
        live = vals > NORM_FLOOR
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
    1e-8 + 2 * eval_error_bound.  All norms are read in one batch.
    """
    slack = 1e-8 + 2.0 * traj.eval_error_bound
    s, t = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    vs, vt, vst = traj.evaluate_many(np.concatenate([s, t, s + t])).reshape(3, -1)
    rel = (vst - vs * vt * (1.0 + slack)) / np.maximum(vs * vt, 1e-300)
    worst, worst_pair = 0.0, None
    if rel.size and rel.max() > 0.0:
        i = int(rel.argmax())
        worst, worst_pair = float(rel[i]), (float(s[i]), float(t[i]))
    return SubmultiplicativityReport(worst, worst_pair, slack, worst <= 0.0)


# ---------------------------------------------------------------------------
# model gallery


class SemigroupModel:
    """Base class: a named model whose norms come from ``norm_at_many``.

    A model states what is known of its curve as attributes:
    ``extinction_time``, ``growth_rate``, ``eval_error_bound`` and, where an
    exact log route exists, a ``_log_norms`` method.  A closed form states
    its curve only there: its norms are ``exp`` of its log norms, and
    ``np.exp`` maps 0 to 1 and -inf to 0 exactly.  :meth:`trajectory` builds the curve from
    these facts once.
    """

    kind = ""
    extinction_time = None
    growth_rate = math.inf
    eval_error_bound = 0.0
    _log_norms = None
    _traj = None

    def norm_at(self, t):
        return float(self.norm_at_many(np.array([_check_time(t)]))[0])

    def norm_at_many(self, ts):
        return np.exp(self._log_norms(ts))

    def _is_contraction(self):
        return True

    def trajectory(self):
        """The model's norm curve, built on first use and then shared."""
        if self._traj is None:
            self._traj = NormTrajectory(
                self.norm_at_many, is_contraction=self._is_contraction(),
                growth_rate=self.growth_rate, eval_error_bound=self.eval_error_bound,
                extinction_time=self.extinction_time, label=self.spec_string(),
                log_evaluate_many=self._log_norms,
            )
        return self._traj

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

    def _log_norms(self, ts):
        return -self.nu * np.asarray(ts, dtype=float)

    def spec_string(self):
        return f"scalar-decay nu={self.nu:g}"


class GaussianShift(SemigroupModel):
    """Right shift on a Gaussian-weighted half-line: norm exp(-t^2/4).

    The norm tends to zero faster than any exponential, yet never reaches
    zero: superstable without finite-time extinction.
    """

    kind = "gaussian-shift"

    def _log_norms(self, ts):
        ts = np.asarray(ts, dtype=float)
        return -ts * ts / 4.0

    def spec_string(self):
        return "gaussian-shift"


class NilpotentShift(SemigroupModel):
    """Shift on L2[0, L] with a hard cutoff: norm 1 before L, 0 after.

    The norm curve jumps from 1 to 0 at t = L, the extinction time.
    """

    kind = "nilpotent-shift"

    def __init__(self, L):
        if not (float(L) > 0 and math.isfinite(L)):
            raise InvalidModel(f"nilpotent-shift requires L > 0, got {L}")
        self.L = self.extinction_time = float(L)

    def _log_norms(self, ts):
        return np.where(np.asarray(ts, dtype=float) < self.L, 0.0, -np.inf)

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
        self.L = self.extinction_time = float(L)

    def _log_norms(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts < self.L, -self.nu * ts, -np.inf)

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
    lazily built trajectory.  So models and trajectories may be shared
    across threads.  The growth rate and the contraction flag evaluate no
    norm: by the Lumer-Phillips theorem (Pazy, *Semigroups of Linear
    Operators*, 1983, section 1.4) ||exp(s*A)|| <= exp(omega*s) with omega
    the top eigenvalue of (A + A^T)/2, so ||T(t+s)|| <= exp(omega*s)
    ||T(t)||; the semigroup is a contraction, its norm never rising,
    exactly when omega <= 0.  One symmetric eigensolve gives both.
    """

    kind = "matrix"
    eval_error_bound = 1e-9

    def __init__(self, a):
        self.a = _as_square_matrix(a)
        self.growth_rate = 0.5 * float(np.linalg.eigvalsh(self.a + self.a.T)[-1])

    def _map_expm(self, ts, reduce):
        """reduce() applied to stacks of exp(t*A) over the times ts, in chunks."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _CHUNK):
            chunk = flat[lo:lo + _CHUNK]
            out[lo:lo + _CHUNK] = reduce(_expm(self.a * chunk[:, None, None]))
        return out.reshape(ts.shape)

    def norm_at_many(self, ts):
        return self._map_expm(ts, operator_norms_batch)

    def _is_contraction(self):
        """Top eigenvalue of A + A^T at most 0, within 1e-12 * max(1, max |a_ij|)."""
        tol = _LUMER_PHILLIPS_TOL * max(1.0, float(np.abs(self.a).max()))
        return 2.0 * self.growth_rate <= tol

    def _log_norms(self, ts):
        """log ||exp(t*A)|| on an array of times, stable far beyond the norm's underflow.

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

        # a contraction semigroup contracts every orbit norm as well, and
        # ||T(t+s)x|| <= ||T(s)|| ||T(t)x|| bounds every orbit's growth
        return NormTrajectory(
            many, is_contraction=parent.is_contraction, growth_rate=self.growth_rate,
            eval_error_bound=self.eval_error_bound,
            label=f"{self.spec_string()} |x orbit",
        )

    def spec_string(self):
        rows = ",".join("[" + ",".join(f"{v:g}" for v in row) + "]" for row in self.a)
        return f"matrix [{rows}]"


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
        self.eval_error_bound = 4.0 / n
        # log distance from a cell midpoint to the left edge of the cell m
        # cells back
        self._log_col = np.log((np.arange(n) + 0.5) / n)

    @staticmethod
    def _gamma(t):
        """Gamma(t+1), the kernel's denominator; inf where the kernel is zero."""
        return math.gamma(t + 1.0) if t + 1.0 <= 171.0 else math.inf

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

    def _is_contraction(self):
        """Contraction flag by sampling the norm on a diagnostic grid up to t = 8.

        The grid mixes a linear sweep with a geometric prefix so that fast
        transient growth near t=0 is not stepped over.  Duplicates are
        dropped after a sort rather than by ``np.unique``, which imports
        ``numpy.ma``.
        """
        grid = np.sort(np.concatenate([np.linspace(0.0, 8.0, 161), np.geomspace(5e-3, 1.0, 25)]))
        grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
        vals = self.norm_at_many(grid)
        nonincreasing = bool(np.all(vals[1:] <= vals[:-1] * (1.0 + _FLAG_TOL)))
        return nonincreasing and vals[0] <= 1.0 + _FLAG_TOL

    def spec_string(self):
        return f"fractional-integration n={self.n}"


def fractional_reference(t):
    """Reference decay curve 1/(t*Gamma(t)) for the fractional integration norm."""
    t = float(t)
    if t <= 0:
        raise InvalidArgument("t must be positive")
    try:
        return 1.0 / math.gamma(t + 1.0)
    except OverflowError:
        return 0.0


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
