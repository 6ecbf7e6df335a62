"""Semigroup models and the norm trajectories they induce.

A :class:`NormTrajectory` is the single abstraction the analysis consumes:
one log curve t -> log||T(t)|| evaluated on arrays of times, plus what is
known of it (growth rate, error bound, extinction time).  Every model
states that curve once, in its vectorized ``_log_norms``; a norm is its
exp, and a single time is a batch of one, so a value has the same bits
whichever path asked for it.  Models produce trajectories either from
closed forms or numerically (matrix generators, the discretized
fractional integration operator).  Every closed form is a
:class:`WeightedShift` with a convex exponent phi, norm exactly
exp(-phi(t)) up to an optional cutoff L: phi = nu*t (scalar decay), t^2/4
(Gaussian-weighted shift), 0 and nu*t cut off at L (the cutoff shifts).
A log of -inf is an exact zero; fractional integration reads every norm
at or below :data:`~.numerics.NORM_FLOOR` as one.
"""

from __future__ import annotations

import ast
import math
import re
from functools import cached_property

import numpy as np

from .entrytime import _csv_number
from .errors import InvalidArgument, InvalidModel, NumericsFailure, SpecError
# matrix_exponential, operator_norm and _power_iteration are unused here but
# stay importable from this module: the benchmark's tracer wraps the numerics
# kernels where models looks them up, by these names
from .numerics import (  # noqa: F401
    NORM_FLOOR,
    TaylorExponential,
    matrix_exponential,
    operator_norm,
    operator_norms_batch,
    operator_norms_lanczos,
    _as_square_matrix,
    _eigenvalues,
    _expm,
    _inverse_scale,
    _power_iteration,
)

_CHUNK = 4096              # matrices per stacked exponential, bounding temporaries
_STACK_BYTES = 1 << 20     # bytes of fractional kernels per Lanczos stack, sized to stay in cache
_SAMPLE_TOL = 1e-10        # slack when sampling the fractional norm for its growth rate
_LUMER_PHILLIPS_TOL = 1e-12  # relative slack on the top eigenvalue of A + A^T
_LOG_DEEP = math.log(1e-280)  # norms at or below 1e-280 lose relative precision: not bound-checked


def _check_time(t):
    t = float(t)
    if math.isnan(t) or t < 0.0 or math.isinf(t):
        raise InvalidArgument(f"time must be finite and nonnegative, got {t}")
    return t


def _check_times(ts):
    ts = np.asarray(ts, dtype=float)
    # method-form reductions: this runs once per bisection round
    if ts.size and ((ts < 0).any() or not np.isfinite(ts).all()):
        raise InvalidArgument("times must be finite and nonnegative")
    return ts


class NormTrajectory:
    """A log norm curve t -> log||T(t)|| and what is known of it.

    ``log_evaluate_many``, the one required keyword, maps an ndarray of
    nonnegative finite times to log norms, -inf where the norm is exactly
    zero.  It is the curve's one evaluation path: ``evaluate_many`` is its
    exp and ``evaluate(t)`` a batch of one.  All three raise
    :class:`InvalidArgument` on a negative or non-finite time and
    :class:`NumericsFailure` on a NaN log norm.
    ``growth_rate`` is an omega with ||T(t+s)|| <= exp(omega*s) ||T(t)||
    for all t, s >= 0, or +inf when none is known; it lets the searches
    skip stretches of a rising curve where no sample can matter.  It is
    the curve's one growth fact: ``is_contraction`` is omega <= 0.
    ``extinction_time`` is the time past which the norm is identically zero,
    or None.  ``eval_error_bound`` is zero for exact closed forms and a
    discretization-error estimate otherwise.
    """

    def __init__(self, *, log_evaluate_many, growth_rate=math.inf,
                 eval_error_bound=0.0, extinction_time=None, label=""):
        self._log_evaluate_many = log_evaluate_many
        self.growth_rate = float(growth_rate)
        if math.isnan(self.growth_rate):
            raise InvalidArgument("growth_rate must be a number or +inf, got NaN")
        self.eval_error_bound = float(eval_error_bound)
        self.extinction_time = extinction_time
        self.label = label

    @property
    def is_contraction(self):
        """The norm never rises: ||T(t+s)|| <= ||T(t)|| for all t, s >= 0."""
        return self.growth_rate <= 0.0

    def evaluate(self, t):
        return float(self.evaluate_many(np.array([float(t)]))[0])

    def evaluate_many(self, ts):
        with np.errstate(over="ignore"):  # a growing semigroup's norm overflows to inf
            return np.exp(self.log_evaluate_many(ts))

    def log_evaluate_many(self, ts):
        """log ||T(t)|| on an array of times, -inf where extinct."""
        out = np.asarray(self._log_evaluate_many(_check_times(ts)), dtype=float)
        if np.isnan(out).any():
            raise NumericsFailure("log norm evaluation returned NaN")
        return out


# ---------------------------------------------------------------------------
# model gallery


class SemigroupModel:
    """Base class: a named model that states its curve in ``_log_norms``.

    A model states what is known of its curve as attributes:
    ``extinction_time``, ``growth_rate``, ``eval_error_bound``, and its log
    norms in a vectorized ``_log_norms`` method.  The growth rate defaults
    to +inf, unknown; no closed form rises, so each states 0.  Its norms
    are ``exp`` of its log norms, and ``np.exp`` maps 0 to 1 and -inf to 0
    exactly.  :meth:`trajectory` builds the curve from these facts once.
    """

    kind = ""
    extinction_time = None
    growth_rate = math.inf
    eval_error_bound = 0.0
    _traj = None

    def norm_at(self, t):
        return float(self.norm_at_many(np.array([_check_time(t)]))[0])

    def norm_at_many(self, ts):
        with np.errstate(over="ignore"):  # a growing semigroup's norm overflows to inf
            return np.exp(self._log_norms(ts))

    def trajectory(self):
        """The model's log norm curve, built on first use and then shared."""
        if self._traj is None:
            self._traj = NormTrajectory(
                log_evaluate_many=self._log_norms, growth_rate=self.growth_rate,
                eval_error_bound=self.eval_error_bound,
                extinction_time=self.extinction_time, label=self.spec_string(),
            )
        return self._traj

    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()!r}>"


class WeightedShift(SemigroupModel):
    """Right shift on L2((0, inf), exp(-2*phi(s)) ds): norm exp(-phi(t)), zero from a cutoff L.

    For a convex exponent phi with phi(0) = 0 the norm is exactly
    exp(-phi(t)) (Engel and Nagel, *One-Parameter Semigroups*, 2000):
    ||T(t)||^2 = sup_u exp(-2*(phi(u+t) - phi(u))), and by convexity the
    increment is least at u = 0.  Restricted to L2[0, L] the shift keeps
    that norm before L and is 0 from L, its extinction time.  The norm
    never rises: the growth rate is 0.  ``WeightedShift(phi=..., L=...)``
    takes any vectorized convex exponent; the closed forms below fix phi
    and take their declared ``keys`` positionally.  Every parameter, and
    a cutoff, must be finite and positive.
    """

    kind = "weighted-shift"
    keys = ()
    growth_rate = 0.0
    L = math.inf
    phi = None

    def __init__(self, *values, phi=None, L=None):
        if self.phi is None:
            if phi is None or values:
                raise TypeError("WeightedShift takes phi= and an optional cutoff L=")
            self.phi = phi
            if L is not None:
                self.keys, values = ("L",), (L,)
        elif len(values) != len(self.keys) or phi is not None or L is not None:
            raise TypeError(f"{type(self).__name__} takes the parameters {self.keys}")
        for key, v in zip(self.keys, values):
            if not (float(v) > 0 and math.isfinite(v)):
                raise InvalidModel(f"{self.kind} requires {key} > 0, got {v}")
            setattr(self, key, float(v))
        if math.isfinite(self.L):
            self.extinction_time = self.L

    def _log_norms(self, ts):
        ts = np.asarray(ts, dtype=float)
        # np.where costs several times the closed forms themselves: only a cutoff needs it
        log = -self.phi(ts)
        return log if self.extinction_time is None else np.where(ts < self.L, log, -np.inf)

    def spec_string(self):
        return " ".join([self.kind] + [f"{k}={_csv_number(getattr(self, k))}" for k in self.keys])


class ScalarDecay(WeightedShift):
    """Pure exponential decay exp(-nu*t), phi = nu*t: stable with index nu."""

    kind, keys = "scalar-decay", ("nu",)

    def phi(self, ts):
        return self.nu * ts


class GaussianShift(WeightedShift):
    """phi = t^2/4: superstable, the norm beating every exponential, yet never extinct."""

    kind = "gaussian-shift"

    def phi(self, ts):
        return ts * ts / 4.0


class NilpotentShift(WeightedShift):
    """phi = 0 on L2[0, L]: the norm jumps from 1 to 0 at the extinction time L."""

    kind, keys = "nilpotent-shift", ("L",)

    def phi(self, ts):
        return np.zeros_like(ts)


class DampedNilpotent(WeightedShift):
    """phi = nu*t on L2[0, L]: below 1 on (0, L), so every criterion's integrand is finite there."""

    kind, keys = "damped-nilpotent", ("nu", "L")
    phi = ScalarDecay.phi


class MatrixSemigroup(SemigroupModel):
    """Finite-dimensional semigroup exp(t*A) for a square generator A.

    One route at every time gives the log norm, the spectral shift
    s*t + log ||exp(t*(A - s*I))|| with s = ``abscissa`` = max Re eig(A)
    (Moler and Van Loan, SIAM Rev. 45, 2003), and the norm is its exp by
    construction.  The log stays finite long after the norm underflows.
    Shifting before scaling and squaring cuts the norm that sets the number
    of squarings (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  A 2x2
    generator takes closed forms for the exponential and the norm, with no
    squaring, and the shift leaves the slow mode of a stiff diag(-1e17, -1)
    exactly 0, so it reads exactly exp(-t).  A larger generator's shifted
    Taylor terms are computed once, here, and each batch evaluates its
    polynomial at every time before the squarings
    (:class:`~.numerics.TaylorExponential`).  Each batch is one stacked
    exponential and one stacked norm, and a single time a batch of one, so
    each value is a pure function of its own t, the same bits in any query
    order, and models and trajectories may be shared across threads.  The
    growth rate evaluates no norm: by the
    Lumer-Phillips theorem (Pazy, *Semigroups of Linear Operators*, 1983,
    section 1.4) ||exp(s*A)|| <= exp(omega*s) with omega the top eigenvalue
    of (A + A^T)/2, so ||T(t+s)|| <= exp(omega*s) ||T(t)||, and the norm
    never rises exactly when omega <= 0.  As the bound is a theorem, a
    computed norm above it is a kernel error: :class:`NumericsFailure`.
    """

    kind = "matrix"
    eval_error_bound = 1e-9

    def __init__(self, a):
        self.a = _as_square_matrix(a)
        omega = 0.5 * float(np.linalg.eigvalsh(self.a + self.a.T)[-1])
        # within 1e-12 * max(1, max |a_ij|) above 0 is a rounded 0, as for A + A^T = 0
        tol = _LUMER_PHILLIPS_TOL * max(1.0, float(np.abs(self.a).max()))
        self.growth_rate = min(omega, 0.0) if 2.0 * omega <= tol else omega
        #: The spectral abscissa max Re eig(A): the route's shift s, and
        #: log of the spectral radius of exp(A).
        self.abscissa = float(_eigenvalues(self.a).real.max())
        self._shifted = self.a - self.abscissa * np.eye(len(self.a))
        # from 3x3 up, the shifted generator's Taylor terms, computed once
        self._taylor = TaylorExponential(self._shifted) if len(self.a) >= 3 else None

    def _shifted_logs(self, ts, reduce, may_vanish=False):
        """s*t + log reduce(exp(t*(A - s*I))) on an array of times, checked once.

        ``reduce`` maps a stack of shifted exponentials to their norms.  A
        log that is not finite, as when t amplifies the error of s on a
        defective generator, raises :class:`NumericsFailure` naming the
        time and s; so does a log above log(1e-280) and above the bound
        omega*t + log1p(eval_error_bound), as when scaling and squaring
        beside a stiff mode rounds a non-normal slow block's decay away.
        With ``may_vanish``, as for an orbit in a mode faster than s, a
        reduced norm may underflow to 0.  It is then below n subnormal units
        n*2^-1074, so the true norm is below NORM_FLOOR, and its log is
        -inf, wherever s*t <= log(NORM_FLOOR / (n*2^-1074)), about 53 nats;
        past that limit 0 proves nothing and raises as above.
        """
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        norms = np.empty(flat.size)
        for lo in range(0, flat.size, _CHUNK):
            chunk = flat[lo:lo + _CHUNK]
            norms[lo:lo + _CHUNK] = reduce(_expm(self._shifted * chunk[:, None, None])
                                           if self._taylor is None else self._taylor(chunk))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self.abscissa * flat + np.log(norms)
            bound = self.growth_rate * flat + math.log1p(self.eval_error_bound)
        bad = ~np.isfinite(out)
        if may_vanish:
            limit = math.log(NORM_FLOOR / len(self.a)) + 1074 * math.log(2.0)
            bad &= (norms != 0.0) | (self.abscissa * flat > limit)
        if bad.any():
            raise NumericsFailure(f"log ||exp(t*A)|| is not finite at t = {flat[bad][0]:g}, "
                                  f"shift s = {self.abscissa!r}")
        over = (out > _LOG_DEEP) & (out > bound)
        if over.any():
            raise NumericsFailure(f"a computed norm of exp(t*A) exceeds its Lumer-Phillips bound "
                                  f"exp({self.growth_rate!r}*t) at t = {flat[over].min():g}")
        return out.reshape(ts.shape)

    def _log_norms(self, ts):
        return self._shifted_logs(ts, operator_norms_batch)

    def vector_trajectory(self, x):
        """Norm curve t -> ||exp(t*A) x|| = exp(s*t) ||exp(t*(A - s*I)) x|| for a unit vector x.

        Its log curve is read and checked through the semigroup's route.
        ||T(t+s)x|| <= ||T(s)|| ||T(t)x||, so the semigroup's rate bounds
        the orbit.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.a.shape[0],):
            raise InvalidArgument(f"vector of length {self.a.shape[0]} required")
        if abs(float(np.linalg.norm(x)) - 1.0) > 1e-12:
            raise InvalidArgument("x must be a unit vector (within 1e-12)")

        def logs(ts):
            # hypot, unlike the sum of squares, does not underflow below 1e-154
            return self._shifted_logs(ts, lambda e: np.hypot.reduce(e @ x, axis=1),
                                      may_vanish=True)

        return NormTrajectory(
            log_evaluate_many=logs, growth_rate=self.growth_rate,
            eval_error_bound=self.eval_error_bound, label=f"{self.spec_string()} |x orbit",
        )

    def spec_string(self):
        # + 0.0 turns -0.0 into 0.0: the parser reads "-0" as the integer 0
        rows = ",".join("[" + ",".join(map(_csv_number, row + 0.0)) + "]" for row in self.a)
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
    of times, with no warm start (:func:`operator_norms_lanczos`).  Each
    kernel is handed over times a power of two that puts its largest entry
    in [1/2, 1): the norm decays like 1/Gamma(t+1), so from t ~ 70-100
    (n = 400-16) the unscaled kernels hold subnormal entries, on which BLAS
    runs several times slower.  The scaling is exact and the norm is divided
    by the same power of two, so each norm has the bits of Lanczos on
    exactly the matrix :meth:`kernel_matrix` returns, within about 1e-14
    relative of its operator norm.  It is a pure function of t: the same
    bits on the batch and the point path in any query order.  A single time
    is a batch of one.  The log of a norm at or below NORM_FLOOR reads
    -inf.  The reference curve 1/(t*Gamma(t)) is available as
    :func:`fractional_reference`.
    """

    kind = "fractional-integration"

    def __init__(self, n=400):
        if not (float(n).is_integer() and n >= 16):
            raise InvalidModel(f"fractional-integration requires an integer n >= 16, got {n}")
        self.n = n = int(n)
        self.eval_error_bound = 4.0 / n
        # log distance from a cell midpoint to the left edge of the cell m
        # cells back
        self._log_col = np.log((np.arange(n) + 0.5) / n)

    @staticmethod
    def _gamma(t):
        """Gamma(t+1), the kernel's denominator; inf where the kernel is zero."""
        return math.gamma(t + 1.0) if t + 1.0 <= 171.0 else math.inf

    def _kernels(self, ts, denom):
        """Unit-peak operators at the times ts, with denominators Gamma(t+1), and their scales.

        Returns a C-contiguous stack and one power of two c per time: the
        operator times c, whose largest entry lies in [1/2, 1) (c = 1 for a
        zero operator), so the operator is exactly the stack entry over c.
        t = 0 gives exactly the identity and an infinite denominator exactly 0.
        """
        n = self.n
        col = np.exp(ts[:, None] * self._log_col)
        # g[m] = col[m] - col[m-1] (col[-1] = 0) is the entry at lag m.  p
        # holds g reversed, then n - 1 zeros, so row i of the matrix is
        # p[n-1-i : 2n-1-i]: a strided view, copied once into the stack.
        p = np.zeros((ts.size, 2 * n - 1))
        p[:, n - 1] = col[:, 0]
        np.subtract(col[:, :0:-1], col[:, -2::-1], out=p[:, :n - 1])
        p[:, :n] /= denom[:, None]
        # every g[m] is an entry of the matrix, so p's peak is the matrix's;
        # scaling it to [1/2, 1) on this row costs O(n) and is exact
        scale = _inverse_scale(p[:, :n].max(axis=1))
        p[:, :n] *= scale[:, None]
        step, item = p.strides
        rows = np.lib.stride_tricks.as_strided(p[:, n - 1:], (ts.size, n, n), (step, -item, item))
        return rows.copy(), scale

    def kernel_matrix(self, t):
        """The discretized operator at order t (lower triangular, n x n)."""
        t = _check_time(t)
        k, scale = self._kernels(np.array([t]), np.array([self._gamma(t)]))
        return k[0] / scale[0]

    def _log_norms(self, ts):
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        norms = np.where(flat == 0.0, 1.0, 0.0)
        denom = np.array([self._gamma(t) for t in flat])
        live = np.flatnonzero((flat > 0.0) & np.isfinite(denom))
        chunk = max(1, _STACK_BYTES // (8 * self.n * self.n))
        for lo in range(0, live.size, chunk):
            idx = live[lo:lo + chunk]
            k, scale = self._kernels(flat[idx], denom[idx])
            norms[idx] = operator_norms_lanczos(k) / scale
            # only one stack may be live at a time: one built while the last
            # is still held lands on fresh pages, which made norms below
            # t = 90 some 10-20 % slower at n = 80
            del k
        with np.errstate(divide="ignore"):
            return np.log(np.where(norms > NORM_FLOOR, norms, 0.0)).reshape(ts.shape)

    @cached_property
    def growth_rate(self):
        """0 if the norm, sampled on a diagnostic grid up to t = 8, never rises; else +inf.

        The sample runs on first use, so building the model or a kernel
        evaluates no norm.  The grid mixes a linear sweep with a geometric
        prefix so that fast transient growth near t=0 is not stepped over.
        Duplicates are dropped after a sort rather than by ``np.unique``,
        which imports ``numpy.ma``.
        """
        grid = np.sort(np.concatenate([np.linspace(0.0, 8.0, 161), np.geomspace(5e-3, 1.0, 25)]))
        grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
        vals = self.norm_at_many(grid)
        nonincreasing = bool(np.all(vals[1:] <= vals[:-1] * (1.0 + _SAMPLE_TOL)))
        return 0.0 if nonincreasing and vals[0] <= 1.0 + _SAMPLE_TOL else math.inf

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

_CLOSED_FORMS = {cls.kind: cls for cls in (ScalarDecay, GaussianShift, NilpotentShift, DampedNilpotent)}
_KINDS = (*_CLOSED_FORMS, "fractional-integration", "matrix")


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

    def take(key):
        if key not in params:
            raise SpecError(f"{kind} requires {key}=", kind_pos)
        return params.pop(key)[0]

    try:
        if kind in _CLOSED_FORMS:
            cls = _CLOSED_FORMS[kind]
            model = cls(*(take(key) for key in cls.keys))
        else:
            n, pos = params.pop("n", (400, kind_pos))
            if not float(n).is_integer():
                raise SpecError(f"n must be an integer, got {n:g}", pos)
            model = FractionalIntegration(n)
    except InvalidModel as exc:
        raise SpecError(str(exc), kind_pos) from None
    if params:
        key = next(iter(params))
        raise SpecError(f"unknown parameter {key!r} for {kind}", params[key][1])
    return model
