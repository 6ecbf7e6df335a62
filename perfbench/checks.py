"""Independent checks of one analysis's JSON report and entry-time CSV.

Every reference here is computed apart from the program: closed forms with
``math``, 2x2 matrix norms from the closed-form largest singular value,
4x4 norms from ``scipy.linalg.expm`` plus numpy SVD, and fractional
integration norms from numpy SVD of the discretized operator together with
two theorems it must satisfy.  Nothing is compared against a stored copy of
earlier output.

``check(kind, params, report_text, csv_text)`` returns a list of problems;
an empty list means the analysis passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

RMAX = 40                      # CLI default
TIME_TOL = 1e-8                # CLI default bisection width
GRID_STEP = 1e-3               # CLI default scan resolution
DIVERGENCE_THRESHOLD = 1e12    # documented: larger integrals are reported divergent
A_SHIFT = 1e-6                 # criteria integrate from t_0 + 1e-6

T_ABS = 1e-7                   # entry times: 10x the bisection width
REL = 1e-6                     # rates, integrals and norms at a crossing
CRITERIA = (("i", (1.0, 2.0)), ("ii", (1.5, 2.0)), ("iii", (1.0,)))
P_TRACE = tuple(2.0 ** -j for j in range(1, 11))

STABLE, SUPER, EXTINCT, UNSTABLE = "stable", "superstable", "finite-time-extinction", "unstable"


def parse_csv(text):
    """Rows of the entry CSV as (r, t_r, u_r or None, status)."""
    lines = text.strip().split("\n")
    if lines[0] != "r,t_r,u_r,status":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        r, t, u, status = line.split(",")
        rows.append((int(r), float(t), float(u) if u else None, status))
    return rows


def format_number(x):
    """The CSV's number format: 12 significant digits, infinities as inf/-inf."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _close(x, ref, rel=REL, abs_tol=0.0):
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= max(rel * abs(ref), abs_tol)


class _Problems(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)


def _common(report, rows, p):
    cfg = report["config"]
    p.expect(cfg["grid_step"] == GRID_STEP and cfg["time_tol"] == TIME_TOL
             and cfg["rmax"] == RMAX, "config does not echo the CLI defaults")
    p.expect(len(rows) == RMAX + 2, f"expected {RMAX + 2} CSV rows, got {len(rows)}")
    p.expect([r for r, *_ in rows] == list(range(len(rows))), "CSV rows out of order")
    for r, t, u, _ in rows[:-1]:
        nxt = rows[r + 1][1]
        ref = math.inf if math.isinf(nxt) else nxt - t
        # both columns carry 12 significant digits
        p.expect(u is not None and _close(u, ref, rel=1e-9, abs_tol=1e-10),
                 f"u_{r}={u} is not t_{r + 1}-t_{r}={ref}")


def _entry_times(rows, reference, p, label):
    for r, t, _, _ in rows:
        ref = reference(r)
        p.expect(_close(t, ref, rel=0.0, abs_tol=T_ABS), f"{label}: t_{r}={t!r}, expected {ref!r}")


def _classification(report, p, verdict, nu=None, k=None):
    c = report["classification"]
    p.expect(c["verdict"] == verdict, f"verdict {c['verdict']!r}, expected {verdict!r}")
    if nu is None:
        p.expect(c["nu"] is None, f"nu={c['nu']} reported for a {verdict} curve")
    else:
        p.expect(c["nu"] is not None and _close(c["nu"], nu), f"nu={c['nu']}, expected {nu}")
    if k is None:
        p.expect(c["k"] is None, f"k={c['k']} reported for a {verdict} curve")
    else:
        p.expect(c["k"] is not None and _close(c["k"], k, rel=0.0, abs_tol=T_ABS),
                 f"k={c['k']}, expected {k}")


def _criteria(report, p, integral):
    """Compare every criterion entry with ``integral(weight, p)``.

    ``integral`` returns the closed-form value (inf when divergent) or the
    string "inapplicable".  Values above the documented threshold are
    reported divergent by design.  Criteria (i)-(iii) stop at their first
    convergent p; (iv) runs the whole p trace.
    """
    def expected_kind(weight, q):
        ref = integral(weight, q)
        if ref == "inapplicable":
            return ref, None
        if math.isinf(ref) or ref > DIVERGENCE_THRESHOLD:
            return "divergent", None
        return "value", ref

    expected = []
    for crit, ps in CRITERIA:
        weight = "norm-power" if crit == "i" else "inverse-log-power"
        for q in ps:
            expected.append((crit, q) + expected_kind(weight, q))
            if expected[-1][2] == "value":
                break
    expected += [("iv", q) + expected_kind("inverse-log-power", q) for q in P_TRACE]
    entries = report["pazy"]["criteria"]
    got = [(e["criterion"], e["p"]) for e in entries]
    p.expect(got == [x[:2] for x in expected], f"criteria entries {got} do not follow the p order")
    for e, (crit, q, kind, ref) in zip(entries, expected):
        tag = f"criterion {crit} p={q:g}"
        p.expect(e["kind"] == kind, f"{tag}: kind {e['kind']!r}, expected {kind!r}")
        if kind == "value" and e["kind"] == "value":
            p.expect(_close(e["value"], ref, abs_tol=1e-9), f"{tag}: {e['value']!r}, expected {ref!r}")
    fired = [crit for crit, _ in CRITERIA if any(x[0] == crit and x[2] == "value" for x in expected)]
    if all(x[2] == "value" for x in expected if x[0] == "iv"):
        fired.append("iv")
    p.expect(report["pazy"]["fired"] == fired, f"fired {report['pazy']['fired']}, expected {fired}")


def _power_integral(lo, hi, q):
    """int_lo^hi t^-q dt, inf when it diverges."""
    if math.isinf(hi):
        return lo ** (1.0 - q) / (q - 1.0) if q > 1.0 else math.inf
    if q == 1.0:
        return math.log(hi) - math.log(lo)
    return (hi ** (1.0 - q) - lo ** (1.0 - q)) / (1.0 - q)


# ---------------------------------------------------------------------------
# closed-form gallery


def check_closed(kind, params, report, rows):
    p = _Problems()
    _common(report, rows, p)
    t0 = rows[0][1]
    p.expect(t0 == 0.0, f"t_0={t0}, expected 0 for a contraction starting at norm 1")
    a = t0 + A_SHIFT
    p.expect(_close(report["pazy"]["a"], a), f"criteria start at {report['pazy']['a']}, expected {a}")
    if kind == "scalar-decay":
        nu = params["nu"]
        _entry_times(rows, lambda r: r / nu, p, kind)
        _classification(report, p, STABLE, nu=nu)

        def integral(weight, q):
            if weight == "norm-power":
                return math.exp(-q * nu * a) / (q * nu)
            return nu ** -q * _power_integral(a, math.inf, q)
    elif kind == "gaussian-shift":
        _entry_times(rows, lambda r: 2.0 * math.sqrt(r), p, kind)
        _classification(report, p, SUPER)

        def integral(weight, q):
            if weight == "norm-power":
                return math.sqrt(math.pi / q) * math.erfc(a * math.sqrt(q) / 2.0)
            return 4.0 ** q * _power_integral(a, math.inf, 2.0 * q)
    elif kind == "nilpotent-shift":
        length = params["L"]
        _entry_times(rows, lambda r: 0.0 if r == 0 else length, p, kind)
        _classification(report, p, EXTINCT, k=length)

        def integral(weight, q):
            # the norm is 1 up to L: reciprocal-log weights are infinite there
            return length - a if weight == "norm-power" else "inapplicable"
    elif kind == "damped-nilpotent":
        nu, length = params["nu"], params["L"]
        _entry_times(rows, lambda r: min(r / nu, length), p, kind)
        _classification(report, p, EXTINCT, k=length)

        def integral(weight, q):
            if weight == "norm-power":
                return (math.exp(-q * nu * a) - math.exp(-q * nu * length)) / (q * nu)
            return nu ** -q * _power_integral(a, length, q)
    else:
        raise ValueError(f"not a closed-form kind: {kind}")
    _criteria(report, p, integral)
    return p


# ---------------------------------------------------------------------------
# matrix generators


def _norm_2x2(a, ts):
    """||exp(tA)|| for upper-triangular 2x2 A, closed form, vectorized in t."""
    (x, b), (_, d) = a
    ts = np.asarray(ts, dtype=float)
    ex, ed = np.exp(x * ts), np.exp(d * ts)
    q = b * ts * ex if x == d else b * (ex - ed) / (x - d)
    # largest singular value of [[ex, q], [0, ed]]
    s = ex * ex + q * q + ed * ed
    det = ex * ed
    return np.sqrt(0.5 * (s + np.sqrt(np.maximum(s * s - 4.0 * det * det, 0.0))))


def _reference_entry_times_2x2(a, rmax):
    """Final entry times from the closed-form norm: grid scan, then bisection."""
    alpha = max(a[0][0], a[1][1])
    b = abs(a[0][1])
    # ||exp(tA)|| <= e^(alpha t) sqrt(2 + b^2 t^2), decreasing for t > 1/|alpha|
    t_end = 1.0 / -alpha
    floor = math.exp(-(rmax + 1))
    while math.exp(alpha * t_end) * math.sqrt(2.0 + (b * t_end) ** 2) >= floor:
        t_end += 1.0
    ts = np.arange(0, int(t_end / GRID_STEP) + 2) * GRID_STEP
    vals = _norm_2x2(a, ts)
    out = []
    for r in range(rmax + 2):
        thr = math.exp(-r)
        above = np.flatnonzero(vals >= thr)
        if above.size == 0:
            out.append(0.0)
            continue
        lo, hi = float(ts[above[-1]]), float(ts[above[-1] + 1])
        while hi - lo > 1e-13 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if float(_norm_2x2(a, [mid])[0]) >= thr:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return out


def _svd_norms(a, ts):
    from scipy.linalg import expm

    mats = expm(np.asarray(ts, dtype=float)[:, None, None] * np.asarray(a)[None, :, :])
    return np.linalg.norm(mats, 2, axis=(1, 2))


def check_matrix(params, report, rows):
    p = _Problems()
    _common(report, rows, p)
    a = params["a"]
    n = len(a)
    alpha = max(a[i][i] for i in range(n))
    if alpha >= 0.0:
        _classification(report, p, UNSTABLE)
        for r, t, u, status in rows:
            p.expect(math.isinf(t) and status == "horizon", f"t_{r}={t} ({status}), expected inf/horizon")
            p.expect(u is None or math.isinf(u), f"u_{r}={u}, expected inf")
        return p
    # finite-dimensional semigroups are never superstable: stable, 0 < nu <= |alpha|
    c = report["classification"]
    p.expect(c["verdict"] == STABLE, f"verdict {c['verdict']!r}, expected stable")
    nu = c["nu"]
    p.expect(nu is not None and 0.0 < nu <= -alpha * (1.0 + REL), f"nu={nu} not in (0, {-alpha}]")
    if n == 2:
        ref = _reference_entry_times_2x2(a, RMAX)
        _entry_times(rows, lambda r: ref[r], p, "2x2 closed form")
        return p
    # larger generators: the definition of final entry on a dense grid
    ts_rep = np.array([t for _, t, _, _ in rows])
    t_end = float(ts_rep[-1]) + 16.0
    grid = np.arange(0, int(t_end / 1e-2) + 1) * 1e-2
    grid_norms = _svd_norms(a, grid)
    at_t = _svd_norms(a, ts_rep)
    for r, t, _, _ in rows:
        thr = math.exp(-r)
        if r == 0 and t == 0.0:
            p.expect(grid_norms.max() <= 1.0 + REL, "t_0=0 but the norm exceeds 1")
            continue
        p.expect(_close(float(at_t[r]), thr), f"||T(t_{r})||={float(at_t[r])!r}, expected e^-{r}")
        later = grid_norms[grid > t + 1e-6]
        p.expect(later.size == 0 or later.max() <= thr * (1.0 + REL),
                 f"norm returns above e^-{r} after t_{r}={t}")
    return p


# ---------------------------------------------------------------------------
# fractional integration


def check_fractional(params, report, rows, kernel_matrix):
    """``kernel_matrix(t)`` is the discretized operator of the analysed model."""
    p = _Problems()
    _common(report, rows, p)
    n = params["n"]
    c = report["classification"]
    p.expect(c["verdict"] == SUPER, f"verdict {c['verdict']!r}, expected superstable")
    fired = report["pazy"]["fired"]
    p.expect("iii" in fired and "iv" not in fired, f"fired {fired}: expected iii and not iv")
    us = [u for _, _, u, _ in rows[:-1]]
    slack = 1e-6
    for r in range(len(us) - 1):
        p.expect(us[r + 1] <= us[r] + slack, f"u_{r + 1}={us[r + 1]} > u_{r}={us[r]}")

    def svd(t):
        return float(np.linalg.norm(kernel_matrix(t), 2))

    def young(t):
        return (1.0 + 4.0 / n) / math.gamma(t + 1.0)

    for r, t, _, _ in rows:
        norm = svd(t)
        p.expect(_close(norm, math.exp(-r)), f"||T(t_{r})||={norm!r}, expected e^-{r}")
        p.expect(norm <= young(t), f"||T({t})||={norm} exceeds Young's bound {young(t)}")
    for t in (0.25, 0.5, 2.0, 4.0, 8.0):
        p.expect(svd(t) <= young(t), f"||T({t})|| exceeds Young's bound")
    volterra = svd(1.0)
    p.expect(abs(volterra - 2.0 / math.pi) <= 4.0 / n,
             f"||T(1)||={volterra}, Volterra norm 2/pi is {2.0 / math.pi}")
    return p


def check(kind, params, report_text, csv_text, kernel_matrix=None):
    """Problems found in one analysis's outputs (empty when it passes)."""
    try:
        report = json.loads(report_text)
        rows = parse_csv(csv_text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    try:
        if kind == "matrix":
            return check_matrix(params, report, rows)
        if kind == "fractional-integration":
            return check_fractional(params, report, rows, kernel_matrix)
        return check_closed(kind, params, report, rows)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
