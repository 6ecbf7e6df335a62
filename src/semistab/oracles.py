"""Independent brute-force reference computations for tests.

Nothing here shares code paths with the bisection/scan machinery: entry
times come from closed forms or literal grid scans, and growth rates come
from reading the diagonal of a triangular generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .entrytime import EntryTime, EntryTimeTable, STATUS_EXACT

CLOSED_FORM = "closed-form"
DENSE_GRID = "dense-grid"
EIGEN_TRIANGULAR = "eigen-triangular"


@dataclass(frozen=True)
class OracleResult:
    quantity: str
    value: float
    method: str
    resolution: float | None = None


def closed_form_entry_times(model, r_max):
    """Exact entry-time table for the analytic model kinds."""
    r_max = int(r_max)
    if r_max < 1:
        raise InvalidArgument("r_max must be at least 1")
    kind = getattr(model, "kind", None)
    if kind == "scalar-decay":
        t = [r / model.nu for r in range(r_max + 2)]
    elif kind == "gaussian-shift":
        t = [2.0 * math.sqrt(r) for r in range(r_max + 2)]
    elif kind == "nilpotent-shift":
        t = [0.0] + [model.L] * (r_max + 1)
    elif kind == "damped-nilpotent":
        t = [min(r / model.nu, model.L) for r in range(r_max + 2)]
    else:
        raise InvalidArgument(f"no closed form for model kind {kind!r}")
    u = [t[r + 1] - t[r] for r in range(r_max + 1)]
    statuses = tuple(EntryTime(x, STATUS_EXACT, 0.0) for x in t)
    return EntryTimeTable(r_max=r_max, t=tuple(t), u=tuple(u), statuses=statuses,
                          time_tol=0.0, label=f"closed-form {kind}")


def dense_grid_entry_time(traj, r, step, horizon=64.0):
    """Literal entry-time definition on a grid.

    The smallest grid point from which every later sample up to the horizon
    stays at or below exp(-r); +inf when even the horizon sample is above.
    """
    if step <= 0:
        raise InvalidArgument("step must be positive")
    threshold = math.exp(-float(r))
    ts = np.arange(0.0, horizon + step, step)
    vals = traj.evaluate_many(ts)
    above = vals > threshold
    if above[-1]:
        return OracleResult(f"t_{r}", math.inf, DENSE_GRID, step)
    idx = np.nonzero(above)[0]
    value = 0.0 if idx.size == 0 else float(ts[idx[-1] + 1])
    return OracleResult(f"t_{r}", value, DENSE_GRID, step)


def spectral_abscissa_triangular(a):
    """Largest diagonal entry of a triangular generator (its spectral bound)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument("generator must be a square matrix")
    lower = np.tril(m, -1)
    upper = np.triu(m, 1)
    if np.any(lower != 0.0) and np.any(upper != 0.0):
        raise InvalidArgument("generator must be upper or lower triangular")
    return float(np.max(np.diag(m)))
