"""Independent reference computations for tests and demos.

Nothing here shares code paths with the bisection/scan machinery: entry
times come from closed forms, and growth rates come from reading the
diagonal of a triangular generator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument
from .entrytime import EntryTime, EntryTimeTable, STATUS_EXACT


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
