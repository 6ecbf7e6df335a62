"""Seeded model galleries for the three benchmark workloads.

Each workload is a list of ``Case`` records: the spec string handed to
``semistab analyze`` plus the parameters the independent checks need.  The
program only ever sees the spec string.  One pass over a gallery is a
*round*; a run repeats whole rounds.

Parameter ranges are narrow on purpose: the seed changes the inputs, but the
work per round stays nearly the same from seed to seed, so that the spread
between runs measures the program and the machine rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("closed-gallery", "matrix-transient", "fractional")

#: Untimed warm-up analysis before timing starts: small, so that set-up time
#: is dominated by interpreter start, imports and input generation.
WARMUP_SPEC = "scalar-decay nu=1"


@dataclass(frozen=True)
class Case:
    kind: str
    spec: str
    params: dict = field(default_factory=dict)


def _num(x):
    """Round to 4 significant digits and return the value the spec parser reads."""
    text = f"{x:.4g}"
    return text, float(text)


def _closed(rng):
    # measured cost clusters on a 2-core VM: nilpotent-shift ~3 ms,
    # damped-nilpotent ~10 ms, scalar-decay and gaussian-shift ~12 ms.  The
    # mix puts the median inside the largest cluster.
    cases = []
    for _ in range(48):
        s, nu = _num(rng.uniform(0.5, 20.0))  # far inside 1/eps_super = 100
        cases.append(Case("scalar-decay", f"scalar-decay nu={s}", {"nu": nu}))
    for _ in range(32):
        cases.append(Case("gaussian-shift", "gaussian-shift"))
    for _ in range(16):
        s, length = _num(rng.uniform(0.5, 4.0))
        cases.append(Case("nilpotent-shift", f"nilpotent-shift L={s}", {"L": length}))
    for _ in range(24):
        # nu*L <= 16 keeps the cutoff inside the first half of the table, so
        # the tail sum is exactly zero and the verdict is extinction
        s_nu, nu = _num(rng.uniform(0.5, 4.0))
        s_l, length = _num(rng.uniform(0.5, 4.0))
        cases.append(Case("damped-nilpotent", f"damped-nilpotent nu={s_nu} L={s_l}",
                          {"nu": nu, "L": length}))
    return cases


def _matrix_spec(rows):
    return "matrix [" + ",".join("[" + ",".join(rows_i) + "]" for rows_i in rows) + "]"


def _triangular(rng, size, super_lo, super_hi):
    """Upper-bidiagonal stable generator with diagonal near -6.

    Superdiagonals above twice the decay rate make the symmetric part
    indefinite, so the norm rises above 1 before it decays and the entry
    times come from the lattice scan rather than bisection.  Every such
    analysis scans windows reaching past t = 16, where the lattice check
    fails and evaluation falls back to single points (about 40k of them).
    """
    diag = [_num(rng.uniform(-6.1, -5.9)) for _ in range(size)]
    sup = [_num(rng.uniform(super_lo, super_hi)) for _ in range(size - 1)]
    rows, a = [], [[0.0] * size for _ in range(size)]
    for i in range(size):
        row = []
        for j in range(size):
            if j == i:
                text, val = diag[i]
            elif j == i + 1:
                text, val = sup[i]
            else:
                text, val = "0", 0.0
            row.append(text)
            a[i][j] = val
        rows.append(row)
    return rows, a


def _matrix(rng):
    # three generators per round: each transient analysis takes 4-8 s, and a
    # 30 s run must hold at least two rounds for best-of-rounds timing.  The
    # median analysis is the cheaper of the two transients.
    cases = []
    # 2x2 Jordan-type block (equal diagonal)
    rows, a = _triangular(rng, 2, 13.0, 15.0)
    rows[1][1], a[1][1] = rows[0][0], a[0][0]
    cases.append(Case("matrix", _matrix_spec(rows), {"a": a}))
    # 4x4 bidiagonal generator with distinct diagonal entries
    rows, a = _triangular(rng, 4, 10.0, 12.0)
    cases.append(Case("matrix", _matrix_spec(rows), {"a": a}))
    # unstable minority: the nilpotent Jordan block, whose norm grows like t
    cases.append(Case("matrix", "matrix [[0,1],[0,0]]", {"a": [[0.0, 1.0], [0.0, 0.0]]}))
    return cases


def _fractional(rng):
    # three cell counts; the middle one is fixed so the median analysis is
    # the same size on every seed, and the outer two move in opposite
    # directions so the round's total work barely depends on the seed.  A
    # round takes 8-11 s here, so a 30 s run holds three rounds whether the
    # machine is in a fast or a slow spell (best-of-3 on every run).
    k = rng.randint(0, 4)
    sizes = (64 + k, 80, 96 - k)
    return [Case("fractional-integration", f"fractional-integration n={n}", {"n": n})
            for n in sizes]


def build(workload, seed):
    """The gallery of ``workload`` for ``seed``, in the seeded order."""
    rng = random.Random(f"{workload}:{int(seed)}")
    if workload == "closed-gallery":
        cases = _closed(rng)
    elif workload == "matrix-transient":
        cases = _matrix(rng)
    elif workload == "fractional":
        cases = _fractional(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
