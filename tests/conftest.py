"""Shared fixtures; the expensive tables are built once per session."""

import time

import numpy as np
import pytest

import semistab as ss

DEFAULT_CFG = ss.SearchConfig()
COARSE_CFG = ss.SearchConfig(grid_step=1e-2)
TH = ss.ClassifyThresholds()


class _Counting(ss.NormTrajectory):
    """``traj`` read through, with single and batch calls counted apart."""

    def __init__(self, traj, calls, is_contraction, growth_rate):
        super().__init__(traj.evaluate_many, is_contraction=is_contraction,
                         growth_rate=growth_rate)
        self._traj = traj
        self.calls = calls

    def evaluate(self, t):
        self.calls["evaluate"] += 1
        return self._traj.evaluate(t)

    def evaluate_many(self, ts):
        self.calls["evaluate_many"] += 1
        self.calls["points"] += np.size(ts)
        return self._traj.evaluate_many(ts)


def counting(traj, is_contraction=None, growth_rate=None):
    """The same curve, counting its calls.

    ``is_contraction`` and ``growth_rate`` override the curve's own flag
    and rate; ``growth_rate=math.inf`` takes away a matrix curve's bound,
    so its searches evaluate every lattice or grid point.  The counting
    curve has no exact log route, extinction time or error bound, so every
    norm it gives is one of the counted calls.
    """
    if is_contraction is None:
        is_contraction = traj.is_contraction
    if growth_rate is None:
        growth_rate = traj.growth_rate
    calls = {"evaluate": 0, "evaluate_many": 0, "points": 0}
    return _Counting(traj, calls, is_contraction, growth_rate), calls


@pytest.fixture(scope="session")
def gaussian():
    traj = ss.GaussianShift().trajectory()
    return traj, ss.entry_time_table(traj, 50)


@pytest.fixture(scope="session")
def scalar2():
    traj = ss.ScalarDecay(2.0).trajectory()
    return traj, ss.entry_time_table(traj, 40)


@pytest.fixture(scope="session")
def nilpotent():
    traj = ss.NilpotentShift(1.0).trajectory()
    return traj, ss.entry_time_table(traj, 20)


@pytest.fixture(scope="session")
def damped():
    traj = ss.DampedNilpotent(1.0, 1.0).trajectory()
    return traj, ss.entry_time_table(traj, 20)


@pytest.fixture(scope="session")
def matrix_j10():
    """Non-normal stable generator with strong transient growth."""
    model = ss.MatrixSemigroup(np.array([[-1.0, 10.0], [0.0, -1.0]]))
    traj = model.trajectory()
    table = ss.entry_time_table(traj, 60)
    return model, traj, table


@pytest.fixture(scope="session")
def matrix_nilpotent_gen():
    model = ss.MatrixSemigroup(np.array([[0.0, 1.0], [0.0, 0.0]]))
    traj = model.trajectory()
    table = ss.entry_time_table(traj, 20)
    return model, traj, table


def make_stable_triangular(rng):
    """Random 4x4 upper-triangular generator with well-separated decay rates."""
    while True:
        diag = -np.sort(rng.uniform(0.4, 2.0, size=4))[::-1]
        if np.min(np.abs(np.diff(diag))) >= 0.12:
            break
    return np.triu(rng.uniform(-1.0, 1.0, (4, 4)), k=1) + np.diag(diag)


@pytest.fixture(scope="session")
def random_stable_20():
    """20 seeded stable triangular generators with their entry tables."""
    rng = np.random.default_rng(20260810)
    out = []
    for _ in range(20):
        a = make_stable_triangular(rng)
        model = ss.MatrixSemigroup(a)
        traj = model.trajectory()
        table = ss.entry_time_table(traj, 48, COARSE_CFG)
        out.append((a, traj, table))
    return out


@pytest.fixture(scope="session")
def random_mixed_100():
    """100 seeded triangular generators, 60 stable and 40 unstable."""
    rng = np.random.default_rng(424242)
    out = []
    for i in range(100):
        if i % 5 < 3:
            diag = -rng.uniform(0.15, 2.0, size=4)
        else:
            diag = np.concatenate([rng.uniform(0.1, 0.5, size=1),
                                   -rng.uniform(0.2, 2.0, size=3)])
            rng.shuffle(diag)
        a = np.triu(rng.uniform(-1.0, 1.0, (4, 4)), k=1) + np.diag(diag)
        model = ss.MatrixSemigroup(a)
        table = ss.entry_time_table(model.trajectory(), 16, COARSE_CFG)
        out.append((a, table))
    return out


@pytest.fixture(scope="session")
def random_normal_100():
    """100 seeded normal triangular (diagonal) generators, mixed stability.

    For normal generators the norm curve is exactly exp(lambda_max * t), so
    the table's t_{r+1} - t_r differences coincide with the unit-ball
    relative entry times; this is the class where the nonincreasing-gaps law
    can be asserted at bisection precision (see the gap-growth test in
    test_entrytime for why general non-normal curves are excluded).
    """
    rng = np.random.default_rng(31337)
    out = []
    for i in range(100):
        # the separation once kept power iteration off clustered singular
        # values; exact SVD norms do not need it, and it stays so that the
        # seeded generators stay the same
        while True:
            diag = -np.sort(rng.uniform(0.15, 2.0, size=4))[::-1]
            if np.min(np.abs(np.diff(diag))) >= 0.25:
                break
        if i % 5 >= 3:
            diag[0] = rng.uniform(0.05, 0.5)
        a = np.diag(diag)
        model = ss.MatrixSemigroup(a)
        table = ss.entry_time_table(model.trajectory(), 16, COARSE_CFG)
        out.append((a, table))
    return out


@pytest.fixture(scope="session")
def fractional_64():
    """The smallest fractional-integration model the benchmark runs."""
    traj = ss.FractionalIntegration(64).trajectory()
    return traj, ss.entry_time_table(traj, 20)


@pytest.fixture(scope="session")
def fractional_400():
    """Discretized fractional-integration model with its table and build time."""
    start = time.monotonic()
    model = ss.FractionalIntegration(400)
    traj = model.trajectory()
    table = ss.entry_time_table(traj, 20)
    verdict = ss.classify(table, TH)
    elapsed = time.monotonic() - start
    return model, traj, table, verdict, elapsed
