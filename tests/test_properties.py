"""Properties of matrix norm evaluation: a pure function of t.

Every value must be the same bits whichever path computed it (a batch of
lattice points or a single point), whatever was queried before, and in
whichever thread.
"""

import sys
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

import semistab as ss

GRID_STEP = ss.SearchConfig().grid_step
J10 = np.array([[-1.0, 10.0], [0.0, -1.0]])


@st.composite
def stable_generators(draw):
    """Upper-triangular generators with negative diagonal, often non-normal."""
    n = draw(st.integers(2, 4))
    diag = draw(st.lists(st.floats(-3.0, -0.1), min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(-12.0, 12.0), min_size=n * n, max_size=n * n))
    return np.triu(np.reshape(upper, (n, n)), k=1) + np.diag(diag)


@settings(max_examples=30, deadline=None)
@given(a=stable_generators(), k0=st.integers(0, 40000), size=st.integers(1, 64))
@example(a=J10, k0=16500, size=64)
def test_lattice_slice_matches_points_bitwise(a, k0, size):
    # slices past k = 16000 are where a spacing inferred from ts[1] - ts[0]
    # stops matching the lattice
    traj = ss.MatrixSemigroup(a).trajectory()
    ts = np.arange(k0, k0 + size, dtype=float) * GRID_STEP
    points = np.array([traj.evaluate(t) for t in ts])
    assert np.array_equal(traj.evaluate_many(ts), points)


@settings(max_examples=30, deadline=None)
@given(a=stable_generators())
@example(a=J10)
def test_norm_is_independent_of_query_order(a):
    model = ss.MatrixSemigroup(a)
    before = model.norm_at(0.7)
    model.norm_at(30.0)
    model.norm_at_many(np.arange(100) * 0.31)
    assert model.norm_at(0.7) == before


def test_concurrent_readers_get_single_thread_values():
    slices = [np.arange(k0, k0 + 300, dtype=float) * GRID_STEP
              for k0 in (0, 15900, 17000, 39000)]
    reference = ss.MatrixSemigroup(J10)
    expected = [reference.norm_at_many(ts) for ts in slices]
    shared = ss.MatrixSemigroup(J10)  # its trajectory is built lazily by the readers
    results = [None] * len(slices)

    def read(i):
        traj = shared.trajectory()
        out = []
        for _ in range(4):
            out.append(traj.evaluate_many(slices[i]))
            out.append(np.array([traj.evaluate(t) for t in slices[i][::15]]))
        results[i] = out

    threads = [threading.Thread(target=read, args=(i,)) for i in range(len(slices))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, out in enumerate(results):
        assert out is not None
        for j, got in enumerate(out):
            assert np.array_equal(got, expected[i] if j % 2 == 0 else expected[i][::15])
