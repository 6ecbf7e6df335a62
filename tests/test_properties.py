"""Properties of norm evaluation: a pure function of t.

Every matrix or fractional-integration norm must be the same bits whichever
path computed it (a batch of points or a single point), whatever was
queried before, and in whichever thread.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semistab as ss

GRID_STEP = ss.SearchConfig().grid_step
J10 = np.array([[-1.0, 10.0], [0.0, -1.0]])
FRACTIONAL_NS = (16, 64)


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


@pytest.mark.parametrize("n", FRACTIONAL_NS)
@settings(max_examples=15, deadline=None)
@given(ts=st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 180.0)), min_size=1, max_size=40))
def test_fractional_batch_matches_points_bitwise(n, ts):
    # times past 170 have a zero kernel; 0 is the identity
    model = ss.FractionalIntegration(n)
    ts = np.array(ts)
    points = np.array([model.norm_at(t) for t in ts])
    assert np.array_equal(model.norm_at_many(ts), points)


@pytest.mark.parametrize("n", FRACTIONAL_NS)
def test_fractional_norm_is_independent_of_query_order(n):
    model = ss.FractionalIntegration(n)
    before = model.norm_at(0.7)
    model.norm_at(30.0)
    assert model.norm_at(0.7) == before
    model.norm_at_many(np.arange(100) * 0.31)
    assert model.norm_at(0.7) == before


@pytest.mark.parametrize("n", FRACTIONAL_NS)
def test_fractional_norm_matches_svd(n):
    # near t = 0 the kernel is close to a multiple of the identity and its
    # singular values cluster; t = 150 has entries below 1e-260
    model = ss.FractionalIntegration(n)
    for t in (1e-7, 1e-4, 1e-2, 0.5, 1.0, 5.0, 40.0, 150.0):
        ref = np.linalg.svd(model.kernel_matrix(t), compute_uv=False)[0]
        assert abs(model.norm_at(t) - ref) <= 1e-12 * ref, t


def test_concurrent_readers_get_single_thread_values():
    slices = [np.arange(k0, k0 + 300, dtype=float) * GRID_STEP
              for k0 in (0, 15900, 17000, 39000)]
    for make in (lambda: ss.MatrixSemigroup(J10), lambda: ss.FractionalIntegration(16)):
        _check_concurrent_readers(make, slices)


def _check_concurrent_readers(make, slices):
    reference = make()
    expected = [reference.norm_at_many(ts) for ts in slices]
    shared = make()  # its trajectory is built lazily by the readers
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
