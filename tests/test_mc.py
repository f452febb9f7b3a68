"""The Monte-Carlo primitive: seed-keyed blocks, output free of --threads."""

from concurrent.futures import Future

import numpy as np
import pytest

from qfield import _mc, fields, green, lattice, walks
from qfield import pointprocess as pp

# three full blocks and a partial fourth
SPAN = 3 * _mc.BLOCK + 101


def _normals(rng, m):
    return rng.standard_normal((m, 2))


def _block_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def test_one_block_keeps_the_first_substream():
    # a single block draws what one worker drew before blocks were keyed
    seed = 42
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    want = rng.standard_normal((_mc.BLOCK, 2))
    assert np.array_equal(_mc.run_chunked(_mc.BLOCK, seed, 1, _normals, 2), want)


def test_blocks_are_keyed_by_index_and_joined_in_order():
    sizes = [_mc.BLOCK] * 3 + [101]
    want = np.concatenate([_normals(_block_rng(7, i), m)
                           for i, m in enumerate(sizes)])
    for workers in (1, 2, 3, 4, 9):
        got = _mc.run_chunked(SPAN, 7, workers, _normals, 2)
        assert np.array_equal(got, want), workers


def test_one_block_returns_the_drawn_array():
    drawn = np.zeros((5, 2))
    assert _mc.run_chunked(5, 0, 4, lambda rng, m: drawn, 2) is drawn


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("short, error", [
    (lambda m: np.zeros((m, 2), dtype=np.float32), TypeError),
    (lambda m: np.zeros((m, 3)), ValueError),
    (lambda m: np.zeros((m, 1)), ValueError),  # would broadcast
], ids=["dtype", "row", "broadcast-row"])
def test_a_block_unlike_the_first_raises(short, error, workers):
    # the short last block differs from the first: never cast or broadcast
    def draw(rng, m):
        return np.zeros((m, 2)) if m == _mc.BLOCK else short(m)

    with pytest.raises(error):
        _mc.run_chunked(SPAN, 0, workers, draw, 2)


@pytest.mark.parametrize("total, workers", [(0, 1), (-3, 1), (10, 0)])
def test_no_draws_or_no_workers_is_a_range_error(total, workers):
    with pytest.raises(lattice.RangeError):
        _mc.run_chunked(total, 0, workers, _normals, 2)


def test_pool_and_generators_are_bounded_by_the_block_count(monkeypatch):
    # a recording serial stand-in: no real thread is started
    pools, rngs = [], []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    default_rng = np.random.default_rng

    def counting_rng(seed):
        rngs.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(_mc, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(_mc.np.random, "default_rng", counting_rng)
    _mc.run_chunked(10, 0, 10_000, _normals, 2)
    assert pools == [] and len(rngs) == 1
    serial = _mc.run_chunked(SPAN, 0, 1, _normals, 2)
    assert pools == [] and len(rngs) == 5
    pooled = _mc.run_chunked(SPAN, 0, 10_000, _normals, 2)
    assert pools == [4] and len(rngs) == 9
    _mc.run_chunked(SPAN, 0, 3, _normals, 2)
    assert pools == [4, 3]
    assert np.array_equal(pooled, serial)


def test_stderr_needs_two_samples():
    with pytest.raises(lattice.RangeError):
        _mc.mean_and_stderr(np.ones(1))
    mean, se = _mc.mean_and_stderr(np.array([1.0, 3.0, 1j]))
    assert mean == (4 + 1j) / 3
    want = np.sqrt((np.var([1.0, 3.0, 0.0], ddof=1)
                    + np.var([0.0, 0.0, 1.0], ddof=1)) / 3)
    assert se == pytest.approx(want, rel=1e-15)


def _same_for_every_worker_count(run):
    first = run(1)
    for workers in (2, 3):
        again = run(workers)
        assert all(np.array_equal(a, b) for a, b in zip(first, again)), workers


def test_green_mc_is_thread_invariant():
    law = walks.lazy_walk(3, 2, [0.3, 0.7])
    _same_for_every_worker_count(lambda w: (
        green.green_mc(law, 0.6, (0, 1), SPAN, seed=7, workers=w),))


def test_sample_field_is_thread_invariant():
    spec = walks.lazy_walk(2, 2, [0.3, 0.7]).spectrum()

    def run(w):
        sample = fields.sample_field(spec, 0.5, seed=3, n_samples=SPAN,
                                     workers=w)
        return sample.driver, sample.values

    _same_for_every_worker_count(run)


def test_point_process_estimates_are_thread_invariant():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.6])
    _same_for_every_worker_count(lambda w: pp.y_moment_mc(
        spec, (1, 1), SPAN, seed=11, workers=w))
    _same_for_every_worker_count(lambda w: pp.log_laplace_mc(
        spec, [0.7, 0.3], SPAN, seed=12, workers=w))


def test_an_over_budget_run_draws_no_block():
    drawn = []

    def draw(rng, m):
        drawn.append(m)
        return np.zeros((m, 2))

    total = lattice.ENTRY_BUDGET // 2 + 1  # one row past the entry budget
    for workers in (1, 2):
        with pytest.raises(lattice.RangeError, match=f"{total} Monte-Carlo "
                           f"draws: needs {2 * total} entries"):
            _mc.run_chunked(total, 0, workers, draw, 2)
    assert drawn == []
