"""Seeded Monte Carlo whose output depends on the seed alone.

Every stochastic routine takes an explicit integer seed.  The draws are
cut into blocks of ``BLOCK``; block i draws from its own substream
``SeedSequence(seed, spawn_key=(i,))`` and the blocks are copied, in block
order and as they arrive, into one output, so a run holds that output and
the blocks not yet copied, at most one more than the workers.  A worker
count only decides how many threads run the blocks, so output never
depends on it, nor on scheduling.  A run is charged against the entry
budget from its caller's row width before any block draws.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from .lattice import RangeError, budget

BLOCK = 2**15


def run_chunked(
    total: int,
    seed: int,
    workers: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    row: int,
) -> np.ndarray:
    """``draw(rng, m)`` per block of ``total`` draws, joined along axis 0.

    ``row`` is the entries of one draw, so ``total * row`` is charged
    against the entry budget before any block runs; one block returns
    ``draw``'s array itself.  More blocks are copied, on the calling
    thread, into one output with the first block's dtype and row shape;
    a block that differs from it in either raises.  At most ``workers`` + 1
    blocks are submitted and not yet copied.
    """
    if total < 1 or workers < 1:
        raise RangeError(f"need total >= 1 and workers >= 1, "
                         f"got {total} and {workers}")
    budget(f"{total} Monte-Carlo draws", entries=total * row)
    n_blocks = -(-total // BLOCK)

    def block(i: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        return draw(rng, min(BLOCK, total - i * BLOCK))

    if n_blocks == 1:
        return block(0)
    if workers == 1:
        return _join(map(block, range(n_blocks)), total)
    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        return _join(_in_order(pool, block, n_blocks, workers + 1), total)


def _in_order(pool: ThreadPoolExecutor, fn: Callable[[int], np.ndarray],
              n: int, depth: int) -> Iterator[np.ndarray]:
    """fn(0), .., fn(n - 1) run on ``pool`` and handed on in order, with
    at most ``depth`` of them submitted and not yet handed on."""
    pending = deque()
    for i in range(n):
        pending.append(pool.submit(fn, i))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _join(blocks: Iterator[np.ndarray], total: int) -> np.ndarray:
    """The blocks, in order, copied into one output of ``total`` rows
    shaped by the first; each block is let go before the next arrives."""
    out, start = None, 0
    for part in blocks:
        if out is None:
            out = np.empty((total,) + part.shape[1:], dtype=part.dtype)
        dst = out[start:start + BLOCK]
        if part.shape != dst.shape:
            raise ValueError(f"block {start // BLOCK} has shape {part.shape}, "
                             f"expected {dst.shape}")
        np.copyto(dst, part, casting="no")
        start += BLOCK
        del part  # a loop variable would hold it while the next one draws
    return out


def mean_and_stderr(samples: np.ndarray) -> tuple[complex, float]:
    """Mean over axis 0 and the largest entry's standard error; complex
    samples add the variances of their real and imaginary parts."""
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        raise RangeError(f"a standard error needs at least 2 samples, got {n}")
    var = samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
    return samples.mean(axis=0), float(np.sqrt(np.max(var) / n))
