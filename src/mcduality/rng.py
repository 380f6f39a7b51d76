"""Deterministic, splittable random streams for path generation.

Path simulation is organized in fixed blocks of path indices
(:func:`blocks`).  Every block owns a counter-based Philox generator
derived from the master seed and the block index, so the numbers drawn for
block ``k`` do not depend on which worker thread happens to fill it, nor on
how many workers there are, nor on whether the block's rows are part of a
whole ``(paths, cols)`` array or drawn alone just before they are used, in
one draw or a few rows at a time from the block's generator.
Reductions downstream run per path in path-index order, which makes every
statistic bit-stable across worker counts.

:func:`map_blocks` is the one scheduler of path blocks, and the worker
count has one source: the ``MCDUALITY_WORKERS`` environment variable
(default 1), read by :func:`worker_count` each time blocks are scheduled.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: number of path indices per RNG block
BLOCK_SIZE = 4096

#: environment variable that sets the worker count
WORKERS_ENV = "MCDUALITY_WORKERS"


def worker_count() -> int:
    """The worker count: ``MCDUALITY_WORKERS``, 1 when it is unset."""
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {text!r}")


def _check_paths(paths: int) -> None:
    """Refuse a path count below one, before anything is allocated."""
    if paths < 1:
        raise ValueError("need paths >= 1")


def blocks(paths: int) -> list[tuple[int, int, int]]:
    """The path blocks ``(block, lo, hi)`` covering ``paths`` path indices:
    ``BLOCK_SIZE`` paths each, the last one possibly shorter."""
    return [(block, lo, min(lo + BLOCK_SIZE, paths))
            for block, lo in enumerate(range(0, paths, BLOCK_SIZE))]


def map_blocks(work, paths: int) -> None:
    """Run ``work(spans)`` over the path blocks of ``paths`` on
    :func:`worker_count` threads.

    With one worker ``work`` gets every block, in order.  With ``w``
    workers, thread ``j`` gets every ``w``-th block from block ``j``, so
    each call can keep its own scratch for the blocks it runs.  ``work``
    must write each block's results to that block's rows only; then the
    results do not depend on the worker count.  The first span of every
    call is its widest.
    """
    _check_paths(paths)
    spans = blocks(paths)
    nworkers = min(worker_count(), len(spans))
    if nworkers == 1:
        work(spans)
        return
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futures = [pool.submit(work, spans[j::nworkers])
                   for j in range(nworkers)]
        for fut in futures:
            fut.result()


class RandomStream:
    """A labelled substream of a master seed.

    ``split(label)`` derives an independent child stream; ``block_rng(k)``
    returns the generator that owns path block ``k``.  Both operations are
    pure functions of ``(seed, key)``, so any two calls with equal arguments
    yield identical draws.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)

    def split(self, label: int) -> "RandomStream":
        """Derive the child stream with the given label."""
        return RandomStream(self.seed, self.key + (int(label),))

    def block_rng(self, block: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=self.key + (int(block),))
        return np.random.Generator(np.random.Philox(ss))

    def standard_normals(self, paths: int, cols: int) -> np.ndarray:
        """Draw a ``(paths, cols)`` array of iid standard normals, each
        block's rows filled in place from its generator.

        The array content depends only on ``(seed, key, paths, cols)``; the
        worker count affects scheduling, never values.
        """
        if paths < 1 or cols < 0:
            raise ValueError("need paths >= 1 and cols >= 0")
        out = np.empty((paths, cols))

        def work(spans):
            for block, lo, hi in spans:
                self.block_rng(block).standard_normal(out=out[lo:hi])

        map_blocks(work, paths)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, key={self.key})"
