"""The running-sum walk and first-crossing kernel shared by primal and dual
evaluation.

Both sides stop a running sum laid out ``(nodes, paths)``: the primal search
freezes gains at the first node below the wealth floor, and the dual cap
freezes the log of the perturbation before the first node above ``log(cap)``,
which is a first crossing of the negated log sum below ``-log(cap)``.  Each
side only forms its increments; :func:`walk` sums them a chunk of steps at a
time, while the chunk's rows are in cache, and :func:`first_crossing` finds
the stop.  :func:`chunk_steps` is the one rule for the length of a chunk of
time-major rows, also used by the variance recursion and the projection
diagnostic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_steps", "walk", "first_crossing"]

#: float64 values in one chunk of rows: 512 KiB
_CHUNK_VALUES = 2**16


def chunk_steps(width: int) -> int:
    """Steps per chunk of time-major rows ``width`` values wide: as many as
    fit :data:`_CHUNK_VALUES`, and at least one."""
    return max(1, _CHUNK_VALUES // width)


def walk(fill, out: np.ndarray, thr: float):
    """Sum increments down ``out`` and stop each path at its first node
    below ``thr``.

    ``out`` is laid out ``(nodes, paths)`` with the start in row 0, which the
    walk leaves alone.  ``fill(k0, k1, rows)`` writes the increments of
    steps ``k0 .. k1-1`` into ``rows``, rows ``k0+1 .. k1`` of ``out``, and
    the walk adds each onto the row before it (``np.cumsum``'s adds in its
    order, from the first increment as filled) while the chunk is in cache.
    ``out`` is left holding the path; returns :func:`first_crossing` of it.
    """
    steps = out.shape[0] - 1
    n = chunk_steps(out.shape[1])
    for k0 in range(0, steps, n):
        k1 = min(k0 + n, steps)
        fill(k0, k1, out[k0 + 1:k1 + 1])
        prev = out[max(k0, 1)]
        for row in out[max(k0, 1) + 1:k1 + 1]:
            np.add(prev, row, out=row)
            prev = row
    return first_crossing(out, thr)


def first_crossing(values: np.ndarray, thr: float):
    """Each path's first node below ``thr`` in ``values`` laid out
    ``(nodes, paths)``.

    Returns the stop node (the first crossing, else the last node), the
    value there and the crossed mask.  One row-wise reduction screens the
    paths that cross, so the search for the node runs on those columns only.
    ``fmin`` skips NaN as ``values < thr`` does, so the screen never drops a
    path that crosses.
    """
    crossed = np.fmin.reduce(values, axis=0) < thr
    stop = np.full(values.shape[1], values.shape[0] - 1)
    hit = np.flatnonzero(crossed)
    stop[hit] = np.argmax(values[:, hit] < thr, axis=0)
    return stop, values[stop, np.arange(values.shape[1])], crossed
