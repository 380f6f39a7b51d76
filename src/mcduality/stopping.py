"""The running-sum walk and first-crossing kernel shared by primal and dual
evaluation.

Both sides stop a running sum laid out ``(nodes, paths)``: the primal search
freezes gains at the first node below the wealth floor, and the dual cap
freezes the log of the perturbation before the first node above ``log(cap)``,
which is a first crossing of the negated log sum below ``-log(cap)``.  Each
side only forms its increments; :func:`walk` sums them a chunk of steps at a
time, while the chunk's rows are in cache, and finds the stop.
:func:`chunk_steps` is the one rule for the length of a chunk of time-major
rows, also used by the variance recursion and the projection diagnostic.
It also sizes the tiles of :func:`_time_major`, which writes path-major
rows time-major a tile of paths at a time, so that a tile's source rows
span at most :data:`_CHUNK_VALUES` values: the variance recursion's input
copy, the primal's component holdings and the hedge residual's gains go
through it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_steps", "walk"]

#: float64 values in one chunk of rows: 512 KiB
_CHUNK_VALUES = 2**16


def chunk_steps(width: int) -> int:
    """Steps per chunk of time-major rows ``width`` values wide: as many as
    fit :data:`_CHUNK_VALUES`, and at least one.  Also the paths per tile
    of :func:`_time_major`, whose source rows lie ``width`` values apart."""
    return max(1, _CHUNK_VALUES // width)


def _time_major(src: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """Write the path-major ``(paths, n)`` ``src`` into time-major rows:
    ``out``, shaped ``(n, paths)``, or a new array; returns them.

    The copy runs a tile of paths at a time, :func:`chunk_steps` of the
    source's row stride in values, so a tile's source rows span at most
    :data:`_CHUNK_VALUES` values.  A copy of all paths at once reads one
    value of every path's row for each row it writes; with long rows that
    is a page for every path or two, more pages than the TLB holds.  A pure
    copy: the bits are those of ``np.ascontiguousarray(src.T)``.
    """
    if out is None:
        out = np.empty(src.shape[::-1], src.dtype)
    tile = chunk_steps(src.strides[0] // src.itemsize)
    for p0 in range(0, src.shape[0], tile):
        out[:, p0:p0 + tile] = src[p0:p0 + tile].T
    return out


def walk(fill, out: np.ndarray, thr: float):
    """Sum increments down ``out`` and stop each path at its first node
    below ``thr``.

    ``out`` is laid out ``(nodes, paths)`` with the start in row 0, which the
    walk leaves alone.  ``fill(k0, k1, rows)`` writes the increments of
    steps ``k0 .. k1-1`` into ``rows``, rows ``k0+1 .. k1`` of ``out``, and
    the walk adds each onto the row before it (``np.cumsum``'s adds in its
    order, from the first increment as filled) while the chunk is in cache.

    ``out`` is left holding the path.  Returns each path's stop node (its
    first node below ``thr``, else the last node), the value there and the
    crossed mask.  A running row-wise minimum, folded in chunk by chunk,
    screens the paths that cross, so the search for the node runs on those
    columns only.  ``fmin`` skips NaN as ``values < thr`` does, so the
    screen never drops a path that crosses.
    """
    steps, paths = out.shape[0] - 1, out.shape[1]
    n = chunk_steps(paths)
    low = out[0].copy()
    for k0 in range(0, steps, n):
        k1 = min(k0 + n, steps)
        rows = out[k0 + 1:k1 + 1]
        fill(k0, k1, rows)
        prev = out[max(k0, 1)]
        for row in out[max(k0, 1) + 1:k1 + 1]:
            np.add(prev, row, out=row)
            prev = row
        np.fmin(low, np.fmin.reduce(rows, axis=0), out=low)
    crossed = low < thr
    stop = np.full(paths, steps)
    hit = np.flatnonzero(crossed)
    stop[hit] = np.argmax(out[:, hit] < thr, axis=0)
    return stop, out[stop, np.arange(paths)], crossed
