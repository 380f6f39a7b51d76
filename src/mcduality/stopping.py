"""The first-crossing stopping kernel shared by primal and dual evaluation.

Both sides stop a running sum laid out ``(nodes, paths)``: the primal search
freezes gains at the first node below the wealth floor, and the dual cap
freezes the log of the perturbation before the first node above ``log(cap)``,
which is a first crossing of the negated log sum below ``-log(cap)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first_crossing"]


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
