"""The screened first-crossing kernel against its unscreened definition,
and the running-sum walk against ``np.cumsum``."""

import numpy as np
import pytest

from mcduality import stopping
from mcduality.stopping import first_crossing, walk


def _unscreened(values, thr):
    """``argmax`` over every column: the kernel's definition."""
    below = values < thr
    first = np.argmax(below, axis=0)
    cols = np.arange(values.shape[1])
    crossed = below[first, cols]
    stop = np.where(crossed, first, values.shape[0] - 1)
    return stop, values[stop, cols], crossed


def _cases():
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=(12, 40)), axis=0)
    first_row = walk.copy()
    first_row[0, ::3] = -5.0
    at_thr = walk.copy()
    at_thr[4, :] = -1.0                    # exactly at the threshold
    at_thr[7, ::2] = np.nextafter(-1.0, -np.inf)
    with_nan = walk.copy()
    with_nan[2, :] = np.nan                # NaN is never below the threshold
    return {"mixed": (walk, -1.0),
            "first_row": (first_row, -1.0),
            "none": (walk, -1e9),
            "all": (walk, 1e9),
            "at_threshold": (at_thr, -1.0),
            "nan": (with_nan, -1.0)}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_screened_kernel_is_unscreened_argmax(case):
    values, thr = _cases()[case]
    stop, val, crossed = first_crossing(values, thr)
    ref_stop, ref_val, ref_crossed = _unscreened(values, thr)
    assert np.array_equal(stop, ref_stop)
    assert np.array_equal(val, ref_val, equal_nan=True)
    assert np.array_equal(crossed, ref_crossed)
    if case == "none":
        assert not crossed.any()
    if case == "all":
        assert crossed.all() and not stop.any()
    if case == "first_row":
        assert not stop[::3].any() and crossed[::3].all()
    if case == "at_threshold":
        # strict <: the row at the threshold stops no path
        assert not np.any(stop == 4)


# ---------------------------------------------------------------------------
# the running-sum walk against first_crossing of np.cumsum
# ---------------------------------------------------------------------------

def _bits(a):
    """Bit pattern of a float array: tells -0.0 from 0.0 and NaN from NaN."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _walked(inc, thr, monkeypatch, values):
    """``walk`` of the rows of ``inc`` with the chunk budget set to
    ``values``; returns its result, the buffer and the chunks it filled."""
    monkeypatch.setattr(stopping, "_CHUNK_VALUES", values)
    out = np.zeros((inc.shape[0] + 1, inc.shape[1]))
    chunks = []

    def fill(k0, k1, rows):
        assert rows.shape == (k1 - k0, inc.shape[1])
        chunks.append((k0, k1))
        rows[...] = inc[k0:k1]

    return walk(fill, out, thr), out, chunks


def _cumsum_reference(inc, thr):
    values = np.zeros((inc.shape[0] + 1, inc.shape[1]))
    values[1:] = np.cumsum(inc, axis=0)
    return first_crossing(values, thr), values


PATHS = 40
# chunk budgets (float64 values) giving chunks of 1, 3 and 16 steps of
# PATHS-wide rows, and a single chunk
CHUNKS = {1: PATHS, 3: 3 * PATHS + 7, 16: 16 * PATHS, "single": 2**16}


def _walk_cases(chunk):
    """Increments and thresholds: steps not a multiple of the chunk, one
    step, crossings on the first and last row of a chunk, NaN, and sums
    that land exactly on the threshold."""
    rng = np.random.default_rng(11)
    steps = 37
    c = steps if chunk == "single" else chunk
    k0 = c if c < steps else 0           # the second chunk, if there is one
    first, last = k0, min(k0 + c, steps) - 1   # its first and last step
    edges = 0.1 * rng.normal(size=(steps, PATHS))
    edges[0, 2::4] = -0.0                # the sum starts from the increment
    edges[first, 0::4] = -50.0
    edges[last, 1::4] = -50.0
    with_nan = 0.1 * rng.normal(size=(steps, PATHS))
    with_nan[5, ::3] = np.nan
    with_nan[9, :] = -50.0
    exact = np.full((steps, PATHS), -0.25)   # exact binary sums
    exact[:, ::2] = 0.0
    return {"edges": (edges, -10.0),
            "one_step": (0.1 * rng.normal(size=(1, PATHS))
                         - 20.0 * (np.arange(PATHS) % 2), -10.0),
            "nan": (with_nan, -10.0),
            "at_threshold": (exact, -1.0),
            "none": (edges, -1e9)}


@pytest.mark.parametrize("chunk", sorted(CHUNKS, key=str))
@pytest.mark.parametrize("case", ["edges", "one_step", "nan",
                                  "at_threshold", "none"])
def test_walk_is_first_crossing_of_cumsum(monkeypatch, chunk, case):
    inc, thr = _walk_cases(chunk)[case]
    (stop, val, crossed), out, chunks = _walked(inc, thr, monkeypatch,
                                                CHUNKS[chunk])
    (ref_stop, ref_val, ref_crossed), values = _cumsum_reference(inc, thr)
    assert np.array_equal(stop, ref_stop)
    assert np.array_equal(_bits(val), _bits(ref_val))
    assert np.array_equal(crossed, ref_crossed)
    assert np.array_equal(_bits(out), _bits(values))
    # the chunks tile the steps in order, all full but the last
    steps = inc.shape[0]
    c = steps if chunk == "single" else chunk
    assert chunks == [(k, min(k + c, steps)) for k in range(0, steps, c)]
    if case == "edges":
        c = min(c, steps)
        k0 = c if c < steps else 0
        assert crossed[0::4].all() and crossed[1::4].all()
        assert np.all(stop[0::4] == k0 + 1)              # first row
        assert np.all(stop[1::4] == min(k0 + c, steps))  # last row
        assert chunk in (1, "single") or len(chunks) > 2
        assert steps % c != 0 or chunk in (1, "single")
        assert np.all(_bits(out[1, 2::4]) == _bits(-0.0))
    if case == "one_step":
        assert crossed[1::2].all() and not crossed[::2].any()
    if case == "nan":
        # a NaN sum never crosses after it appears
        assert not crossed[::3].any() and crossed[1::3].all()
    if case == "at_threshold":
        # strict <: the node exactly at -1.0 stops no path
        assert np.all(stop[1::2] == 5) and not crossed[::2].any()
    if case == "none":
        assert not crossed.any() and np.all(stop == steps)
