"""The screened first-crossing kernel against its unscreened definition."""

import numpy as np
import pytest

from mcduality.stopping import first_crossing


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
