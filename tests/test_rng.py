"""Determinism and worker-invariance of the splittable random streams."""

import numpy as np
import pytest

from mcduality.rng import (BLOCK_SIZE, WORKERS_ENV, RandomStream, blocks,
                           map_blocks, worker_count)


def test_same_seed_same_draws():
    a = RandomStream(42).standard_normals(1000, 8)
    b = RandomStream(42).standard_normals(1000, 8)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStream(42).standard_normals(100, 4)
    b = RandomStream(43).standard_normals(100, 4)
    assert not np.array_equal(a, b)


def test_split_streams_are_independent_and_stable():
    s = RandomStream(7)
    a1 = s.split(0).standard_normals(50, 3)
    a2 = s.split(0).standard_normals(50, 3)
    b = s.split(1).standard_normals(50, 3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_nested_split_keys_do_not_collide():
    # key (0, 1) and key (1, 0) address different generators
    a = RandomStream(7, key=(0,)).block_rng(1).standard_normal(16)
    b = RandomStream(7, key=(1,)).block_rng(0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_worker_count_does_not_change_values(monkeypatch):
    s = RandomStream(99)
    paths = 3 * BLOCK_SIZE + 17  # forces several blocks
    monkeypatch.setenv(WORKERS_ENV, "1")
    one = s.standard_normals(paths, 2)
    monkeypatch.setenv(WORKERS_ENV, "4")
    four = s.standard_normals(paths, 2)
    assert np.array_equal(one, four)


@pytest.mark.parametrize("workers", [1, 2])
def test_normals_fill_in_place_is_bitwise_temp_and_copy(workers,
                                                       monkeypatch):
    # each block's draws written straight into the result equal the block
    # drawn into a temporary array and copied, as the fill first did
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    s = RandomStream(12)
    paths, cols = 2 * BLOCK_SIZE + 5, 3
    ref = np.empty((paths, cols))
    for block, lo in enumerate(range(0, paths, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, paths)
        ref[lo:hi] = s.block_rng(block).standard_normal((hi - lo, cols))
    assert np.array_equal(s.standard_normals(paths, cols), ref)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_map_blocks_runs_every_block_once(workers, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    paths = 3 * BLOCK_SIZE + 17
    calls = []
    map_blocks(calls.append, paths)
    assert len(calls) == min(workers, 4)
    assert sorted(span for spans in calls for span in spans) == blocks(paths)
    for spans in calls:  # each call's first span is its widest
        assert spans[0][2] - spans[0][1] == max(hi - lo for _, lo, hi in spans)
    assert blocks(5) == [(0, 0, 5)]
    with pytest.raises(ValueError):
        map_blocks(calls.append, 0)


def test_prefix_stability_across_path_counts():
    # the first block's draws do not depend on how many paths follow
    s = RandomStream(5)
    small = s.standard_normals(BLOCK_SIZE, 3)
    large = s.standard_normals(BLOCK_SIZE + 123, 3)
    assert np.array_equal(small, large[:BLOCK_SIZE])


def test_seed_validation():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(2**64)
    RandomStream(2**64 - 1)  # largest valid seed


def test_worker_count_resolution(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert worker_count() == 5
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        worker_count()


def test_draw_shape_validation():
    with pytest.raises(ValueError):
        RandomStream(1).standard_normals(0, 4)
