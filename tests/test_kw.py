"""Orthogonal-projection decomposition and its convergence diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from mcduality import stopping
from mcduality.experiments import _kw_setup
from mcduality.kw import (kw_convergence_diag, kw_decompose,
                          nondegeneracy_check)
from mcduality.market import GeneralMarketCoeffs, TimeGrid
from mcduality.pricing import degenerate_coeffs
from mcduality.rng import BLOCK_SIZE, WORKERS_ENV, RandomStream

from conftest import driver_draw_all, kw_rows_draw_all


def _db(paths=64, steps=32, d=2, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((paths, steps, d)) * math.sqrt(1.0 / steps)


def test_projection_coefficient_formula_exact():
    n = 4.0
    db = _db()
    sigma = np.array([1.0, 1.0 / n])
    nu = np.array([0.0, 1.0])
    res = kw_decompose(nu, sigma, db, dt=1.0 / db.shape[1])
    expect = (1.0 / n) / (1.0 + 1.0 / n**2)
    assert np.allclose(res.h, expect, rtol=0.0, atol=1e-15)
    assert res.zero_fraction == 0.0


def test_parallel_integrand_fully_projected():
    db = _db()
    sigma = np.array([0.8, -0.6])
    nu = 2.5 * sigma
    res = kw_decompose(nu, sigma, db, dt=1.0 / db.shape[1])
    assert np.allclose(res.h, 2.5, atol=1e-14)
    assert np.abs(res.l_increments).max() < 1e-12
    assert res.residual_energy.mean < 1e-24


def test_degenerate_direction_energy_constant():
    # shrinking volatility along the integrand: the projection coefficient
    # blows up exactly as fast as the bracket shrinks, energy stays T
    db = _db(d=2)
    for n in (1.0, 10.0, 100.0):
        sigma = np.array([1.0 / n, 0.0])
        nu = np.array([1.0, 0.0])
        res = kw_decompose(nu, sigma, db, dt=1.0 / db.shape[1])
        assert res.energy.mean == pytest.approx(1.0, abs=1e-12)
        assert res.energy.stderr == pytest.approx(0.0, abs=1e-15)


def test_cellwise_orthogonality_and_pythagoras():
    rng = np.random.default_rng(17)
    paths, steps, d = 40, 16, 3
    db = rng.standard_normal((paths, steps, d)) * 0.25
    nu = rng.standard_normal((paths, steps, d))
    sigma = rng.standard_normal((paths, steps, d))
    res = kw_decompose(nu, sigma, db, dt=1.0 / steps)
    resid = nu - res.h[:, :, None] * sigma
    ortho = np.einsum("pkd,pkd->pk", resid, sigma)
    assert np.abs(ortho).max() < 1e-10
    total = res.energy.mean + res.residual_energy.mean
    assert total == pytest.approx(res.total_energy.mean, abs=1e-10)


def test_zero_volatility_cells_use_indicator():
    db = _db(paths=8, steps=4, d=2)
    sigma = np.zeros((8, 4, 2))
    sigma[:, :2, 0] = 1.0        # first half of the nodes nondegenerate
    nu = np.array([1.0, 1.0])
    res = kw_decompose(nu, sigma, db, dt=0.25)
    assert res.zero_fraction == 0.5
    assert np.all(res.h[:, 2:] == 0.0)
    assert np.allclose(res.h[:, :2], 1.0, atol=1e-15)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        kw_decompose(np.ones(2), np.ones(2), np.ones((4, 8)), dt=0.1)


def _nondegenerate_family():
    def sigma(n, _t, b):
        out = np.zeros_like(b)
        out[:, 0] = 1.0
        if not math.isinf(n):
            out[:, 1] = 1.0 / n
        return out

    def nu(_t, b):
        out = np.zeros_like(b)
        out[:, 1] = 1.0
        return out

    coeffs = GeneralMarketCoeffs(d=2, sigma=sigma,
                                 lam=lambda n, t, b: np.zeros(b.shape[0]))
    return coeffs, nu


def test_diag_nondegenerate_energies_are_exact():
    # closed form: per-cell energy 1/(n^2+1), total T/(n^2+1)
    coeffs, nu = _nondegenerate_family()
    grid = TimeGrid(1.0, 32)
    n_values = [1.0, 3.0, 10.0, 30.0, 100.0]
    rows = kw_convergence_diag(nu, coeffs, n_values, grid, 500,
                               RandomStream(7))
    for row, n in zip(rows, n_values):
        assert row.energy.mean == pytest.approx(1.0 / (n**2 + 1.0),
                                                rel=1e-12)
        assert row.zero_fraction == 0.0
    energies = [r.energy.mean for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0] / 4.0


def test_diag_degenerate_energy_stays_at_horizon():
    coeffs = degenerate_coeffs()
    rows = kw_convergence_diag(lambda _t, b: np.ones_like(b), coeffs,
                               [1.0, 10.0, 100.0], TimeGrid(1.0, 16), 200,
                               RandomStream(9))
    for row in rows:
        assert row.energy.mean == pytest.approx(1.0, abs=1e-12)


def test_diag_zero_integrand_zero_energy():
    coeffs, _ = _nondegenerate_family()
    rows = kw_convergence_diag(lambda _t, b: np.zeros_like(b), coeffs,
                               [2.0, 4.0], TimeGrid(1.0, 8), 50,
                               RandomStream(1))
    for row in rows:
        assert row.energy.mean == 0.0
        assert row.energy.stderr == 0.0


def test_diag_scaling_is_quadratic():
    coeffs, nu = _nondegenerate_family()
    grid = TimeGrid(1.0, 16)
    base = kw_convergence_diag(nu, coeffs, [5.0], grid, 100, RandomStream(4))
    scaled = kw_convergence_diag(lambda t, b: 3.0 * nu(t, b), coeffs, [5.0],
                                 grid, 100, RandomStream(4))
    assert scaled[0].energy.mean == pytest.approx(9.0 * base[0].energy.mean,
                                                  rel=1e-12)


def test_diag_orthogonality_precondition():
    coeffs, _ = _nondegenerate_family()

    def bad_nu(_t, b):
        out = np.zeros_like(b)
        out[:, 0] = 1e-6         # component along the limit volatility
        return out

    with pytest.raises(ValueError):
        kw_convergence_diag(bad_nu, coeffs, [2.0], TimeGrid(1.0, 8), 20,
                            RandomStream(2))


def test_diag_orthogonality_checks_every_node(monkeypatch):
    # a violation on one node raises wherever the node sits: first, first
    # of a chunk, last of the partial last chunk
    coeffs, _ = _nondegenerate_family()
    grid, paths = TimeGrid(1.0, 37), 50
    monkeypatch.setattr(stopping, "_CHUNK_VALUES", 16 * paths * 2)
    for node in (0, 16, 36):
        def bad_nu(t, b, node=node):
            out = np.zeros_like(b)
            out[:, 1] = 1.0
            if t == grid.times[node]:
                out[:, 0] = 1e-6
            return out

        with pytest.raises(ValueError, match="not orthogonal"):
            kw_convergence_diag(bad_nu, coeffs, [2.0, 3.0], grid, paths,
                                RandomStream(2))


@pytest.mark.parametrize("workers", [1, 2])
def test_diag_blocks_are_bitwise_draw_all(workers):
    # three path blocks, the last of five paths, on threads or not: the
    # path-dependent energies are the draw-all einsum reference's
    coeffs, nu_fn = _path_dependent_family()
    grid, paths, n_values = TimeGrid(1.0, 9), 2 * BLOCK_SIZE + 5, [0.5, 3.0]
    rows = kw_convergence_diag(nu_fn, coeffs, n_values, grid, paths,
                               RandomStream(21), workers)
    ref = kw_rows_draw_all(nu_fn, coeffs, n_values, grid, paths,
                           RandomStream(21))
    assert [(r.n, r.energy, r.zero_fraction) for r in rows] == ref


def test_nondegeneracy_check_flags():
    coeffs, _ = _nondegenerate_family()
    grid = TimeGrid(1.0, 32)
    ok = nondegeneracy_check(coeffs, 5.0, grid, 100, RandomStream(3))
    assert not ok.degenerate
    assert ok.zero_fraction == 0.0
    assert ok.min_norm >= 1.0

    limit = nondegeneracy_check(degenerate_coeffs(), math.inf, grid, 100,
                                RandomStream(3))
    assert limit.degenerate
    assert limit.zero_fraction == 1.0


def test_nondegeneracy_half_time_family():
    # volatility alive on the first half of a uniform grid only
    def sigma(_n, t, b):
        return np.full_like(b, 1.0 if t < 0.5 else 0.0)

    coeffs = GeneralMarketCoeffs(d=1, sigma=sigma,
                                 lam=lambda n, t, b: np.zeros(b.shape[0]))
    rep = nondegeneracy_check(coeffs, 1.0, TimeGrid(1.0, 64), 50,
                              RandomStream(6))
    assert rep.zero_fraction == pytest.approx(0.5, abs=1e-15)
    assert rep.degenerate


def _nondegeneracy_draw_all(coeffs, n, grid, paths, stream):
    """``(min |sigma_n|, zero fraction)`` as the check was first written:
    the whole driver drawn at once, then every node over all paths."""
    b = driver_draw_all(grid, paths, stream, coeffs.d)
    norms = np.stack([np.sqrt(np.einsum("pd,pd->p", sig, sig)) for sig in (
        coeffs.sigma_at(n, grid.times[k], b[:, k, :])
        for k in range(grid.steps))])
    return float(norms.min()), int((norms <= 1e-12).sum()) / norms.size


@pytest.mark.parametrize("workers", [1, 2])
def test_nondegeneracy_blocks_are_bitwise_draw_all(monkeypatch, workers):
    # three path blocks, the last of five paths, on threads or not: the
    # smallest norm sits on one path of one block, and member 1 has zeros
    # wherever the second driver is above one
    def sigma(n, _t, b):
        out = np.zeros_like(b)
        out[:, 0] = (1.0 + np.tanh(b[:, 0])) / n
        if n == 1.0:
            out[b[:, 1] > 1.0] = 0.0
        return out

    coeffs = GeneralMarketCoeffs(d=2, sigma=sigma,
                                 lam=lambda n, t, b: np.zeros(b.shape[0]))
    grid, paths = TimeGrid(1.0, 9), 2 * BLOCK_SIZE + 5
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    for n in (1.0, 2.0):
        rep = nondegeneracy_check(coeffs, n, grid, paths, RandomStream(23))
        low, frac = _nondegeneracy_draw_all(coeffs, n, grid, paths,
                                            RandomStream(23))
        assert (rep.min_norm, rep.zero_fraction) == (low, frac)
        assert rep.degenerate == (n == 1.0)
        assert (0.0 < frac < 1.0) == (n == 1.0)


def test_nondegeneracy_check_holds_one_block():
    # the traced peak stays below one (paths, steps+1, d) float64 array: the
    # check never holds the driver of all paths
    coeffs, _ = _nondegenerate_family()
    grid, paths = TimeGrid(1.0, 64), 3 * BLOCK_SIZE + 5
    nondegeneracy_check(coeffs, 5.0, TimeGrid(1.0, 8), 50, RandomStream(3))
    tracemalloc.start()
    try:
        nondegeneracy_check(coeffs, 5.0, grid, paths, RandomStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < paths * (grid.steps + 1) * coeffs.d * 8


def _path_dependent_family():
    # volatility and integrand vary with the driver levels, so the per-path
    # energies (and their standard error) do too
    def sigma(n, _t, b):
        out = np.ones_like(b)
        out[:, 1] = 0.0 if math.isinf(n) else (1.0 + b[:, 0] ** 2) / n
        return out

    def nu(_t, b):
        out = np.zeros_like(b)
        out[:, 1] = np.cos(b[:, 1])
        return out

    return GeneralMarketCoeffs(d=2, sigma=sigma,
                               lam=lambda n, t, b: np.zeros(b.shape[0])), nu


@pytest.mark.parametrize("family, n_values", [
    (_kw_setup("nondegenerate"), [1.0, 3.0, 10.0, 30.0]),
    (_kw_setup("degenerate"), [1.0, 4.0, math.inf]),
    (_path_dependent_family(), [0.5, 2.0, 7.0]),
], ids=["nondegenerate", "degenerate", "path_dependent"])
def test_diag_is_bitwise_decompose(family, n_values, monkeypatch):
    # the diagnostic's energies, SEs and zero fractions are those of a full
    # kw_decompose on the same increments, bit for bit; 700 paths fit one
    # chunk at the default budget, so the budget is cut to 16 nodes, and 37
    # steps end in a partial chunk of nodes
    coeffs, nu_fn = family
    paths, d = 700, coeffs.d
    monkeypatch.setattr(stopping, "_CHUNK_VALUES", 16 * paths * d)
    assert stopping.chunk_steps(paths * d) == 16
    for steps in (24, 37):
        grid = TimeGrid(1.0, steps)
        rows = kw_convergence_diag(nu_fn, coeffs, n_values, grid, paths,
                                   RandomStream(13))
        flat = RandomStream(13).split(0).standard_normals(paths, steps * d)
        db = math.sqrt(grid.dt) * flat.reshape(paths, steps, d)
        b = np.zeros((paths, steps + 1, d))
        np.cumsum(db, axis=1, out=b[:, 1:, :])
        t = grid.times
        nu = np.stack([np.broadcast_to(nu_fn(t[k], b[:, k, :]), (paths, d))
                       for k in range(steps)], axis=1)
        assert len(rows) == len(n_values)
        for row, n in zip(rows, n_values):
            sigma = np.stack([coeffs.sigma_at(n, t[k], b[:, k, :])
                              for k in range(steps)], axis=1)
            res = kw_decompose(nu, sigma, db, grid.dt)
            assert row.n == n
            assert row.energy == res.energy
            assert row.zero_fraction == res.zero_fraction
        # and those of the einsum coefficient, so the component-wise
        # reductions are pinned to the arithmetic they replaced
        ref = kw_rows_draw_all(nu_fn, coeffs, n_values, grid, paths,
                               RandomStream(13))
        assert [(r.n, r.energy, r.zero_fraction) for r in rows] == ref
        assert rows[-1].zero_fraction == (1.0 if math.isinf(n_values[-1])
                                          else 0.0)
