"""Orthogonal-projection decomposition and its convergence diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from mcduality.experiments import _kw_setup
from mcduality.kw import (kw_convergence_diag, kw_decompose,
                          nondegeneracy_check)
from mcduality.market import (GeneralMarketCoeffs, TimeGrid,
                              simulate_general_market)
from mcduality.pricing import degenerate_coeffs
from mcduality.rng import BLOCK_SIZE, RandomStream

from conftest import kw_rows_draw_all


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
    coeffs = GeneralMarketCoeffs(
        d=2, sigma=lambda n: (1.0, 0.0 if math.isinf(n) else 1.0 / n),
        lam=lambda _n: 0.0)
    return coeffs, np.array([0.0, 1.0])


def test_diag_nondegenerate_energies_are_exact():
    # closed form: per-cell energy 1/(n^2+1), total T/(n^2+1)
    coeffs, nu = _nondegenerate_family()
    grid = TimeGrid(1.0, 32)
    n_values = [1.0, 3.0, 10.0, 30.0, 100.0]
    rows = kw_convergence_diag(nu, coeffs, n_values, grid, 500)
    for row, n in zip(rows, n_values):
        assert row.energy.mean == pytest.approx(1.0 / (n**2 + 1.0),
                                                rel=1e-12)
        assert row.zero_fraction == 0.0
    energies = [r.energy.mean for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0] / 4.0


def test_diag_degenerate_energy_stays_at_horizon():
    coeffs = degenerate_coeffs()
    rows = kw_convergence_diag(np.ones(1), coeffs, [1.0, 10.0, 100.0],
                               TimeGrid(1.0, 16), 200)
    for row in rows:
        assert row.energy.mean == pytest.approx(1.0, abs=1e-12)


def test_diag_zero_integrand_zero_energy():
    coeffs, _ = _nondegenerate_family()
    rows = kw_convergence_diag(np.zeros(2), coeffs, [2.0, 4.0],
                               TimeGrid(1.0, 8), 50)
    for row in rows:
        assert row.energy.mean == 0.0
        assert row.energy.stderr == 0.0


def test_diag_scaling_is_quadratic():
    coeffs, nu = _nondegenerate_family()
    grid = TimeGrid(1.0, 16)
    base = kw_convergence_diag(nu, coeffs, [5.0], grid, 100)
    scaled = kw_convergence_diag(3.0 * nu, coeffs, [5.0], grid, 100)
    assert scaled[0].energy.mean == pytest.approx(9.0 * base[0].energy.mean,
                                                  rel=1e-12)


def test_diag_orthogonality_precondition():
    coeffs, _ = _nondegenerate_family()
    bad_nu = np.array([1e-6, 1.0])   # component along the limit volatility
    with pytest.raises(ValueError):
        kw_convergence_diag(bad_nu, coeffs, [2.0], TimeGrid(1.0, 8), 20)


def test_vectors_of_the_wrong_length_rejected():
    # a member's volatility and the integrand are length-d vectors wherever
    # they are read: the simulated price, the diagnostic and the check
    coeffs = GeneralMarketCoeffs(d=2, sigma=lambda _n: (1.0, 0.5, 2.0),
                                 lam=lambda _n: 0.0)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        simulate_general_market(coeffs, 2.0, grid, 3, RandomStream(1))
    with pytest.raises(ValueError):
        kw_convergence_diag(np.array([0.0, 1.0]), coeffs, [2.0], grid, 3)
    with pytest.raises(ValueError):
        nondegeneracy_check(coeffs, 2.0)
    good, _ = _nondegenerate_family()
    with pytest.raises(ValueError):
        kw_convergence_diag(np.array([0.0, 1.0, 0.0]), good, [2.0], grid, 3)


def test_nondegeneracy_check_flags():
    coeffs, _ = _nondegenerate_family()
    ok = nondegeneracy_check(coeffs, 5.0)
    assert not ok.degenerate
    assert ok.zero_fraction == 0.0
    assert ok.min_norm >= 1.0

    limit = nondegeneracy_check(degenerate_coeffs(), math.inf)
    assert limit.degenerate
    assert limit.zero_fraction == 1.0


def test_nondegeneracy_check_holds_one_block():
    # the check reads |sigma_n| alone: its traced peak stays below one
    # column of a path block's driver, so it draws no driver at all
    coeffs, _ = _nondegenerate_family()
    nondegeneracy_check(coeffs, 5.0)
    tracemalloc.start()
    try:
        nondegeneracy_check(coeffs, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_SIZE * 8


@pytest.mark.parametrize("family, n_values", [
    (_kw_setup("nondegenerate"), [1.0, 3.0, 10.0, 30.0]),
    (_kw_setup("degenerate"), [1.0, 4.0, math.inf]),
], ids=["nondegenerate", "degenerate"])
def test_diag_is_bitwise_decompose(family, n_values):
    # the diagnostic's energies, SEs and zero fractions are those of a full
    # kw_decompose on drawn increments, bit for bit, at an even step count
    # and an odd one
    coeffs, nu = family
    paths, d = 700, coeffs.d
    for steps in (24, 37):
        grid = TimeGrid(1.0, steps)
        rows = kw_convergence_diag(nu, coeffs, n_values, grid, paths)
        flat = RandomStream(13).split(0).standard_normals(paths, steps * d)
        db = math.sqrt(grid.dt) * flat.reshape(paths, steps, d)
        assert len(rows) == len(n_values)
        for row, n in zip(rows, n_values):
            res = kw_decompose(nu, np.asarray(coeffs.sigma(n), dtype=float),
                               db, grid.dt)
            assert row.n == n
            assert row.energy == res.energy
            assert row.zero_fraction == res.zero_fraction
        # and those of the einsum coefficient, so the component-wise
        # reductions are pinned to the arithmetic they replaced
        ref = kw_rows_draw_all(nu, coeffs, n_values, grid, paths,
                               RandomStream(13))
        assert [(r.n, r.energy, r.zero_fraction) for r in rows] == ref
        assert rows[-1].zero_fraction == (1.0 if math.isinf(n_values[-1])
                                          else 0.0)
