"""Shared fixtures and helpers: small path bundles reused across test
modules, reference recursions and the conjugate identities."""

import math

import numpy as np
import pytest

from mcduality import (ConjugatePair, HestonParams, RandomStream, TimeGrid,
                       UtilitySpec, simulate_heston_market)
from mcduality import search
from mcduality.estimates import mc_estimate

BASE_PARAMS = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
SMALL_GRID = TimeGrid(horizon=1.0, steps=64)
SMALL_PATHS = 4000
SMALL_SEED = 11


@pytest.fixture(scope="session")
def bundle_rho0():
    return simulate_heston_market(BASE_PARAMS, SMALL_GRID, SMALL_PATHS,
                                  RandomStream(SMALL_SEED))


@pytest.fixture(scope="session")
def bundle_rho03():
    return simulate_heston_market(BASE_PARAMS.with_rho(0.3), SMALL_GRID,
                                  SMALL_PATHS, RandomStream(SMALL_SEED))


def cir_step_loop(params, grid, db):
    """Full-truncation Euler variance, one step at a time over all paths:
    the reference for the blocked recursion of the simulators."""
    paths, steps = db.shape
    raw = np.empty((paths, steps + 1))
    raw[:, 0] = params.v0
    x = np.full(paths, params.v0)
    for k in range(steps):
        xp = np.maximum(x, 0.0)
        x = x + params.kappa * (params.theta - xp) * grid.dt \
            + params.sigma * np.sqrt(xp) * db[:, k]
        raw[:, k + 1] = x
    return np.maximum(raw, 0.0)


def driver_draw_all(grid, paths, stream, d=None):
    """The driver as first written: every normal of ``stream.split(0)``
    drawn at once, scaled by ``sqrt(dt)`` and summed from zero."""
    trail = () if d is None else (d,)
    flat = stream.split(0).standard_normals(paths, grid.steps * (d or 1))
    db = math.sqrt(grid.dt) * flat.reshape((paths, grid.steps) + trail)
    b = np.zeros((paths, grid.steps + 1) + trail)
    np.cumsum(db, axis=1, out=b[:, 1:])
    return b


def kw_rows_draw_all(nu, coeffs, n_values, grid, paths, stream):
    """The projection diagnostic as first written, ``(n, energy,
    zero_fraction)`` per ``n``: the whole driver drawn, the constant ``nu``
    and ``sigma`` broadcast over its cells, and the coefficient's two
    reductions by ``np.einsum``."""
    b = driver_draw_all(grid, paths, stream, coeffs.d)
    cells = b[:, 1:].shape
    nu = np.broadcast_to(np.asarray(nu, dtype=float), cells)
    rows = []
    for n in n_values:
        sigma = np.broadcast_to(np.asarray(coeffs.sigma(n), dtype=float),
                                cells)
        sig2 = np.einsum("...d,...d->...", sigma, sigma)
        dot = np.einsum("...d,...d->...", nu, sigma)
        zero = sig2 == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(zero, 0.0, dot / np.where(zero, 1.0, sig2))
        energy = (h**2 * sig2).sum(axis=1) * grid.dt
        rows.append((float(n), mc_estimate(energy), float(zero.mean())))
    return rows


def record_simplex_starts(monkeypatch) -> list:
    """The start of every bounded simplex run, recorded as the runs go."""
    starts = []
    real = search._simplex

    def recording(objective, x0, lo, hi, maxfev):
        starts.append(np.array(x0, copy=True))
        return real(objective, x0, lo, hi, maxfev)

    monkeypatch.setattr(search, "_simplex", recording)
    return starts


def v_prime(pair, y):
    """The conjugate's derivative ``V'(y) = -(U')^{-1}(y)``."""
    return -np.asarray(pair.utility.inverse_marginal(y), dtype=float)


def exp_identity_errors(alpha, y_grid, c_grid) -> tuple[float, float]:
    """Max absolute error of two exact exponential-conjugate identities
    over the grids ``y > 0`` and ``c > 0``.

    Identity 1: ``V'(c*y) = V'(y) + log(c)/alpha``.
    Identity 2: ``V(y) + y*c = y * (V'(y * exp(alpha*c)) - 1/alpha)``.
    """
    pair = ConjugatePair(UtilitySpec.exponential(alpha))
    y, c = np.meshgrid(np.ravel(y_grid), np.ravel(c_grid), indexing="ij")
    err1 = np.abs(v_prime(pair, c * y)
                  - (v_prime(pair, y) + np.log(c) / alpha))
    err2 = np.abs(pair.v(y) + y * c
                  - y * (v_prime(pair, y * np.exp(alpha * c)) - 1.0 / alpha))
    return float(err1.max()), float(err2.max())
