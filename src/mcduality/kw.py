"""Projection of an integrand onto the range of a market's volatility.

Given integrand vectors ``nu`` and volatility vectors ``sigma`` at each
(path, node) cell, the projection coefficient

    H = (nu . sigma) / |sigma|**2      (H = 0 where |sigma| = 0)

splits the Brownian integral ``nu . B`` into a hedgeable part ``H sigma . B``
and an orthogonal remainder ``L``.  Cellwise ``(nu - H sigma) . sigma = 0``
holds exactly, so the discrete brackets obey Pythagoras' rule to floating
point accuracy:

    |nu|**2 = |nu - H sigma|**2 + H**2 |sigma|**2   per cell.

The convergence diagnostic evaluates the projection energy
``E[sum H**2 |sigma|**2 dt]`` along a family of markets indexed by ``n`` on
common driver increments.  It requires the integrand to be orthogonal to the
limit volatility at every node; families whose volatility collapses to zero
keep constant energy (the remainder never shrinks), while families with a
nondegenerate limit lose energy at the rate the volatility aligns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import Estimate, mc_estimate
from .market import GeneralMarketCoeffs, TimeGrid, _driver_levels
from .rng import RandomStream
from .stopping import chunk_steps

__all__ = [
    "KWResult",
    "KWDiagRow",
    "NondegeneracyReport",
    "kw_decompose",
    "kw_convergence_diag",
    "nondegeneracy_check",
]

#: orthogonality tolerance for the diagnostic precondition
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class KWResult:
    """One projection: coefficient, remainder increments, energies."""

    h: np.ndarray               # (paths, steps) projection coefficient
    l_increments: np.ndarray    # (paths, steps) orthogonal remainder . dB
    energy: Estimate            # E[sum H^2 |sigma|^2 dt]
    residual_energy: Estimate   # E[sum |nu - H sigma|^2 dt]
    total_energy: Estimate      # E[sum |nu|^2 dt]
    zero_fraction: float        # fraction of cells with |sigma| = 0


def _cellwise(arr, paths, steps, d):
    out = np.asarray(arr, dtype=float)
    return np.broadcast_to(out, (paths, steps, d))


def _coefficient(nu, sigma):
    """``(|sigma|**2, H, |sigma| == 0)`` per cell, ``H = 0`` where zero.

    The cells may come in any order (``(paths, steps, d)`` or time-major
    ``(steps, paths, d)``): each cell reduces over its own ``d`` axis, last,
    so its values do not depend on the order.
    """
    sig2 = np.einsum("...d,...d->...", sigma, sigma)
    dot = np.einsum("...d,...d->...", nu, sigma)
    zero = sig2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(zero, 0.0, dot / np.where(zero, 1.0, sig2))
    return sig2, h, zero


def kw_decompose(nu, sigma, db, dt: float) -> KWResult:
    """Project ``nu`` on ``sigma`` cell by cell.

    ``db`` has shape ``(paths, steps, d)``; ``nu`` and ``sigma`` broadcast
    against it.  The projection coefficient is exactly zero on degenerate
    cells.
    """
    db = np.asarray(db, dtype=float)
    if db.ndim != 3:
        raise ValueError("db must have shape (paths, steps, d)")
    paths, steps, d = db.shape
    nu = _cellwise(nu, paths, steps, d)
    sigma = _cellwise(sigma, paths, steps, d)

    sig2, h, zero = _coefficient(nu, sigma)
    resid = nu - h[:, :, None] * sigma
    l_inc = np.einsum("pkd,pkd->pk", resid, db)
    energy = (h**2 * sig2).sum(axis=1) * dt
    resid_energy = np.einsum("pkd,pkd->pk", resid, resid).sum(axis=1) * dt
    total = np.einsum("pkd,pkd->pk", nu, nu).sum(axis=1) * dt
    return KWResult(h=h, l_increments=l_inc,
                    energy=mc_estimate(energy),
                    residual_energy=mc_estimate(resid_energy),
                    total_energy=mc_estimate(total),
                    zero_fraction=float(zero.mean()))


@dataclass(frozen=True)
class KWDiagRow:
    n: float
    energy: Estimate
    zero_fraction: float


def kw_convergence_diag(nu_fn, coeffs: GeneralMarketCoeffs, n_values,
                        grid: TimeGrid, paths: int,
                        stream: RandomStream) -> list[KWDiagRow]:
    """Projection energies along a market family on common increments.

    ``nu_fn(t, b)`` returns integrand vectors for driver levels ``b`` of
    shape ``(paths, d)``.  Precondition: ``|nu . sigma_inf| < 1e-10`` at
    every node, checked against the limit volatility ``n = inf``; violations
    raise ``ValueError``.  Per ``n`` only what a row reports is computed:
    the coefficient ``H``, the energy and the zero-cell fraction, each equal
    bit for bit to :func:`kw_decompose`'s on the same increments.  The
    cells are laid out time-major, so that each node's ``nu`` and ``sigma``
    are written contiguously.  ``nu`` is never held whole: the
    orthogonality check forms it one node at a time, and per ``n`` it is
    formed again, with ``sigma``, ``H`` and the products
    ``H**2 |sigma|**2``, for a chunk of ``stopping.chunk_steps(paths * d)``
    nodes at a time, the products going straight into one ``(paths,
    steps)`` buffer whose rows are summed over steps, which keeps numpy's
    pairwise summation of each path's energy; zero cells are counted
    exactly.
    """
    d, steps = coeffs.d, grid.steps
    b = _driver_levels(stream.split(0), grid, paths, d=d)
    t = grid.times

    chunk = chunk_steps(paths * d)
    nu = np.empty((min(chunk, steps), paths, d))
    worst = 0.0
    for k in range(steps):
        nu[0] = nu_fn(t[k], b[:, k, :])
        sig_inf = coeffs.sigma_at(math.inf, t[k], b[:, k, :])
        worst = max(worst, float(np.abs(
            np.einsum("pd,pd->p", nu[0], sig_inf)).max()))
    if worst >= ORTHO_TOL:
        raise ValueError(
            f"integrand is not orthogonal to the limit volatility "
            f"(max |nu . sigma_inf| = {worst:.3g} >= {ORTHO_TOL:g})")

    rows = []
    sigma = np.empty_like(nu)
    products = np.empty((paths, steps))
    for n in n_values:
        zeros = 0
        for k0 in range(0, steps, chunk):
            k1 = min(k0 + chunk, steps)
            for k in range(k0, k1):
                nu[k - k0] = nu_fn(t[k], b[:, k, :])
                sigma[k - k0] = coeffs.sigma_at(n, t[k], b[:, k, :])
            sig2, h, zero = _coefficient(nu[:k1 - k0], sigma[:k1 - k0])
            products[:, k0:k1] = (h**2 * sig2).T
            zeros += int(np.count_nonzero(zero))
        energy = products.sum(axis=1) * grid.dt
        rows.append(KWDiagRow(n=float(n), energy=mc_estimate(energy),
                              zero_fraction=zeros / (paths * steps)))
    return rows


@dataclass(frozen=True)
class NondegeneracyReport:
    """Whether a family member's volatility stays away from zero."""

    n: float
    min_norm: float
    zero_fraction: float
    degenerate: bool


def nondegeneracy_check(coeffs: GeneralMarketCoeffs, n, grid: TimeGrid,
                        paths: int, stream: RandomStream,
                        threshold: float = 1e-12) -> NondegeneracyReport:
    """Probe ``|sigma_n|`` over simulated nodes and flag degeneracy."""
    b = _driver_levels(stream.split(0), grid, paths, d=coeffs.d)

    min_norm = math.inf
    below = 0
    cells = 0
    for k in range(grid.steps):
        sig = coeffs.sigma_at(n, grid.times[k], b[:, k, :])
        norms = np.sqrt(np.einsum("pd,pd->p", sig, sig))
        min_norm = min(min_norm, float(norms.min()))
        below += int((norms <= threshold).sum())
        cells += norms.size
    frac = below / cells
    return NondegeneracyReport(n=float(n), min_norm=min_norm,
                               zero_fraction=frac,
                               degenerate=bool(frac > 0.0))
