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
``E[sum H**2 |sigma|**2 dt]`` along a family of markets indexed by ``n``
whose members have constant coefficients, for a constant integrand, so every
cell of every path carries the same energy and no driver is drawn.  It
requires the integrand to be orthogonal to the limit volatility; families
whose volatility collapses to zero keep constant energy (the remainder never
shrinks), while families with a nondegenerate limit lose energy at the rate
the volatility aligns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import Estimate, mc_estimate
from .market import GeneralMarketCoeffs, TimeGrid, _volatility

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


def _dot(a, b):
    """``sum_j a_j b_j`` over the last axis, one component at a time in
    order: an ``einsum`` over a short axis adds the same products in the
    same order, so the values agree but for the sign of a zero."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _coefficient(nu, sigma):
    """``(|sigma|**2, H, |sigma| == 0)`` per cell, ``H = 0`` where zero.

    The cells may have any leading shape (``(paths, steps, d)``, or one
    ``(1, d)`` cell for a constant family): each cell reduces over its own
    ``d`` axis, last, so its values do not depend on the layout.
    """
    sig2 = _dot(sigma, sigma)
    h = _dot(nu, sigma)
    zero = sig2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h /= sig2
    h[zero] = 0.0
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


def kw_convergence_diag(nu, coeffs: GeneralMarketCoeffs, n_values,
                        grid: TimeGrid, paths: int) -> list[KWDiagRow]:
    """Projection energies along a market family, for a constant integrand.

    ``nu`` is the integrand's length-``d`` vector (a scalar broadcasts,
    another length raises ``ValueError``).  Precondition:
    ``|nu . sigma(inf)| < 1e-10``, checked once against the limit
    volatility; a violation raises ``ValueError`` before any row is
    returned.  A member's coefficients are constant, so per ``n`` the
    coefficient ``H`` and ``|sigma_n|**2`` are formed once, by the cellwise
    rule of :func:`kw_decompose`, and every cell carries the same product
    ``H**2 |sigma_n|**2``.  Each path's energy is the sum of its ``steps``
    equal products times ``dt`` and a row is ``mc_estimate`` over ``paths``
    copies of it: the bits of :func:`kw_decompose` on any driver
    increments, so no driver is drawn.
    """
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (1, coeffs.d))
    worst = abs(float(_dot(nu, _volatility(coeffs, math.inf))[0]))
    if worst >= ORTHO_TOL:
        raise ValueError(
            f"integrand is not orthogonal to the limit volatility "
            f"(|nu . sigma_inf| = {worst:.3g} >= {ORTHO_TOL:g})")
    rows = []
    for n in n_values:
        sig2, h, zero = _coefficient(nu, _volatility(coeffs, n)[None])
        h *= h
        h *= sig2
        energy = np.sum(np.full(grid.steps, h[0])) * grid.dt
        rows.append(KWDiagRow(n=float(n),
                              energy=mc_estimate(np.full(paths, energy)),
                              zero_fraction=float(zero[0])))
    return rows


@dataclass(frozen=True)
class NondegeneracyReport:
    """Whether a family member's volatility stays away from zero."""

    n: float
    min_norm: float
    zero_fraction: float
    degenerate: bool


def nondegeneracy_check(coeffs: GeneralMarketCoeffs,
                        n) -> NondegeneracyReport:
    """Read ``|sigma_n|`` and flag degeneracy: a member whose ``|sigma_n|``
    is at most 1e-12 is zero at every node."""
    sig = _volatility(coeffs, n)
    norm = math.sqrt(float(_dot(sig, sig)))
    zero = norm <= 1e-12
    return NondegeneracyReport(n=float(n), min_norm=norm,
                               zero_fraction=float(zero), degenerate=zero)
