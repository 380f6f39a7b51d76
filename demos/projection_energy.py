"""Projection energies along two market families.

Family A keeps a nondegenerate limit: the projection of the integrand onto
the volatility direction loses energy like 1/(n^2+1).  Family B lets the
volatility shrink to zero along a fixed direction: the projection
coefficient blows up while the captured energy refuses to move -- the
decomposition does not converge to that of the limit market.
"""

import math

import numpy as np

from mcduality.kw import kw_convergence_diag, nondegeneracy_check
from mcduality.market import GeneralMarketCoeffs, TimeGrid
from mcduality.pricing import degenerate_coeffs

N_VALUES = [1, 3, 10, 30, 100]
grid = TimeGrid(1.0, 64)

family_a = GeneralMarketCoeffs(
    d=2, sigma=lambda n: (1.0, 0.0 if math.isinf(n) else 1.0 / n),
    lam=lambda _n: 0.0)
nu_a = np.array([0.0, 1.0])

print("family A (limit volatility (1, 0), integrand (0, 1)):")
for row in kw_convergence_diag(nu_a, family_a, N_VALUES, grid, 2000):
    print(f"  n = {row.n:5.0f}   energy = {row.energy.mean:.6f}"
          f"   (exact 1/(n^2+1) = {1.0 / (row.n**2 + 1):.6f})")

print("family B (volatility -> 0 along the integrand):")
for row in kw_convergence_diag(np.ones(1), degenerate_coeffs(), N_VALUES,
                               grid, 2000):
    print(f"  n = {row.n:5.0f}   energy = {row.energy.mean:.6f}   (stuck at T)")

rep = nondegeneracy_check(degenerate_coeffs(), math.inf)
print(f"family B at n = inf: zero-volatility cell fraction = {rep.zero_fraction}")
