"""Regression hedge of a bounded claim, and what happens off its home market.

In the rho = 0 market the claim phi(B_T) is spanned by the traded gains, so
the bucketed regression hedge replicates it up to a small residual.  The same
holdings carried into a rho != 0 market leave a residual several times
larger: the claim has left the replicable set.
"""

from mcduality.market import HestonParams, TimeGrid, simulate_heston_market
from mcduality.primal import hedge_residual, lsmc_hedge
from mcduality.rng import RandomStream
from mcduality.utility import logistic_claim

M = 20_000
N = 96
SEED = 11

claim = logistic_claim(rate=-2.0, scale=2.0)
params = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
grid = TimeGrid(1.0, N)
stream = RandomStream(SEED)

home = simulate_heston_market(params, grid, M, stream)
away = simulate_heston_market(params.with_rho(0.3), grid, M, stream)

h = lsmc_hedge(claim, home, buckets=8)
print(f"hedge price        = {h.price:.4f} +- {h.price_stderr:.4f}")
print(f"residual sd (home) = {h.residual_sd:.4f}")

carried = hedge_residual(h.strategy, h.price, away, claim)
print(f"residual sd (rho = 0.3, same holdings) = {carried:.4f}"
      f"   ({carried / h.residual_sd:.1f}x the home residual)")

# a hedge refit in the away market does better, but cannot close the gap:
# the orthogonal Brownian component is not traded
h_away = lsmc_hedge(claim, away, buckets=8)
print(f"residual sd (rho = 0.3, refit hedge)   = {h_away.residual_sd:.4f}")
