"""Optimized values and indifference prices across correlation values.

Small-scale version of the `sweep` experiment: as rho -> 0 the optimized
value of the claim problem stays pinned under its row's dual cap, then jumps
above it at rho = 0 exactly, and the indifference price shows the same gap.
"""

import time

from mcduality.market import HestonParams, TimeGrid
from mcduality.pricing import rho_sweep
from mcduality.utility import ConjugatePair, UtilitySpec, logistic_claim

x = 0.75
pair = ConjugatePair(UtilitySpec.power(0.5))
claim = logistic_claim(rate=-2.0, scale=2.0)
params = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)

t0 = time.time()
res = rho_sweep(pair, x, claim, params, TimeGrid(1.0, 64), 6000, 20240,
                rho_values=[0.4, 0.2, 0.1], y_grid=[0.5, 0.8, 1.0, 1.25, 1.6],
                hedge_buckets=6, budget=60, w_budget=24)

base = res.row(0.0)
print(f"dual cap at rho = 0: {base.cap_value:.4f} +- {base.cap_stderr:.4f} "
      f"(attained at y = {base.y_star})")
print("  rho    value u          cap - u    price p(rho)     p(0) - p(rho)")
for r in res.rows:
    u = r.u_headline.estimate
    gap, gap_se = res.price_gap(r.rho) if r.rho != 0.0 else (0.0, 0.0)
    tag = "constrained" if r.headline_constrained else "unconstrained"
    print(f"{r.rho:5.2f}  {u.mean:7.4f}+-{u.stderr:.4f}  {r.cap_value - u.mean:+8.4f}"
          f"   {r.price.price:6.4f}+-{r.price.stderr:.4f}   {gap:+.4f}"
          f"  ({tag})")
print(f"done in {time.time() - t0:.1f}s")
