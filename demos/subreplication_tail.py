# Conditional claim prices E[phi(B_T - B_T' + x)] over a grid of shifts x.
# Sending the shift far into the payoff's low tail drives the price toward
# inf phi; with T - T' small the whole curve hugs the payoff itself.  This
# is the mechanism that pins the subreplication price of phi(B_T) at its
# infimum whenever rho != 0.

import math

from mcduality.dual import subreplication_estimate
from mcduality.market import HestonParams, TimeGrid
from mcduality.rng import RandomStream
from mcduality.utility import logistic_claim

claim = logistic_claim(rate=-2.0, scale=2.0)
params = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
grid = TimeGrid(1.0, 100)

for t_prime in (0.5, 0.9, 0.99):
    rep = subreplication_estimate(claim, params.with_rho(0.3), grid, 10_000,
                                  RandomStream(5), t_prime,
                                  [-5, -3, -1, 0, 1, 3, 5])
    sd = math.sqrt(1.0 - t_prime)
    vals = "  ".join(f"{e.mean:.4f}" for _, e in rep.rows)
    print(f"T' = {t_prime:4.2f} (sd {sd:.3f}):  {vals}")
    print(f"         min {rep.minimum.mean:.4f} at shift {rep.min_shift:+.0f}"
          f"   (phi_min = {claim.phi_min})")
