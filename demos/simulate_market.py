import time

import numpy as np

from mcduality.affine import AffineMomentQuery, affine_exponential_moment, cir_bond_price
from mcduality.estimates import mc_estimate
from mcduality.market import HestonParams, TimeGrid, simulate_heston_market
from mcduality.rng import RandomStream

# Parameters
mu = 0.5
kappa = 2.0
theta = 1.0
sigma = 0.7
V0 = 1.0
T = 1.0
N = 256
M = 40_000
SEED = 42

params = HestonParams(mu=mu, kappa=kappa, theta=theta, sigma=sigma, v0=V0)
grid = TimeGrid(T, N)

t0 = time.time()
for rho in (0.0, 0.3):
    bundle = simulate_heston_market(params.with_rho(rho), grid, M,
                                    RandomStream(SEED))
    vT = mc_estimate(bundle.v[:, -1])
    zT = mc_estimate(bundle.z)
    sT = mc_estimate(bundle.s[:, -1])
    print(f"rho = {rho}")
    print(f"  E[V_T]  = {vT.mean:.5f} +- {vT.stderr:.5f}   "
          f"(exact {theta + (V0 - theta) * np.exp(-kappa * T):.5f})")
    print(f"  E[Z_T]  = {zT.mean:.5f} +- {zT.stderr:.5f}   (exact 1, any rho)")
    print(f"  E[S_T]  = {sT.mean:.5f} +- {sT.stderr:.5f}   "
          f"(drift mu*E[int V] = {mu * T:.5f})")

# integrated-variance moment against the Riccati route and the closed form
int_v = bundle.v[:, :-1].sum(axis=1) * grid.dt
for u in (0.4, 1.0):
    est = mc_estimate(np.exp(-u * int_v))
    ric = affine_exponential_moment(params, AffineMomentQuery(0.0, -u, T))
    bond = cir_bond_price(params, u, T)
    print(f"E[exp(-{u} int V)] mc {est.mean:.5f} +- {est.stderr:.5f} | "
          f"riccati {ric:.6f} | closed form {bond:.6f}")

print(f"done in {time.time() - t0:.1f}s")
