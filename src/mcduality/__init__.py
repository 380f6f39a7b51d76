"""Monte Carlo bounds for utility maximization in stochastic-vol markets.

The package pairs primal lower bounds (explicit trading strategies, made
admissible by truncation and stopping) with dual upper bounds (conjugates
evaluated along candidate martingale densities) and exposes the derived
quantities of interest: indifference prices, correlation sweeps exhibiting
the small-correlation value discontinuity, degenerate-market benchmarks
with closed-form limits, projection diagnostics and an exact affine moment
oracle used for validation throughout.
"""

__version__ = "0.1.0"

from .estimates import Estimate, combined_se, mc_estimate
from .rng import RandomStream, worker_count
from .utility import (ClaimSpec, ConjugatePair, UtilitySpec, constant_claim,
                      constrained_conjugate, digital_claim, load_claim_table,
                      logistic_claim)
from .market import (GeneralMarketCoeffs, HestonParams, PathBundle, TimeGrid,
                     minimal_martingale_density, semimartingale_distance,
                     simulate_cir, simulate_driver, simulate_general_market,
                     simulate_heston_market)
from .affine import (AffineMomentQuery, MomentExplosionError,
                     affine_exponential_moment, cir_bond_price, density_moment)
from .dual import (DualCandidate, dual_bound_mmm, dual_bound_perturbed,
                   minimize_dual, subreplication_estimate)
from .primal import (BucketStrategy, ConstantFamily, HedgeMixFamily,
                     lsmc_hedge, optimize_primal, primal_bound)
from .kw import kw_convergence_diag, kw_decompose
from .pricing import degenerate_example, indifference_price, rho_sweep
from .experiments import run_experiment, validate_config
