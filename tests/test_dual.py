"""Dual-side upper bounds: densities, perturbations, subreplication."""

import math

import numpy as np
import pytest

from mcduality.affine import density_moment
from mcduality import dual, stopping
from mcduality.dual import (DualCandidate, dual_bound_mmm,
                            dual_bound_perturbed, minimize_dual,
                            perturbation_exponential, subreplication_estimate)
from mcduality.market import (HestonParams, TimeGrid, simulate_driver,
                              simulate_heston_market)
from mcduality.rng import RandomStream
from mcduality.utility import (ConjugatePair, UtilitySpec, constant_claim,
                               logistic_claim)

from conftest import BASE_PARAMS, SMALL_GRID, SMALL_PATHS, SMALL_SEED


POWER = ConjugatePair(UtilitySpec.power(0.5))
EXP = ConjugatePair(UtilitySpec.exponential(1.0))


def test_candidate_validation():
    with pytest.raises(ValueError):
        DualCandidate(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        DualCandidate(np.zeros((1, 3)), cap=0.5)
    c = DualCandidate([0.1, 0.0, -0.2])
    assert c.coeffs.shape == (1, 3)


def test_perturbation_cap_exact(bundle_rho03):
    cand = DualCandidate(np.tile([0.5, 0.3, 0.2], (4, 1)), cap=1.5)
    elt = perturbation_exponential(cand, bundle_rho03)
    assert elt.shape == (bundle_rho03.paths, bundle_rho03.steps + 1)
    assert np.all(elt > 0.0)
    assert elt.max() <= 1.5
    assert np.all(elt[:, 0] == 1.0)


def _reference_exponential(candidate, bundle):
    """The capped exponential by a loop over time steps, on the integrand
    built path-major: the definition the evaluation kernel must match."""
    steps = bundle.steps
    buckets = candidate.coeffs.shape[0]
    nu = np.empty((bundle.paths, steps))
    edges = np.linspace(0, steps, buckets + 1).astype(int)
    for j in range(buckets):
        sl = slice(edges[j], edges[j + 1])
        c0, cv, cb = candidate.coeffs[j]
        nu[:, sl] = c0 + cv * bundle.v[:, sl] + cb * bundle.b[:, sl]
    rho = bundle.params.rho
    mix = math.sqrt(1.0 - rho**2)
    dwp = mix * bundle.increments("w") - rho * bundle.increments("b")
    loginc = nu * dwp - 0.5 * nu**2 * bundle.dt
    logcap = math.log(candidate.cap)
    out = np.empty((bundle.paths, steps + 1))
    out[:, 0] = 1.0
    loge = np.zeros(bundle.paths)
    active = np.ones(bundle.paths, dtype=bool)
    for k in range(steps):
        cand = loge + loginc[:, k]
        breach = active & (cand > logcap)
        active &= ~breach
        loge = np.where(active, cand, loge)
        out[:, k + 1] = np.exp(loge)
    return out


@pytest.fixture(scope="module")
def ten_step_bundles():
    grid = TimeGrid(1.0, 10)
    return {rho: simulate_heston_market(BASE_PARAMS.with_rho(rho), grid, 600,
                                        RandomStream(17))
            for rho in (0.0, 0.3)}


def _stopped_fractions_bitwise(bundle, cap, buckets):
    """Check the kernel against the step loop on four random candidates;
    return the fraction of paths each one stops."""
    rng = np.random.default_rng(buckets)
    negated_logs = dual._perturbed_logs(bundle)
    stopped = []
    for coeffs in rng.uniform(-1.0, 1.0, size=(4, buckets, 3)):
        cand = DualCandidate(coeffs, cap=cap)
        ref = _reference_exponential(cand, bundle)
        logs, node = negated_logs(cand)
        terminal = np.exp(-logs[node, np.arange(bundle.paths)])
        assert np.array_equal(terminal, ref[:, -1])
        assert np.array_equal(perturbation_exponential(cand, bundle), ref)
        stopped.append(float(np.mean(node < bundle.steps)))
    return stopped


@pytest.mark.parametrize("rho", [0.0, 0.3])
@pytest.mark.parametrize("cap", [1.5, 1e6])
@pytest.mark.parametrize("buckets", [1, 2, 3])
def test_kernel_is_bitwise_step_loop(ten_step_bundles, rho, cap, buckets):
    stopped = _stopped_fractions_bitwise(ten_step_bundles[rho], cap, buckets)
    # the draws exercise the cap: about a third of the paths stop at 1.5,
    # none at 1e6
    assert max(stopped) > 0.3 if cap == 1.5 else max(stopped) == 0.0


@pytest.fixture(scope="module")
def chunked_bundle():
    return simulate_heston_market(BASE_PARAMS.with_rho(0.3), TimeGrid(1.0, 37),
                                  300, RandomStream(23))


@pytest.mark.parametrize("cap", [1.5, 1e6])
@pytest.mark.parametrize("buckets", [1, 2, 3, 5])
def test_kernel_is_bitwise_step_loop_across_chunks(chunked_bundle, cap,
                                                   buckets, monkeypatch):
    # several chunks of steps, the last one short, with bucket edges
    # falling inside chunks: 300 paths fit one chunk at the default budget,
    # so the budget is cut to 16 rows
    monkeypatch.setattr(stopping, "_CHUNK_VALUES", 16 * chunked_bundle.paths)
    steps, chunk = chunked_bundle.steps, stopping.chunk_steps(
        chunked_bundle.paths)
    assert steps > 2 * chunk and steps % chunk != 0
    stopped = _stopped_fractions_bitwise(chunked_bundle, cap, buckets)
    assert max(stopped) > 0.3 if cap == 1.5 else max(stopped) == 0.0


@pytest.mark.parametrize("pair", [POWER, EXP], ids=["power", "exponential"])
@pytest.mark.parametrize("with_claim", [False, True])
def test_search_objective_is_perturbed_bound(bundle_rho03, pair, with_claim):
    claim = logistic_claim(rate=-2.0, scale=2.0) if with_claim else None
    bound = dual._perturbed_bound(pair, 0.8, bundle_rho03, claim)
    rng = np.random.default_rng(5)
    for coeffs in rng.uniform(-0.6, 0.6, size=(5, 2, 3)):
        cand = DualCandidate(coeffs)
        assert bound(cand) == dual_bound_perturbed(pair, 0.8, bundle_rho03,
                                                   cand, claim)


def test_perturbation_zero_integrand_is_one(bundle_rho0):
    cand = DualCandidate(np.zeros((1, 3)))
    elt = perturbation_exponential(cand, bundle_rho0)
    assert np.array_equal(elt, np.ones_like(elt))


def test_perturbation_is_mean_one_when_uncapped(bundle_rho0):
    # modest integrand, generous cap: stopping never fires and the
    # stochastic exponential is an exact discrete martingale
    cand = DualCandidate([0.0, 0.0, 0.15], cap=1e6)
    elt = perturbation_exponential(cand, bundle_rho0)[:, -1]
    z = (elt.mean() - 1.0) / (elt.std(ddof=1) / math.sqrt(elt.size))
    assert abs(z) < 3.0


def test_mmm_degenerate_density_exact():
    params = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
    bundle = simulate_heston_market(params, TimeGrid(1.0, 16), 200,
                                    RandomStream(5))
    est = dual_bound_mmm(POWER, 2.0, bundle)
    # Z is identically 1, so every sample is V(2) = (1-p)/p * 2^{p/(p-1)} = 0.5
    assert est.mean == pytest.approx(0.5, abs=1e-15)
    assert est.stderr == 0.0


def test_mmm_matches_affine_oracle(bundle_rho0):
    # E[V(y Z_T)] = ((1-p)/p) y^q E[Z_T^q], q = p/(p-1), via the affine
    # reduction of the density moment
    y = 1.3
    q = 0.5 / (0.5 - 1.0)
    closed = 1.0 * y**q * density_moment(BASE_PARAMS, q, horizon=1.0)
    est = dual_bound_mmm(POWER, y, bundle_rho0)
    assert abs(est.mean - closed) < 3.0 * est.stderr


def test_mmm_requires_positive_y(bundle_rho0):
    with pytest.raises(ValueError):
        dual_bound_mmm(POWER, 0.0, bundle_rho0)


def test_constant_claim_linearity_whole_line(bundle_rho0):
    # whole-line utility: claim term enters linearly through y Z_T f
    y, c = 0.8, 0.4
    base = dual_bound_mmm(EXP, y, bundle_rho0)
    with_claim = dual_bound_mmm(EXP, y, bundle_rho0, constant_claim(c))
    zmean = bundle_rho0.z[:, -1].mean()
    assert with_claim.mean == pytest.approx(base.mean + y * c * zmean,
                                            abs=1e-12)


def test_mmm_rho_invariant(bundle_rho0, bundle_rho03):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    a = dual_bound_mmm(POWER, 1.0, bundle_rho0, claim)
    b = dual_bound_mmm(POWER, 1.0, bundle_rho03, claim)
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_perturbed_zero_candidate_matches_mmm(bundle_rho03):
    cand = DualCandidate(np.zeros((2, 3)))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    a = dual_bound_mmm(POWER, 1.0, bundle_rho03, claim)
    b = dual_bound_perturbed(POWER, 1.0, bundle_rho03, cand, claim)
    assert a.mean == b.mean


def _constant_grid(values):
    """Constant-coefficient candidates over ``values`` per basis slot
    ``(1, V, B)``, without the all-zero one (the baseline)."""
    grid = [DualCandidate([c0, cv, cb]) for c0 in values for cv in values
            for cb in values if not c0 == cv == cb == 0.0]
    assert len(grid) == 26
    return grid


def test_replicable_case_mmm_near_optimal(bundle_rho0):
    # claim a function of B only in the rho=0 market: no candidate should
    # beat the baseline by a statistically visible margin
    claim = logistic_claim(rate=1.0, scale=1.0)
    mmm = dual_bound_mmm(POWER, 1.0, bundle_rho0, claim)
    for cand in _constant_grid([-0.4, 0.0, 0.4]):
        est = dual_bound_perturbed(POWER, 1.0, bundle_rho0, cand, claim)
        assert est.mean >= mmm.mean - 3.0 * math.hypot(est.stderr, mmm.stderr)


def test_nonreplicable_case_strict_improvement(bundle_rho03):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    mmm = dual_bound_mmm(POWER, 1.0, bundle_rho03, claim)
    best = min(dual_bound_perturbed(POWER, 1.0, bundle_rho03, cand,
                                    claim).mean
               for cand in _constant_grid([-0.3, 0.0, 0.3]))
    assert best < mmm.mean


def test_minimize_dual_never_worse_than_mmm(bundle_rho03):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    opt = minimize_dual(POWER, 1.0, bundle_rho03, claim, budget=45)
    mmm = opt.table[0][1]
    assert opt.estimate.mean <= mmm.mean


def test_minimize_dual_deterministic(bundle_rho03):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    a = minimize_dual(POWER, 1.0, bundle_rho03, claim, budget=45)
    b = minimize_dual(POWER, 1.0, bundle_rho03, claim, budget=45)
    assert a.estimate.mean == b.estimate.mean
    assert np.array_equal(a.best.coeffs, b.best.coeffs)


def test_minimize_dual_rejects_zero_budget(bundle_rho0):
    with pytest.raises(ValueError):
        minimize_dual(POWER, 1.0, bundle_rho0, budget=0)


def test_dual_convexity_in_y(bundle_rho0):
    y1, y2 = 0.6, 1.8
    vals = [dual_bound_mmm(POWER, y, bundle_rho0).mean
            for y in (y1, 0.5 * (y1 + y2), y2)]
    se = dual_bound_mmm(POWER, 0.5 * (y1 + y2), bundle_rho0).stderr
    assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 3.0 * se


# ---------------------------------------------------------------------------
# subreplication
# ---------------------------------------------------------------------------

def _gauss_quad_logistic(rate, scale, sd, shift, n=80):
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    vals = scale / (1.0 + np.exp(-rate * (sd * nodes + shift)))
    return float((weights * vals).sum() / math.sqrt(2.0 * math.pi))


def test_subreplication_constant_claim_exact(bundle_rho03):
    rep = subreplication_estimate(constant_claim(0.3), bundle_rho03.params,
                                  SMALL_GRID, bundle_rho03.b, t_prime=0.5,
                                  shifts=[-2.0, 0.0, 2.0])
    for _, est in rep.rows:
        assert est.mean == pytest.approx(0.3, abs=1e-15)
    assert rep.minimum.mean == pytest.approx(0.3, abs=1e-15)


def test_subreplication_matches_gaussian_quadrature():
    params = BASE_PARAMS.with_rho(0.3)
    grid = TimeGrid(1.0, 100)
    b = simulate_driver(grid, 20000, RandomStream(29))
    claim = logistic_claim(rate=1.0, scale=1.0)
    t_prime = 0.99
    rep = subreplication_estimate(claim, params, grid, b, t_prime,
                                  shifts=[-5.0, 0.0, 5.0])
    sd = math.sqrt(1.0 - t_prime)
    for shift, est in rep.rows:
        oracle = _gauss_quad_logistic(1.0, 1.0, sd, shift)
        assert abs(est.mean - oracle) < 3.0 * max(est.stderr, 1e-12), shift
    # the x = -5 row reproduces the known tail value ~ 0.0067
    assert rep.rows[0][0] == -5.0
    lo = rep.rows[0][1]
    assert abs(lo.mean - 0.006693) < 3.0 * max(lo.stderr, 1e-4)


def test_subreplication_min_approaches_floor():
    params = BASE_PARAMS.with_rho(0.3)
    grid = TimeGrid(1.0, 100)
    b = simulate_driver(grid, 8000, RandomStream(31))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    shifts = np.arange(-5.0, 5.5, 1.0)
    far = subreplication_estimate(claim, params, grid, b, 0.5, shifts)
    near = subreplication_estimate(claim, params, grid, b, 0.99, shifts)
    # tightening the handoff toward the horizon moves the min toward phi_min
    assert near.minimum.mean <= far.minimum.mean + 3.0 * near.minimum.stderr
    assert near.minimum.mean - claim.phi_min < 0.02


def test_subreplication_rejects_bad_inputs(bundle_rho0, bundle_rho03):
    claim = logistic_claim()
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho0.params, SMALL_GRID,
                                bundle_rho0.b, 0.5, [0.0])
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho03.params, SMALL_GRID,
                                bundle_rho03.b, 1.0, [0.0])
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho03.params, SMALL_GRID,
                                bundle_rho03.b, 0.123456, [0.0])


def test_subreplication_driver_only_is_bitwise_bundle():
    # the driver alone gives every bit of the estimate a full bundle gives
    params = BASE_PARAMS.with_rho(0.3)
    grid = TimeGrid(1.0, 40)
    bundle = simulate_heston_market(params, grid, 5000, RandomStream(41))
    b = simulate_driver(grid, 5000, RandomStream(41))
    assert np.array_equal(b, bundle.b)
    claim = logistic_claim(rate=-2.0, scale=2.0)
    for t_prime in (0.0, 0.5, 0.975):
        full = subreplication_estimate(claim, params, grid, bundle.b, t_prime,
                                       [-3.0, 0.0, 2.5])
        alone = subreplication_estimate(claim, params, grid, b, t_prime,
                                        [-3.0, 0.0, 2.5])
        assert [(x, e.mean, e.stderr) for x, e in full.rows] == \
            [(x, e.mean, e.stderr) for x, e in alone.rows]
        assert (full.min_shift, full.minimum) == (alone.min_shift,
                                                  alone.minimum)
