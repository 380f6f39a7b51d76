"""Dual-side upper bounds: densities, perturbations, subreplication."""

import math

import numpy as np
import pytest

from mcduality.affine import density_moment
from mcduality.estimates import mc_estimate
from mcduality import dual, stopping
from mcduality.dual import (DualCandidate, dual_bound_mmm,
                            dual_bound_perturbed, minimize_dual,
                            perturbation_exponential, subreplication_estimate)
from mcduality.market import HestonParams, TimeGrid, simulate_heston_market
from mcduality.rng import BLOCK_SIZE, RandomStream
from mcduality.utility import (ConjugatePair, UtilitySpec, constant_claim,
                               logistic_claim)

from conftest import (BASE_PARAMS, SMALL_GRID, SMALL_PATHS, SMALL_SEED,
                      driver_draw_all, record_simplex_starts)


POWER = ConjugatePair(UtilitySpec.power(0.5))
EXP = ConjugatePair(UtilitySpec.exponential(1.0))


def test_candidate_validation():
    with pytest.raises(ValueError):
        DualCandidate(np.zeros((2, 4)))
    c = DualCandidate([0.1, 0.0, -0.2])
    assert c.coeffs.shape == (1, 3)


@pytest.mark.parametrize("cap", [0.5, math.nan])
def test_candidate_rejects_cap_below_one(cap):
    # a NaN cap would pass `cap < 1` and then cap nothing
    with pytest.raises(ValueError, match="cap"):
        DualCandidate(np.zeros((1, 3)), cap=cap)


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
    dwp = mix * np.diff(bundle.w, axis=1) - rho * np.diff(bundle.b, axis=1)
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
    negated_logs = dual._BundleWalks.of(bundle).negated_logs
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


@pytest.fixture
def chunked_bundle():
    # a fresh bundle per test, so its walk state is built under the test's
    # chunk budget
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
    assert chunked_bundle._walks is None
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


# ---------------------------------------------------------------------------
# the bundle's memo of terminal exponentials
# ---------------------------------------------------------------------------

def _memo_bundle(seed=17):
    """A fresh ten-step bundle: an empty memo of 11 entries at most."""
    return simulate_heston_market(BASE_PARAMS.with_rho(0.3), TimeGrid(1.0, 10),
                                  600, RandomStream(seed))


def _fresh_terminal(bundle, cand):
    """The terminal exponential walked on walk state of its own, apart from
    the bundle's."""
    logs, node = dual._BundleWalks(bundle).negated_logs(cand)
    return np.exp(-logs[node, np.arange(bundle.paths)])


def _candidates(n, buckets, cap=dual._CAP, seed=0):
    rng = np.random.default_rng(seed)
    return [DualCandidate(c, cap=cap)
            for c in rng.uniform(-1.0, 1.0, size=(n, buckets, 3))]


def _held(bundle):
    """The memo's rows, by key, in order from least recently used."""
    memo = bundle._walks
    return {key: memo.slab[i].copy() for key, i in memo.rows.items()}


@pytest.mark.parametrize("with_claim", [False, True])
@pytest.mark.parametrize("cap", [1.5, 8.0, 1e6])
@pytest.mark.parametrize("buckets", [1, 2, 3])
def test_memo_hit_is_fresh_walk(buckets, cap, with_claim, monkeypatch):
    bundle = _memo_bundle()
    claim = logistic_claim(rate=-2.0, scale=2.0) if with_claim else None
    cands = _candidates(4, buckets, cap, seed=buckets)
    misses = [dual._perturbed_bound(POWER, 0.8, bundle, claim)(c)
              for c in cands]
    held = _held(bundle)
    assert list(held) == [dual._BundleWalks.key(c) for c in cands]
    fresh = [_fresh_terminal(bundle, c) for c in cands]

    def no_walk(_walks, _candidate):
        raise AssertionError("a memo hit walked")

    monkeypatch.setattr(dual._BundleWalks, "negated_logs", no_walk)
    bound = dual._perturbed_bound(POWER, 0.8, bundle, claim)
    f = dual._claim_values(claim, bundle)
    for cand, miss, elt, ref in zip(cands, misses, held.values(), fresh):
        assert np.array_equal(elt, ref)
        expected = mc_estimate(dual._conjugate_samples(
            POWER, 0.8, bundle.z * ref, claim, f))
        assert miss == expected
        assert bound(cand) == expected


def test_memo_never_shared_between_bundles():
    a, b = _memo_bundle(17), _memo_bundle(18)
    assert a.paths == b.paths and a.steps == b.steps
    cands = _candidates(3, 2)
    for cand in cands:
        dual._perturbed_bound(POWER, 1.0, a, None)(cand)
    assert b._walks is None
    est_b = [dual._perturbed_bound(POWER, 1.0, b, None)(c) for c in cands]
    assert a._walks is not b._walks
    held_a, held_b = _held(a), _held(b)
    assert list(held_a) == list(held_b)
    for cand, ea, eb in zip(cands, held_a.values(), held_b.values()):
        assert not np.array_equal(ea, eb)
        assert np.array_equal(eb, _fresh_terminal(b, cand))
    fresh_b = _memo_bundle(18)
    assert est_b == [dual._perturbed_bound(POWER, 1.0, fresh_b, None)(c)
                     for c in cands]


def test_memo_is_bounded_and_evicts_least_recently_used():
    bundle = _memo_bundle()
    limit = bundle.steps + 1
    cands = _candidates(limit + 4, 2)
    terminal = dual._BundleWalks.of(bundle).terminal
    memo = bundle._walks
    assert memo.slab.shape == (limit, bundle.paths)
    first = terminal(cands[0]).copy()
    kept = dual._BundleWalks.key(cands[1])
    sizes = []
    for cand in cands[1:]:
        terminal(cand)
        terminal(cands[1])      # kept in use, so never the one evicted
        sizes.append(len(memo.rows))
        assert kept in memo.rows
    assert max(sizes) == limit
    assert dual._BundleWalks.key(cands[0]) not in memo.rows
    again = terminal(cands[0])      # evicted long ago: walked again
    assert np.array_equal(again, first)
    assert np.array_equal(again, _fresh_terminal(bundle, cands[0]))
    assert len(memo.rows) == limit
    assert not again.flags.writeable
    assert memo.slab.shape == (limit, bundle.paths)


def test_minimize_dual_memo_never_reaches_a_result(monkeypatch):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    walks = 0
    real = dual.walk

    def counting(*args):
        nonlocal walks
        walks += 1
        return real(*args)

    monkeypatch.setattr(dual, "walk", counting)
    shared = _memo_bundle()
    shared_walks = fresh_walks = 0
    for y in (2.0, 0.5, 1.0):
        for c in (claim, None):
            before = walks
            got = minimize_dual(POWER, y, shared, c, buckets=2, budget=30)
            shared_walks += walks - before
            before = walks
            want = minimize_dual(POWER, y, _memo_bundle(), c, buckets=2,
                                 budget=30)
            fresh_walks += walks - before
            assert got.estimate == want.estimate
            assert got.best.label == want.best.label
            assert np.array_equal(got.best.coeffs, want.best.coeffs)
            assert got.evaluations == want.evaluations
            assert got.table == want.table
    # the searches on the shared bundle walk what they have in common once
    assert shared_walks < fresh_walks


def test_walk_state_is_built_once_per_bundle(monkeypatch):
    # six searches share one build of the walk inputs and buffers, and a
    # perturbation_exponential call between searches leaves the memo alone
    builds = 0
    real = dual._BundleWalks.__init__

    def counting(self, bundle):
        nonlocal builds
        builds += 1
        real(self, bundle)

    monkeypatch.setattr(dual._BundleWalks, "__init__", counting)
    bundle = _memo_bundle()
    claim = logistic_claim(rate=-2.0, scale=2.0)
    state = None
    between = iter(_candidates(6, 2, seed=1))
    for y in (0.5, 1.0, 2.0):
        for c in (claim, None):
            minimize_dual(POWER, y, bundle, c, buckets=2, budget=20)
            if state is None:
                state = bundle._walks
                inputs = (state.dwp, state.v, state.b, state.logs,
                          state.slab)
            assert bundle._walks is state
            assert all(a is b for a, b in zip(
                (state.dwp, state.v, state.b, state.logs, state.slab),
                inputs))
            held = _held(bundle)
            perturbation_exponential(next(between), bundle)
            after = _held(bundle)
            assert list(after) == list(held)
            assert all(np.array_equal(after[k], held[k]) for k in held)
    assert builds == 1
    # the inputs are the definitions, time-major and C-contiguous
    rho = bundle.params.rho
    dwp = (math.sqrt(1.0 - rho**2) * np.diff(bundle.w, axis=1)
           - rho * np.diff(bundle.b, axis=1))
    for got, want in ((state.dwp, dwp), (state.v, bundle.v[:, :-1]),
                      (state.b, bundle.b[:, :-1])):
        assert got.flags.c_contiguous
        assert np.array_equal(got, want.T)


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


@pytest.mark.parametrize("y", [-1.0, math.nan, math.inf])
def test_bounds_require_finite_positive_y(bundle_rho0, y):
    # an infinite y would give 0 +/- 0 for power utility
    cand = DualCandidate(np.zeros((1, 3)))
    for bound in (lambda: dual_bound_mmm(POWER, y, bundle_rho0),
                  lambda: dual_bound_perturbed(POWER, y, bundle_rho0, cand)):
        with pytest.raises(ValueError, match="finite y > 0"):
            bound()


def test_constant_claim_linearity_whole_line(bundle_rho0):
    # whole-line utility: claim term enters linearly through y Z_T f
    y, c = 0.8, 0.4
    base = dual_bound_mmm(EXP, y, bundle_rho0)
    with_claim = dual_bound_mmm(EXP, y, bundle_rho0, constant_claim(c))
    zmean = bundle_rho0.z.mean()
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


def test_minimize_dual_runs_from_distinct_starts(monkeypatch, bundle_rho03):
    # three runs share the budget, each from its own start; the reported
    # evaluation makes the count one more than the search's calls
    starts = record_simplex_starts(monkeypatch)
    opt = minimize_dual(POWER, 1.0, bundle_rho03,
                        logistic_claim(rate=-2.0, scale=2.0), buckets=2,
                        budget=60)
    assert len(starts) == 3
    assert len({tuple(s) for s in starts}) == 3
    assert opt.evaluations == 61


def test_minimize_dual_rejects_zero_budget(bundle_rho0):
    with pytest.raises(ValueError):
        minimize_dual(POWER, 1.0, bundle_rho0, budget=0)


@pytest.mark.parametrize("buckets", [0, -1, 11])
def test_minimize_dual_rejects_buckets_outside_steps(buckets, monkeypatch):
    bundle = _memo_bundle()

    def no_work(*_args):
        raise AssertionError("a bad bucket count reached the bound")

    monkeypatch.setattr(dual, "dual_bound_mmm", no_work)
    with pytest.raises(ValueError, match="buckets"):
        minimize_dual(POWER, 1.0, bundle, buckets=buckets, budget=5)
    assert bundle._walks is None


def test_minimize_dual_accepts_one_bucket_per_step():
    bundle = _memo_bundle()
    opt = minimize_dual(POWER, 1.0, bundle, buckets=bundle.steps, budget=3)
    assert opt.best.coeffs.shape == (bundle.steps, 3)


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
                                  SMALL_GRID, SMALL_PATHS,
                                  RandomStream(SMALL_SEED), t_prime=0.5,
                                  shifts=[-2.0, 0.0, 2.0])
    for _, est in rep.rows:
        assert est.mean == pytest.approx(0.3, abs=1e-15)
    assert rep.minimum.mean == pytest.approx(0.3, abs=1e-15)


def test_subreplication_matches_gaussian_quadrature():
    params = BASE_PARAMS.with_rho(0.3)
    grid = TimeGrid(1.0, 100)
    claim = logistic_claim(rate=1.0, scale=1.0)
    t_prime = 0.99
    rep = subreplication_estimate(claim, params, grid, 20000,
                                  RandomStream(29), t_prime,
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
    claim = logistic_claim(rate=-2.0, scale=2.0)
    shifts = np.arange(-5.0, 5.5, 1.0)
    far = subreplication_estimate(claim, params, grid, 8000,
                                  RandomStream(31), 0.5, shifts)
    near = subreplication_estimate(claim, params, grid, 8000,
                                   RandomStream(31), 0.99, shifts)
    # tightening the handoff toward the horizon moves the min toward phi_min
    assert near.minimum.mean <= far.minimum.mean + 3.0 * near.minimum.stderr
    assert near.minimum.mean - claim.phi_min < 0.02


def test_subreplication_rejects_bad_inputs(bundle_rho0, bundle_rho03):
    claim = logistic_claim(rate=1.0, scale=1.0)
    stream = RandomStream(SMALL_SEED)
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho0.params, SMALL_GRID,
                                SMALL_PATHS, stream, 0.5, [0.0])
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho03.params, SMALL_GRID,
                                SMALL_PATHS, stream, 1.0, [0.0])
    with pytest.raises(ValueError):
        subreplication_estimate(claim, bundle_rho03.params, SMALL_GRID,
                                SMALL_PATHS, stream, 0.123456, [0.0])


def test_subreplication_driver_only_is_bitwise_bundle():
    # the block-reduced tails give every bit of the estimate that a full
    # bundle's driver gives, at any worker count; two blocks, the last of
    # five paths
    params = BASE_PARAMS.with_rho(0.3)
    grid = TimeGrid(1.0, 40)
    paths = BLOCK_SIZE + 5
    bundle = simulate_heston_market(params, grid, paths, RandomStream(41))
    b = driver_draw_all(grid, paths, RandomStream(41))
    assert np.array_equal(b, bundle.b)
    claim = logistic_claim(rate=-2.0, scale=2.0)
    shifts = [-3.0, 0.0, 2.5]
    for t_prime, workers in ((0.0, 1), (0.5, 2), (0.975, 1), (0.975, 2)):
        k = grid.node_index(t_prime)
        tail = bundle.b[:, -1] - bundle.b[:, k]
        ref = [(x, mc_estimate(claim(tail + x))) for x in shifts]
        rep = subreplication_estimate(claim, params, grid, paths,
                                      RandomStream(41), t_prime, shifts,
                                      workers)
        assert [(x, e.mean, e.stderr) for x, e in rep.rows] == \
            [(x, e.mean, e.stderr) for x, e in ref]
        assert (rep.min_shift, rep.minimum) == min(
            ref, key=lambda r: r[1].mean)
