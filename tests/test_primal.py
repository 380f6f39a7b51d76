"""Strategy admissibility, regression hedging and the primal search."""

import math
import tracemalloc

import numpy as np
import pytest

from mcduality import primal
from mcduality.market import (TimeGrid, simulate_general_market,
                             simulate_heston_market)
from mcduality.pricing import degenerate_coeffs
from mcduality.estimates import mc_estimate
from mcduality.primal import (BucketStrategy, ConstantFamily, HedgeMixFamily,
                              PrimalResult, enforce_admissibility,
                              features_for, hedge_residual, lsmc_hedge,
                              optimize_primal, primal_bound, wealth_process,
                              _smoothed_delta)
from mcduality.rng import RandomStream
from mcduality.stopping import walk
from mcduality.utility import (ClaimSpec, ConjugatePair, UtilitySpec,
                               constant_claim, digital_claim, logistic_claim)

from conftest import BASE_PARAMS, SMALL_GRID


@pytest.fixture(scope="module")
def flat_market():
    # sigma = 1, no drift: S is the driver itself
    coeffs = degenerate_coeffs()
    return simulate_general_market(coeffs, 1.0, TimeGrid(1.0, 64), 2000,
                                   RandomStream(13))


def test_features_for_variants():
    assert features_for(1, False) == ("1", "b")
    assert features_for(2, True) == ("1", "b", "v", "b2", "bv", "v2")
    assert features_for(2, False, claim_adapted=True) == ("1", "b", "b2",
                                                          "delta")
    assert features_for(1, True, claim_adapted=True)[-1] == "deltav"
    with pytest.raises(ValueError):
        features_for(3, True)


def test_constant_strategy_wealth(flat_market):
    fam = ConstantFamily(floor=50.0)
    x = wealth_process(fam, [2.0], flat_market)
    b = flat_market.b[:, :, 0]
    assert np.allclose(x, 2.0 * (b - b[:, :1]), atol=1e-12)


def test_holding_clip(flat_market):
    # holding 7 under a cap of 3 trades exactly like holding 3
    fam = ConstantFamily(lo=-10.0, hi=10.0, max_holding=3.0, floor=50.0)
    x = wealth_process(fam, [7.0], flat_market)
    assert np.array_equal(x, wealth_process(fam, [3.0], flat_market))
    b = flat_market.b[:, :, 0]
    assert np.allclose(x, 3.0 * (b - b[:, :1]), atol=1e-12)


def test_state_linear_needs_variance(flat_market):
    strat = BucketStrategy(coeffs=[[0.0, 1.0]], features=("1", "v"))
    with pytest.raises(ValueError, match="needs a variance path"):
        strat.holdings(flat_market)


@pytest.mark.parametrize("rule", [{"floor": -1.0}, {"slack": 0.0},
                                  {"max_holding": -1.0}],
                         ids=["floor", "slack", "max_holding"])
@pytest.mark.parametrize("family", [ConstantFamily, HedgeMixFamily])
def test_family_floor_rule_checked_on_construction(family, rule):
    # given a hedge, the family fails on the rule, not on the missing hedge
    hedge = {"hedge": BucketStrategy()} if family is HedgeMixFamily else {}
    with pytest.raises(ValueError, match=next(iter(rule))):
        family(**rule, **hedge)


def test_hedge_mix_family_needs_a_hedge():
    with pytest.raises(ValueError, match="needs a hedge"):
        HedgeMixFamily()


def test_enforcement_stops_at_first_crossing(flat_market):
    fam = ConstantFamily(floor=1.0)
    enforced = enforce_admissibility(fam, [5.0], flat_market)
    assert enforced.threshold == -1.0 - fam.slack
    assert 0.0 < enforced.stopped_fraction < 1.0
    raw = wealth_process(fam, [5.0], flat_market)
    below = raw < enforced.threshold
    # paths never below threshold are untouched
    clean = ~below.any(axis=1)
    assert np.array_equal(enforced.wealth[clean], raw[clean])
    for i in np.where(~clean)[0][:50]:
        k = below[i].argmax()
        assert k >= 1
        # every node before the stop respects the floor and matches raw
        assert np.array_equal(enforced.wealth[i, :k + 1], raw[i, :k + 1])
        assert raw[i, :k].min() >= enforced.threshold
        # frozen at the crossing value, overshoot retained (no repair)
        assert np.all(enforced.wealth[i, k:] == raw[i, k])
        assert enforced.wealth[i, k] < enforced.threshold
    # a stopped path is frozen at its overall minimum: pre-stop nodes sit at
    # or above the floor, the frozen crossing value below it
    stopped = ~clean
    running_min = np.minimum.accumulate(enforced.wealth, axis=1)
    assert np.array_equal(enforced.wealth[stopped, -1],
                          running_min[stopped, -1])


def test_enforcement_rejects_nonnegative_threshold(flat_market):
    fam = ConstantFamily(floor=1.0)
    with pytest.raises(ValueError):
        enforce_admissibility(fam, [1.0], flat_market, x=0.0,
                              constrained=True, phi_min=0.0)


def test_constrained_floor_tighter(flat_market):
    fam = ConstantFamily(floor=8.0)
    unc = enforce_admissibility(fam, [5.0], flat_market)
    con = enforce_admissibility(fam, [5.0], flat_market, x=1.5,
                                constrained=True, phi_min=0.0)
    assert con.threshold == -1.5
    assert con.stopped_fraction >= unc.stopped_fraction
    # pre-stop nodes respect the tighter floor; only crossing nodes dip below
    below = con.wealth < con.threshold
    first = np.where(below.any(axis=1), below.argmax(axis=1),
                     con.wealth.shape[1])
    for i in range(con.wealth.shape[0]):
        assert con.wealth[i, :first[i]].min(initial=np.inf) >= con.threshold


def test_cash_translation_identity(flat_market):
    # adding a constant claim c is bit-identical to starting at x + c
    pair = ConjugatePair(UtilitySpec.exponential(1.0))
    fam = ConstantFamily(floor=30.0)
    with_claim = primal_bound(pair, 0.5, fam, [1.0], flat_market,
                              claim=constant_claim(0.25))
    shifted = primal_bound(pair, 0.75, fam, [1.0], flat_market)
    assert with_claim.estimate.mean == shifted.estimate.mean
    assert with_claim.estimate.stderr == shifted.estimate.stderr


def test_primal_bound_domain_violations(flat_market):
    pair = ConjugatePair(UtilitySpec.power(0.5))
    fam = ConstantFamily(floor=30.0)   # floor far below domain edge
    res = primal_bound(pair, 0.25, fam, [4.0], flat_market)
    assert res.estimate.mean == -math.inf
    assert res.violations > 0


def test_lsmc_exact_fit_linear_claim(flat_market):
    claim = ClaimSpec([-10.0, 10.0], [-10.0, 10.0])   # identity payoff
    hedge = lsmc_hedge(claim, flat_market, buckets=4, degree=1,
                       claim_adapted=False)
    assert hedge.residual_sd < 1e-10
    assert hedge.price == pytest.approx(0.0, abs=1e-10)
    assert hedge.r_squared > 1.0 - 1e-12


def test_lsmc_deterministic(flat_market):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    a = lsmc_hedge(claim, flat_market, buckets=6)
    b = lsmc_hedge(claim, flat_market, buckets=6)
    assert np.array_equal(a.strategy.coeffs, b.strategy.coeffs)
    assert a.price == b.price and a.residual_sd == b.residual_sd


def test_smoothed_delta_matches_digital_kernel(flat_market):
    claim = digital_claim(level=1.0, at=0.0)
    d = _smoothed_delta(claim, flat_market)
    times = flat_market.times
    j = 8
    tau = float(times[-1] - times[j])
    b = flat_market.b[:, j, 0]
    exact = np.exp(-b**2 / (2 * tau)) / math.sqrt(2 * math.pi * tau)
    sel = np.abs(b) < 2.0
    assert np.allclose(d[sel, j], exact[sel], rtol=2e-3, atol=1e-4)


def test_smoothed_delta_near_expiry_is_payoff_slope(flat_market):
    claim = logistic_claim(rate=1.0, scale=1.0)
    d = _smoothed_delta(claim, flat_market)
    b = flat_market.b[:, -2, 0]
    # at tau = dt the smoothing is nearly invisible for a smooth payoff
    slope = np.exp(-b) / (1.0 + np.exp(-b)) ** 2
    assert np.allclose(d[:, -1], slope, atol=5e-3)


def test_smoothed_delta_never_served_across_bundles():
    # a fitted hedge carries its fitting bundle's claim delta; a bundle of
    # the same shape from another seed must get its own delta, exactly as a
    # strategy that carries none computes it (Heston b is 2-D, general 3-D)
    claim = digital_claim(level=1.0, at=0.0)
    grid = TimeGrid(1.0, 8)
    for simulate in (
            lambda seed: simulate_heston_market(BASE_PARAMS, grid, 300,
                                                RandomStream(seed)),
            lambda seed: simulate_general_market(degenerate_coeffs(), 1.0,
                                                 grid, 300,
                                                 RandomStream(seed))):
        fit_bundle = simulate(1000)
        fitted = lsmc_hedge(claim, fit_bundle, buckets=4).strategy
        plain = BucketStrategy(coeffs=fitted.coeffs,
                               features=fitted.features, claim=claim)
        assert "delta" in fitted.features
        assert np.array_equal(fitted.holdings(fit_bundle),
                              plain.holdings(fit_bundle))
        for seed in range(40):
            bundle = simulate(seed)
            assert np.array_equal(fitted.holdings(bundle),
                                  plain.holdings(bundle))


def test_digital_hedge_reaches_discretization_floor(flat_market):
    claim = digital_claim(level=1.0, at=0.0)
    with_delta = lsmc_hedge(claim, flat_market, buckets=8)
    poly_only = lsmc_hedge(claim, flat_market, buckets=8,
                           claim_adapted=False)
    assert with_delta.residual_sd < 0.6 * poly_only.residual_sd


def test_unreplicable_claim_off_driver(bundle_rho0, bundle_rho03):
    # replication degrades sharply once the price has an orthogonal driver
    claim = logistic_claim(rate=-2.0, scale=2.0)
    h0 = lsmc_hedge(claim, bundle_rho0, buckets=8)
    h3 = lsmc_hedge(claim, bundle_rho03, buckets=8)
    assert h3.residual_sd >= 5.0 * h0.residual_sd
    # the rho=0 hedge carried into the rho=0.3 market does no better
    carried = hedge_residual(h0.strategy, h0.price, bundle_rho03, claim)
    assert carried >= 5.0 * h0.residual_sd
    # and scoring it back home reproduces the fit residual
    home = hedge_residual(h0.strategy, h0.price, bundle_rho0, claim)
    assert home == pytest.approx(h0.residual_sd, rel=1e-6)


def test_bucket_strategy_validation():
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((2, 3)), features=("1", "b"))
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((1, 1)), features=("nope",))
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((1, 1)), features=("delta",))


def test_scaled_sum_matches_manual(flat_market):
    # the family truncates the weighted sum of its components, not the parts
    hedge = lsmc_hedge(logistic_claim(rate=-2.0, scale=2.0), flat_market,
                       buckets=4)
    fam = HedgeMixFamily(hedge=hedge.strategy, lin_bounds=(-1.0, 1.0),
                         floor=50.0, max_holding=0.5)
    theta = (2.0, 0.5, -0.25)
    b = flat_market.b[:, :-1, 0]
    manual = 2.0 * hedge.strategy.holdings(flat_market) + 0.5 - 0.25 * b
    assert np.any(np.abs(manual) > 0.5)
    gains = np.clip(manual, -0.5, 0.5) * np.diff(flat_market.s, axis=1)
    assert np.allclose(wealth_process(fam, theta, flat_market)[:, 1:],
                       np.cumsum(gains, axis=1), rtol=1e-12, atol=1e-12)


def test_optimize_deterministic(flat_market):
    pair = ConjugatePair(UtilitySpec.exponential(1.0))
    fam = ConstantFamily(lo=-2.0, hi=2.0, floor=30.0)
    a = optimize_primal(pair, 0.0, fam, flat_market, budget=45)
    b = optimize_primal(pair, 0.0, fam, flat_market, budget=45)
    assert np.array_equal(a.theta, b.theta)
    assert a.result.estimate.mean == b.result.estimate.mean
    assert a.evaluations == b.evaluations


def test_optimize_finds_zero_exposure_optimum(flat_market):
    # no drift: any exposure only adds noise, so c* ~ 0 for concave U
    pair = ConjugatePair(UtilitySpec.exponential(1.0))
    fam = ConstantFamily(lo=-2.0, hi=2.0, floor=30.0)
    opt = optimize_primal(pair, 0.0, fam, flat_market, budget=60)
    assert abs(opt.theta[0]) < 0.05
    # in-sample tuning can sit slightly above U(0) = -1, but only by noise
    assert abs(opt.result.estimate.mean + 1.0) < 5e-3


def test_hedge_mix_family_bounds(flat_market):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = lsmc_hedge(claim, flat_market, buckets=4)
    fam2 = HedgeMixFamily(hedge=hedge.strategy, floor=30.0)
    assert len(fam2.bounds) == 2
    fam3 = HedgeMixFamily(hedge=hedge.strategy, lin_bounds=(-1.0, 1.0),
                          floor=30.0)
    assert len(fam3.bounds) == 3
    assert len(fam2.components(flat_market)) == 2
    comps = fam3.components(flat_market)
    assert np.array_equal(comps[0], hedge.strategy.holdings(flat_market))
    assert comps[1] == 1.0
    assert np.array_equal(comps[2], flat_market.b[:, :-1, 0])


def test_restart_ties_go_to_smallest_end_point():
    # on a flat objective every restart ends on the same value, so the
    # lexicographically smallest end point wins whatever the start order
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    starts = [np.array([0.5, 0.5]), np.array([-0.5, 0.25]),
              np.array([-0.5, -0.25])]
    ends = [primal._nelder_mead(lambda t: 0.0, [s], lo, hi, 12)
            for s in starts]
    assert len({tuple(e) for e in ends}) == 3
    best = primal._nelder_mead(lambda t: 0.0, starts, lo, hi, 36)
    assert np.array_equal(best, min(ends, key=tuple))
    assert not np.array_equal(best, ends[0])


def _scipy_simplex(objective, x0, lo, hi, maxfev):
    """The same run through scipy's bounded Nelder-Mead."""
    from scipy.optimize import minimize
    sol = minimize(objective, x0, method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-10,
                            "adaptive": False})
    return sol.x, sol.fun


def _traced(run, objective, x0, lo, hi, maxfev):
    """``run``'s end point and value, and its trial points in call order."""
    calls = []

    def recorded(x):
        calls.append(np.array(x, copy=True))
        return objective(x)

    x, fun = run(recorded, x0, lo, hi, maxfev)
    return x, fun, calls


def _same_run(case, maxfev):
    fn, x0, lo, hi, _ = _SIMPLEX_CASES[case]
    x0, lo, hi = (np.asarray(v, dtype=float) for v in (x0, lo, hi))
    x, fun, calls = _traced(primal._simplex, fn, x0, lo, hi, maxfev)
    ref_x, ref_fun, ref_calls = _traced(_scipy_simplex, fn, x0, lo, hi,
                                        maxfev)
    assert np.array_equal(x, ref_x), maxfev
    assert np.array_equal(fun, ref_fun), maxfev
    assert len(calls) == len(ref_calls), maxfev
    assert all(np.array_equal(a, b) for a, b in zip(calls, ref_calls))
    return calls


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _quantized_bowl(x):
    # coarse steps in the value: many vertices tie, which exercises the
    # order argsort leaves equal values in
    return math.floor(4.0 * float(np.sum((x - 0.3) ** 2))) / 4.0


def _stretched_ties(x):
    return math.floor(4.0 * ((1.8 * (x[0] - 1.6)) ** 2
                             + (1.4 * (x[1] - 0.7)) ** 2)) / 4.0


def _walled_bowl(x):
    # the primal search's convention: an infeasible point scores 1e30
    # and the unconstrained minimum (1, 1) lies beyond the wall
    return primal._BAD if x[0] + x[1] > 0.5 else float(np.sum((x - 1.0) ** 2))


_SIMPLEX_CASES = {
    # a far minimum: the first passes expand
    "expansion": (lambda x: float(np.sum((x - 3.0) ** 2)), [0.1, 0.2],
                  [-5.0, -5.0], [5.0, 5.0], 200),
    # a curved valley: outside and inside contractions and shrinks
    "rosenbrock": (_rosenbrock, [-1.2, 1.0, 0.0], [-2.0, -2.0, -2.0],
                   [2.0, 2.0, 2.0], 400),
    # a start on the upper bound: the initial simplex is reflected inside
    "upper_start": (lambda x: float(np.sum((x - 0.2) ** 2)), [1.0, 2.0],
                    [-1.0, -1.0], [1.0, 2.0], 120),
    "walled": (_walled_bowl, [0.0, 0.0], [-2.0, -2.0], [2.0, 2.0], 150),
    "ties_17d": (_quantized_bowl, np.linspace(-1.0, 1.0, 17),
                 np.full(17, -2.0), np.full(17, 2.0), 300),
    "stretched_ties": (_stretched_ties, [0.6, -0.45], [-2.0, -2.0],
                       [2.0, 2.0], 200),
    # converges long before the budget: stops on xatol and fatol
    "tolerance": (lambda x: float(np.sum((x - 0.5) ** 2)), [0.0, 0.0],
                  [-1.0, -1.0], [1.0, 1.0], 5000),
}


@pytest.mark.parametrize("case", sorted(_SIMPLEX_CASES))
def test_simplex_is_bitwise_scipy_nelder_mead(case):
    fn, _, _, _, maxfev = _SIMPLEX_CASES[case]
    calls = _same_run(case, maxfev)
    if case == "tolerance":
        assert len(calls) < maxfev
    if case == "walled":
        assert primal._BAD in map(fn, calls)


@pytest.mark.parametrize("case", ["rosenbrock", "ties_17d",
                                  "stretched_ties"])
def test_simplex_budget_cuts_every_pass_as_scipy(case):
    # every budget up to 80 calls stops the run at a different point of a
    # pass: part way through the initial simplex, after a reflection,
    # between an expansion or contraction and its trial, and part way
    # through a shrink (17-d case, budgets 23-39); at budget 23 the
    # stretched case stops a shrink whose first new vertex beats the best,
    # so only the re-sort after the cut pass finds the right end point
    converged = len(_same_run(case, 1000))
    for maxfev in range(1, 81):
        assert len(_same_run(case, maxfev)) == min(maxfev, converged)


def _reference(fam, comps, theta, bundle, thr):
    """Raw and stopped wealth from first principles: explicit
    ``clip(theta . H)``, ``np.cumsum`` of ``H dS`` and a full-matrix first
    crossing (the first node below ``thr``, else the last node)."""
    h = np.zeros((bundle.paths, bundle.times.size - 1))
    for w, c in zip(theta, comps):
        h = h + w * c
    h = np.clip(h, -fam.max_holding, fam.max_holding)
    raw = np.zeros((bundle.paths, bundle.times.size))
    raw[:, 1:] = np.cumsum(h * np.diff(bundle.s, axis=1), axis=1)
    below = raw < thr
    crossed = below.any(axis=1)
    stop = np.where(crossed, below.argmax(axis=1), raw.shape[1] - 1)
    frozen = raw[np.arange(raw.shape[0]), stop]
    nodes = np.arange(raw.shape[1])[None, :]
    stopped = np.where(nodes >= stop[:, None], frozen[:, None], raw)
    return raw, stopped, crossed


@pytest.mark.parametrize("kind", ["constant", "hedge", "hedge_lin"])
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("with_claim", [False, True])
def test_component_kernel_is_bitwise_enforced_wealth(flat_market, kind,
                                                     constrained, with_claim):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    ones = np.ones((flat_market.paths, flat_market.times.size - 1))
    if kind == "constant":
        fam = ConstantFamily(lo=-5.0, hi=5.0, floor=4.0, max_holding=2.5)
        comps = [ones]
    else:
        hedge = lsmc_hedge(claim, flat_market, buckets=4)
        fam = HedgeMixFamily(hedge=hedge.strategy, floor=4.0, max_holding=2.5,
                             lin_bounds=(-1.0, 1.0) if kind == "hedge_lin"
                             else None)
        comps = [hedge.strategy.holdings(flat_market), ones,
                 flat_market.b[:, :-1, 0]][:len(fam.bounds)]
    pair = ConjugatePair(UtilitySpec.power(0.5))
    x = 0.6
    c = claim if with_claim else None
    f = np.asarray(claim(flat_market.b[:, -1, 0])) if with_claim else None
    phi_min = claim.phi_min if with_claim else 0.0
    thr = -fam.floor - fam.slack
    if constrained:
        thr = max(thr, -x - phi_min)
    fill_at, path = primal._component_gains(fam, flat_market)

    def reference_bound(theta):
        raw, stopped, crossed = _reference(fam, comps, theta, flat_market,
                                           thr)
        w = x + stopped[:, -1] if f is None else (x + f) + stopped[:, -1]
        samples = np.asarray(pair.utility.u(w), dtype=float)
        return PrimalResult(estimate=mc_estimate(samples),
                            violations=int(np.sum(w < 0.0)),
                            stopped_fraction=float(crossed.mean()))

    lo, hi = np.array(fam.bounds).T
    rng = np.random.default_rng(7)
    stopped_any = violated_any = False
    for theta in rng.uniform(lo, hi, size=(6, lo.size)):
        raw, stopped, crossed = _reference(fam, comps, theta, flat_market,
                                           thr)
        assert np.array_equal(wealth_process(fam, theta, flat_market), raw)
        _, xt, kernel_crossed = walk(fill_at(theta), path, thr)
        assert np.array_equal(xt, stopped[:, -1])
        assert np.array_equal(kernel_crossed, crossed)
        enforced = enforce_admissibility(fam, theta, flat_market, x=x,
                                         constrained=constrained,
                                         phi_min=phi_min)
        assert enforced.threshold == thr
        assert np.array_equal(enforced.wealth, stopped)
        assert enforced.stopped_fraction == float(crossed.mean())
        bound = primal_bound(pair, x, fam, theta, flat_market, claim=c,
                             constrained=constrained)
        assert bound == reference_bound(theta)
        stopped_any |= bool(crossed.any())
        violated_any |= bound.violations > 0
    # the draws exercise the stop and, unconstrained, the domain edge
    assert stopped_any
    assert violated_any or constrained
    # the search reports the reference bound at the point it chose
    opt = optimize_primal(pair, x, fam, flat_market, claim=c,
                          constrained=constrained, budget=12)
    assert opt.result == reference_bound(opt.theta)


def test_evaluation_allocates_no_gains_array():
    # the walk's buffer belongs to the built gains, so an evaluation
    # allocates only per-path vectors and first_crossing's gather of the
    # crossing columns: well under one (steps+1) x paths array
    market = simulate_general_market(degenerate_coeffs(), 1.0,
                                     TimeGrid(1.0, 64), 4000,
                                     RandomStream(29))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = lsmc_hedge(claim, market, buckets=4)
    fam = HedgeMixFamily(hedge=hedge.strategy, floor=4.0, max_holding=2.5,
                         lin_bounds=(-1.0, 1.0))
    gains = primal._component_gains(fam, market)
    evaluate = primal._evaluation(ConjugatePair(UtilitySpec.power(0.5)), 6.0,
                                  fam, market, None, False, gains)
    theta = np.array([0.1, 2.0, 0.1])
    first = evaluate(theta)
    assert 0.0 < first.stopped_fraction < 0.1
    tracemalloc.start()
    try:
        again = evaluate(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 0.5 * (64 + 1) * 4000 * 8
