"""Strategy admissibility, regression hedging and the primal search."""

import gc
import math

import numpy as np
import pytest

from mcduality import primal
from mcduality.market import TimeGrid, simulate_general_market
from mcduality.pricing import degenerate_coeffs
from mcduality.primal import (BucketStrategy, ConstantFamily, ConstantStrategy,
                              hedge_residual,
                              HedgeMixFamily, ScaledSumStrategy,
                              StateLinearStrategy, enforce_admissibility,
                              features_for, lsmc_hedge, optimize_primal,
                              primal_bound, wealth_process, _smoothed_delta)
from mcduality.rng import RandomStream
from mcduality.stopping import first_crossing
from mcduality.utility import (ClaimSpec, ConjugatePair, UtilitySpec,
                               constant_claim, digital_claim, logistic_claim)

from conftest import SMALL_GRID


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
    strat = ConstantStrategy(c=2.0, floor=50.0)
    x = wealth_process(strat, flat_market)
    b = flat_market.b[:, :, 0]
    assert np.allclose(x, 2.0 * (b - b[:, :1]), atol=1e-12)


def test_holding_clip(flat_market):
    strat = ConstantStrategy(c=7.0, max_holding=3.0, floor=50.0)
    h = strat.holdings(flat_market)
    assert np.all(h == 3.0)


def test_state_linear_needs_variance(flat_market):
    strat = StateLinearStrategy(cv=1.0, floor=50.0)
    with pytest.raises(ValueError):
        strat.holdings(flat_market)


def test_enforcement_stops_at_first_crossing(flat_market):
    strat = ConstantStrategy(c=5.0, floor=1.0)
    enforced = enforce_admissibility(strat, flat_market)
    assert enforced.threshold == -1.0 - strat.slack
    assert 0.0 < enforced.stopped_fraction < 1.0
    raw = wealth_process(strat, flat_market)
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
    strat = ConstantStrategy(c=1.0, floor=1.0)
    with pytest.raises(ValueError):
        enforce_admissibility(strat, flat_market, x=0.0, constrained=True,
                              phi_min=0.0)


def test_constrained_floor_tighter(flat_market):
    strat = ConstantStrategy(c=5.0, floor=8.0)
    unc = enforce_admissibility(strat, flat_market)
    con = enforce_admissibility(strat, flat_market, x=1.5, constrained=True,
                                phi_min=0.0)
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
    strat = ConstantStrategy(c=1.0, floor=30.0)
    with_claim = primal_bound(pair, 0.5, strat, flat_market,
                              claim=constant_claim(0.25))
    shifted = primal_bound(pair, 0.75, strat, flat_market)
    assert with_claim.estimate.mean == shifted.estimate.mean
    assert with_claim.estimate.stderr == shifted.estimate.stderr


def test_primal_bound_domain_violations(flat_market):
    pair = ConjugatePair(UtilitySpec.power(0.5))
    strat = ConstantStrategy(c=4.0, floor=30.0)   # floor far below domain edge
    res = primal_bound(pair, 0.25, strat, flat_market)
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


def test_smoothed_delta_never_served_across_bundles(monkeypatch):
    # a collected bundle's id is soon reused by a later one; the cached delta
    # of a dead bundle must never be handed to the new one
    claim = digital_claim(level=1.0, at=0.0)
    coeffs = degenerate_coeffs()
    for seed in range(40):
        bundle = simulate_general_market(coeffs, 1.0, TimeGrid(1.0, 8), 300,
                                         RandomStream(seed))
        got = _smoothed_delta(claim, bundle)
        with monkeypatch.context() as m:
            m.setattr(primal, "_DELTA_CACHE", {})
            assert np.array_equal(got, _smoothed_delta(claim, bundle))
        del bundle, got
        gc.collect()


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
    a = ConstantStrategy(c=1.0, floor=50.0)
    b = StateLinearStrategy(cb=1.0, floor=50.0)
    mix = ScaledSumStrategy(parts=(a, b), weights=(2.0, 0.5), floor=50.0)
    manual = 2.0 * a._raw_holdings(flat_market) \
        + 0.5 * b._raw_holdings(flat_market)
    assert np.allclose(mix.holdings(flat_market),
                       np.clip(manual, -100.0, 100.0), atol=0)


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
    strat = fam3.make((1.0, 0.5, -0.25))
    assert isinstance(strat, ScaledSumStrategy)
    assert strat.weights == (1.0, 0.5, -0.25)


def _reference_terminal(strategy, bundle, thr):
    """Stopped terminal gains by the full-matrix first crossing: the
    unstopped paths of ``wealth_process`` read at their first node below
    ``thr`` (or at the last node)."""
    raw = wealth_process(strategy, bundle)
    below = raw < thr
    crossed = below.any(axis=1)
    stop = np.where(crossed, below.argmax(axis=1), raw.shape[1] - 1)
    return raw[np.arange(raw.shape[0]), stop], crossed


@pytest.mark.parametrize("kind", ["constant", "hedge", "hedge_lin"])
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("with_claim", [False, True])
def test_component_kernel_is_bitwise_enforced_wealth(flat_market, kind,
                                                     constrained, with_claim):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    if kind == "constant":
        fam = ConstantFamily(lo=-5.0, hi=5.0, floor=4.0, max_holding=2.5)
    else:
        hedge = lsmc_hedge(claim, flat_market, buckets=4)
        fam = HedgeMixFamily(hedge=hedge.strategy, floor=4.0, max_holding=2.5,
                             lin_bounds=(-1.0, 1.0) if kind == "hedge_lin"
                             else None)
    pair = ConjugatePair(UtilitySpec.power(0.5))
    x = 0.6
    f = np.asarray(claim(flat_market.b[:, -1, 0])) if with_claim else None
    phi_min = claim.phi_min if with_claim else 0.0
    thr = primal._threshold(fam, x, constrained, phi_min)
    gains = primal._component_gains(fam, flat_market)
    lo, hi = np.array(fam.bounds).T
    rng = np.random.default_rng(7)
    stopped_any = violated_any = False
    for theta in rng.uniform(lo, hi, size=(6, lo.size)):
        _, xt, crossed = first_crossing(gains(theta), thr)
        strategy = fam.make(theta)
        enforced = enforce_admissibility(strategy, flat_market, x=x,
                                         constrained=constrained,
                                         phi_min=phi_min)
        ref_xt, ref_crossed = _reference_terminal(strategy, flat_market, thr)
        assert np.array_equal(xt, enforced.wealth[:, -1])
        assert np.array_equal(xt, ref_xt)
        assert np.array_equal(crossed, ref_crossed)
        assert float(crossed.mean()) == enforced.stopped_fraction
        res = primal._score(pair, x, xt, crossed, f)
        w_ref = x + ref_xt if f is None else (x + f) + ref_xt
        assert res.violations == int(np.sum(w_ref < 0.0))
        bound = primal_bound(pair, x, strategy, flat_market,
                             claim=claim if with_claim else None,
                             constrained=constrained)
        assert res == bound
        stopped_any |= bool(crossed.any())
        violated_any |= res.violations > 0
    # the draws exercise the stop and, unconstrained, the domain edge
    assert stopped_any
    assert violated_any or constrained
