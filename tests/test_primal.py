"""Strategy admissibility, regression hedging, the primal search and the
bounded simplex search it runs."""

import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcduality import primal, search
from mcduality.market import (TimeGrid, simulate_general_market,
                             simulate_heston_market)
from mcduality.pricing import degenerate_coeffs
from mcduality.estimates import mc_estimate
from mcduality.primal import (BucketStrategy, ConstantFamily, HedgeMixFamily,
                              PrimalResult, enforce_admissibility,
                              features_for, hedge_residual, lsmc_hedge,
                              optimize_primal, primal_bound, wealth_process,
                              with_claim_floor, _smoothed_delta)
from mcduality.rng import RandomStream
from mcduality.stopping import chunk_steps, walk
from mcduality.utility import (ClaimSpec, ConjugatePair, UtilitySpec,
                               constant_claim, digital_claim, logistic_claim)

from conftest import BASE_PARAMS, SMALL_GRID, record_simplex_starts


@pytest.fixture(scope="module")
def flat_market():
    # sigma = 1, no drift: S is the driver itself
    coeffs = degenerate_coeffs()
    return simulate_general_market(coeffs, 1.0, TimeGrid(1.0, 64), 2000,
                                   RandomStream(13))


def test_features_for_variants():
    assert features_for(1, False) == ("1", "b", "delta")
    assert features_for(2, True) == ("1", "b", "v", "b2", "bv", "v2",
                                     "delta", "deltav")
    assert features_for(2, False) == ("1", "b", "b2", "delta")
    assert features_for(1, True)[-1] == "deltav"
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
    strat = BucketStrategy(coeffs=[[0.0, 1.0]], features=("1", "v"),
                           claim=constant_claim(0.0))
    with pytest.raises(ValueError, match="needs a variance path"):
        strat.holdings(flat_market)


@pytest.mark.parametrize("rule", [{"floor": -1.0}, {"max_holding": -1.0}],
                         ids=["floor", "max_holding"])
@pytest.mark.parametrize("family", [ConstantFamily, HedgeMixFamily])
def test_family_floor_rule_checked_on_construction(family, rule):
    # given a hedge, the family fails on the rule, not on the missing hedge
    strategy = BucketStrategy(coeffs=np.zeros((1, 2)), features=("1", "b"),
                              claim=constant_claim(0.0))
    hedge = {"hedge": strategy} if family is HedgeMixFamily else {}
    with pytest.raises(ValueError, match=next(iter(rule))):
        family(**rule, **hedge)


def test_hedge_mix_family_needs_a_hedge():
    with pytest.raises(ValueError, match="needs a hedge"):
        HedgeMixFamily()


def test_enforcement_stops_at_first_crossing(flat_market):
    fam = ConstantFamily(floor=1.0)
    enforced = enforce_admissibility(fam, [5.0], flat_market)
    assert enforced.threshold == -1.0 - primal.FLOOR_SLACK
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


def test_enforcement_rejects_nonnegative_threshold():
    # the claim floor needs x + phi_min >= FLOOR_SLACK: at 0 it would sit at
    # the starting wealth, and in the sliver (0, FLOOR_SLACK) the family's
    # floor would be negative
    fam = ConstantFamily(floor=1.0)
    for x, c in ((0.0, 0.0), (1.0, -1.0), (0.5e-9, 0.0), (0.75, -1.0)):
        with pytest.raises(ValueError, match="need x \\+ phi_min >= 1e-09"):
            with_claim_floor(fam, x, constant_claim(c))
    edge = with_claim_floor(fam, primal.FLOOR_SLACK, constant_claim(0.0))
    assert edge.floor == 0.0
    assert -edge.floor - primal.FLOOR_SLACK == -primal.FLOOR_SLACK


@pytest.mark.parametrize("family", [ConstantFamily, HedgeMixFamily])
@pytest.mark.parametrize("name, value", [("floor", math.nan),
                                         ("floor", -1.0),
                                         ("max_holding", math.nan),
                                         ("max_holding", 0.0)])
def test_family_rejects_bad_floor_rule(family, name, value):
    # NaN fails every comparison, so it must fail the check too: a NaN
    # floor would stop no path, and a NaN cap would make every wealth NaN
    with pytest.raises(ValueError, match=name):
        family(**{name: value})


def test_claim_floor_rejects_nan():
    claim = logistic_claim(rate=-2.0, scale=2.0)
    with pytest.raises(ValueError, match="floor"):
        with_claim_floor(ConstantFamily(floor=math.nan), 0.75, claim)
    with pytest.raises(ValueError, match="need x \\+ phi_min"):
        with_claim_floor(ConstantFamily(floor=1.0), math.nan, claim)


#: ``x + phi_min`` in ``[2**-29 + FLOOR_SLACK, 2**-28)``: there ``f + 1e-9``
#: lands halfway between two doubles for every double ``f`` near ``a -
#: 1e-9``, so a value of ``a`` with an odd last bit is no ``f + 1e-9``
_UNREPRESENTABLE = (2.0**-29 + 1e-9, 2.0**-28)


@settings(max_examples=400, deadline=None)
@given(x=st.floats(0.0, 1e6), phi_min=st.floats(-1e6, 1e6),
       k=st.floats(0.0, 1e6))
@example(x=3.53294712e-09, phi_min=0.0, k=6.0)
@example(x=7.0, phi_min=0.0, k=6.0)
def test_claim_floor_threshold_is_the_larger_floor(x, phi_min, k):
    # the claimed family's one floor rule, -floor - FLOOR_SLACK, is the
    # larger of the family's floor and the claim problem's -x - phi_min
    fam, claim = ConstantFamily(floor=k), constant_claim(phi_min)
    a = x + phi_min
    if not a >= primal.FLOOR_SLACK:
        with pytest.raises(ValueError):
            with_claim_floor(fam, x, claim)
        return
    floor = with_claim_floor(fam, x, claim).floor
    thr = -floor - primal.FLOOR_SLACK
    want = max(-k - primal.FLOOR_SLACK, -x - phi_min)
    lo, hi = _UNREPRESENTABLE
    if thr != want:
        # the one counterexample: one unit in the last place, and no
        # neighbour of the floor gives -a either
        assert lo <= a < hi and abs(thr - want) == math.ulp(a)
        for f in (np.nextafter(floor, -1.0), np.nextafter(floor, 1.0)):
            assert -f - primal.FLOOR_SLACK != -a


def test_constrained_floor_tighter(flat_market):
    fam = ConstantFamily(floor=8.0)
    unc = enforce_admissibility(fam, [5.0], flat_market)
    con = enforce_admissibility(
        with_claim_floor(fam, 1.5, constant_claim(0.0)), [5.0], flat_market)
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
    hedge = lsmc_hedge(claim, flat_market, buckets=4, degree=1)
    assert hedge.residual_sd < 1e-10
    assert hedge.price == pytest.approx(0.0, abs=1e-10)
    assert hedge.r_squared > 1.0 - 1e-12


def test_lsmc_deterministic(flat_market):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    a = lsmc_hedge(claim, flat_market, buckets=6)
    b = lsmc_hedge(claim, flat_market, buckets=6)
    assert np.array_equal(a.strategy.coeffs, b.strategy.coeffs)
    assert a.price == b.price and a.residual_sd == b.residual_sd


@pytest.mark.parametrize("paths", [1, 30, 49, 50])
def test_hedge_without_residual_dof_reports_no_stderr(paths):
    # 1 + 12 buckets x 4 features = 49 design columns: up to 49 paths the
    # fit interpolates, and its intercept SE would read near zero
    claim = digital_claim(level=1.0, at=0.0)
    bundle = simulate_general_market(degenerate_coeffs(), 2.0,
                                     TimeGrid(1.0, 24), paths,
                                     RandomStream(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hedge = lsmc_hedge(claim, bundle, buckets=12)
        carried = hedge_residual(hedge.strategy, hedge.price, bundle, claim)
    assert hedge.strategy.coeffs.size + 1 == 49
    if paths <= 49:
        assert hedge.price_stderr == math.inf
        assert math.isnan(hedge.residual_sd)
    else:
        assert 0.0 < hedge.price_stderr < math.inf
        assert hedge.residual_sd > 0.0
    assert math.isnan(carried) if paths == 1 else carried >= 0.0


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


def _delta_nodes(claim, horizon):
    """The uniform grid on which ``_smoothed_delta`` tabulates ``phi'``."""
    pad = 6.0 * math.sqrt(horizon) + 1.0
    return np.linspace(float(claim.knots[0]) - pad,
                       float(claim.knots[-1]) + pad, primal._DELTA_GRID_N)


def _smoothed_delta_step_loop(claim, bundle):
    """The reference claim delta: per time node, the whole ``"same"``
    convolution table and ``np.interp``'s binary search on it."""
    times = bundle.times
    b = primal.driver_levels(bundle)
    horizon = float(times[-1])
    xs = _delta_nodes(claim, horizon)
    h = xs[1] - xs[0]
    dphi = np.gradient(np.asarray(claim(xs), dtype=float), h)
    out = np.empty((b.shape[0], times.size - 1))
    for j in range(times.size - 1):
        sd = math.sqrt(horizon - float(times[j]))
        half = min(int(6.0 * sd / h) + 1, xs.size // 2 - 1)
        k = np.arange(-half, half + 1) * h
        kern = np.exp(-0.5 * (k / sd) ** 2) * (h / (sd * math.sqrt(2.0 * math.pi)))
        out[:, j] = np.interp(b[:, j], xs, np.convolve(dphi, kern, mode="same"))
    return out


def _same_bits(a, b):
    # every bit: the sign of a zero and a NaN's payload included
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


_DELTA_CLAIMS = {
    "logistic": logistic_claim(rate=-2.0, scale=2.0),
    "digital": digital_claim(level=1.0, at=0.0),
    "constant": constant_claim(0.7),
    "table": ClaimSpec([-1.5, -0.2, 0.4, 2.0], [0.3, 1.1, -0.4, 0.9]),
}


def _delta_bundle(kind, steps, paths):
    grid = TimeGrid(1.0, steps)
    if kind == "heston":
        return simulate_heston_market(BASE_PARAMS, grid, paths,
                                      RandomStream(3))
    return simulate_general_market(degenerate_coeffs(), 2.0, grid, paths,
                                   RandomStream(3))


@pytest.mark.parametrize("paths, steps", [(400, 1), (400, 8), (400, 96),
                                          (1, 8)])
@pytest.mark.parametrize("kind", ["heston", "general"])
@pytest.mark.parametrize("claim", list(_DELTA_CLAIMS))
def test_smoothed_delta_is_bitwise_step_loop(claim, kind, paths, steps):
    # a Heston bundle's b is 2-D, a general bundle's 3-D
    bundle = _delta_bundle(kind, steps, paths)
    assert bundle.b.ndim == (2 if kind == "heston" else 3)
    d = _smoothed_delta(_DELTA_CLAIMS[claim], bundle)
    assert d.flags.c_contiguous
    assert _same_bits(d, _smoothed_delta_step_loop(_DELTA_CLAIMS[claim],
                                                   bundle))


@pytest.mark.parametrize("claim", list(_DELTA_CLAIMS))
def test_smoothed_delta_is_bitwise_on_nodes_and_beyond_the_table(claim):
    # time node 1 holds table nodes inside the table; time nodes 2-4 hold
    # the table's end nodes and others, values one ulp either side of a
    # table node and values beyond both ends; time nodes 5-6 also hold
    # non-finite values
    claim = _DELTA_CLAIMS[claim]
    bundle = _delta_bundle("heston", 8, 300)
    xs = _delta_nodes(claim, 1.0)
    b = bundle.b.copy()
    b[:8, 1] = np.tile(xs[999:1003], 2)
    beyond = np.concatenate([
        xs[[0, 1, 7, 1000, 1500, -2, -1]],
        np.nextafter(xs[[3, 999, -3]], -np.inf),
        np.nextafter(xs[[3, 999, -3]], np.inf),
        [xs[0] - 1e-9, xs[0] - 3.0, xs[-1] + 1e-9, xs[-1] + 50.0]])
    b[:beyond.size, 2:5] = beyond[:, None]
    b[-3:, 5:7] = np.array([-np.inf, np.inf, np.nan])[:, None]
    bundle = dataclasses.replace(bundle, b=b)
    assert _same_bits(_smoothed_delta(claim, bundle),
                      _smoothed_delta_step_loop(claim, bundle))


def test_interp_reached_is_bitwise_numpy_on_a_grid_far_from_zero():
    # near 1e11 the rounding of the nodes and of the spacing puts the
    # arithmetic bin of some values two places from numpy's, and a rough
    # table makes any value read from a wrong bin show
    xs = np.linspace(1e11 - 7.0, 1e11 + 9.5, primal._DELTA_GRID_N)
    rng = np.random.default_rng(4)
    dphi = rng.standard_normal(xs.size)
    kern = np.array([0.25, 0.5, 0.25])
    x = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 5000)])
    t = np.floor((x - xs[0]) / (xs[1] - xs[0]))
    assert np.abs(t - (np.searchsorted(xs, x, side="right") - 1)).max() > 1
    col = primal._interp_reached(x.copy(), xs, dphi, kern)
    assert _same_bits(col, np.interp(x, xs, np.convolve(dphi, kern,
                                                        mode="same")))


def test_smoothed_delta_is_bitwise_on_an_overflowing_table():
    # phi' overflows to inf at the step, so the table holds infinities, and
    # at the edge of their run numpy recomputes a NaN from the right node
    claim = digital_claim(level=1.5e308, at=0.0)
    bundle = _delta_bundle("heston", 8, 2000)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _smoothed_delta(claim, bundle)
        ref = _smoothed_delta_step_loop(claim, bundle)
    assert np.isinf(ref).any()
    assert _same_bits(d, ref)


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=5),
       start=st.floats(-4.0, 4.0),
       values=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
       steps=st.sampled_from([1, 3, 12]),
       horizon=st.sampled_from([0.1, 1.0, 4.0]),
       spread=st.sampled_from([0.5, 1.0, 5.0]),
       nodes=st.lists(st.integers(0, primal._DELTA_GRID_N - 1), max_size=8),
       seed=st.integers(0, 2**16))
def test_smoothed_delta_is_bitwise_step_loop_on_random_tables(
        gaps, start, values, steps, horizon, spread, nodes, seed):
    knots = start + np.concatenate(([0.0], np.cumsum(gaps)))
    claim = ClaimSpec(knots, values[:knots.size])
    rng = np.random.default_rng(seed)
    b = knots[0] + spread * math.sqrt(horizon) * rng.standard_normal(
        (40, steps + 1))
    b.reshape(-1)[:len(nodes)] = _delta_nodes(claim, horizon)[nodes]
    bundle = SimpleNamespace(times=np.linspace(0.0, horizon, steps + 1), b=b)
    assert _same_bits(_smoothed_delta(claim, bundle),
                      _smoothed_delta_step_loop(claim, bundle))


def _monomial_residual_sd(claim, bundle, buckets):
    """Residual sd of the least-squares hedge on the degree-2 monomials in
    the driver alone, without the claim's delta."""
    ds = np.diff(bundle.s, axis=1)
    b = bundle.b[:, :-1, 0]
    edges = np.linspace(0, ds.shape[1], buckets + 1).astype(int)
    cols = [np.ones(bundle.paths)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        bj, dsj = b[:, lo:hi], ds[:, lo:hi]
        cols += [dsj.sum(axis=1), (bj * dsj).sum(axis=1),
                 (bj * bj * dsj).sum(axis=1)]
    design = np.column_stack(cols)
    f = np.asarray(claim(bundle.b[:, -1, 0]), dtype=float)
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    return float((f - design @ coef).std(ddof=1))


def test_digital_hedge_reaches_discretization_floor(flat_market):
    claim = digital_claim(level=1.0, at=0.0)
    with_delta = lsmc_hedge(claim, flat_market, buckets=8)
    poly_only = _monomial_residual_sd(claim, flat_market, 8)
    assert with_delta.residual_sd < 0.6 * poly_only


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
    claim = constant_claim(0.0)
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((2, 3)), features=("1", "b"),
                       claim=claim)
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((1, 1)), features=("nope",),
                       claim=claim)
    with pytest.raises(ValueError):
        BucketStrategy(coeffs=np.zeros((1, 1)), features=("delta",),
                       claim=None)


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


def _pairwise_distinct(points):
    return len({tuple(p) for p in points}) == len(points)


@pytest.mark.parametrize("lo, hi", [
    # the dual's box for two time buckets
    (np.full(6, -0.6), np.full(6, 0.6)),
    # the sweep's claim search: scale, constant and B-linear exposure
    (np.array([-1.6, -1.0, -1.0]), np.array([0.4, 3.5, 2.5])),
])
def test_restart_starts_are_distinct(monkeypatch, lo, hi):
    starts = record_simplex_starts(monkeypatch)
    search.minimize(lambda t: 0.0, lo, hi, 60)
    assert len(starts) == 3 and _pairwise_distinct(starts)
    policy = [0.5 * (lo + hi), 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi]
    assert all(np.array_equal(s, p) for s, p in zip(starts, policy))


def test_restart_ties_go_to_smallest_end_point(monkeypatch):
    # on a flat objective every restart ends on the same value, so the
    # lexicographically smallest end point wins, not the first run's
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    real = search._simplex
    starts = record_simplex_starts(monkeypatch)
    best, _ = search.minimize(lambda t: 0.0, lo, hi, 36)
    assert len(starts) == 3
    ends = [np.clip(real(lambda t: 0.0, s, lo, hi, 12)[0], lo, hi)
            for s in starts]
    assert _pairwise_distinct(ends)
    assert np.array_equal(best, min(ends, key=tuple))
    assert not np.array_equal(best, ends[0])


@pytest.mark.parametrize("dim", [2, 3, 6])
@pytest.mark.parametrize("budget", [1, 12, 40, 41, 120])
def test_max_calls_is_what_a_search_spends(budget, dim):
    # an objective that never settles spends every run's calls
    rng = np.random.default_rng(budget * 10 + dim)
    _, calls = search.minimize(lambda t: float(rng.random()), np.zeros(dim),
                               np.ones(dim), budget)
    assert calls == search.max_calls(budget, dim)


@pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan, 2.5])
def test_non_finite_objective_scores_penalty(monkeypatch, value):
    seen = []

    def first_value(objective, x0, lo, hi, maxfev):
        seen.append(objective(x0))
        return x0, seen[-1]

    monkeypatch.setattr(search, "_simplex", first_value)
    _, calls = search.minimize(lambda t: value, np.zeros(2), np.ones(2), 12)
    assert calls == 3
    assert seen == [value if math.isfinite(value) else 1e30] * 3


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
    x, fun, calls = _traced(search._simplex, fn, x0, lo, hi, maxfev)
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
    # the search's convention: an infeasible point scores 1e30
    # and the unconstrained minimum (1, 1) lies beyond the wall
    return search._BAD if x[0] + x[1] > 0.5 else float(np.sum((x - 1.0) ** 2))


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
        assert search._BAD in map(fn, calls)


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


def _screen(comps, theta, bundle):
    """From first principles: the holding bound ``b = sum_k |theta_k|
    max|C_k|``, the documented margin ``4 r (u b S + eta (1 + S) (1 + w))``
    with ``r = n + K + 1``, ``S = max_paths sum_t |dS_t|`` and ``w =
    sum_k |theta_k|``, each path's lower bound ``L`` on ``min_t X_t`` from
    the ranges of ``G_k = np.cumsum(C_k dS)`` with ``G_k(0) = 0``, and
    ``sum_k theta_k G_k(T)``, summed from zero in component order."""
    ds = np.diff(bundle.s, axis=1)
    bound = sum(abs(w) * np.abs(c).max() for w, c in zip(theta, comps)
                if w != 0.0)
    s = float(np.abs(ds).sum(axis=1).max())
    margin = 4.0 * (ds.shape[1] + len(comps) + 1) * (
        2.0 ** -53 * bound * s
        + (1.0 + s) * (1.0 + float(np.abs(theta).sum())) * 2.0 ** -1074)
    low, xt = np.zeros(bundle.paths), np.zeros(bundle.paths)
    for w, c in zip(theta, comps):
        if w != 0.0:
            g = np.cumsum(c * ds, axis=1)
            low += np.minimum(w * np.minimum(g.min(axis=1), 0.0),
                              w * np.maximum(g.max(axis=1), 0.0))
            xt += w * g[:, -1]
    return bound, margin, low, xt


def _linear_terminal(fam, comps, theta, bundle, thr):
    """``sum_k theta_k G_k(T)`` when the cap cannot bind and every path
    clears the screen of :class:`primal._Gains`, else None."""
    bound, margin, low, xt = _screen(comps, theta, bundle)
    if bound < fam.max_holding * (1.0 - 1e-9) and low.min() - margin >= thr:
        return xt
    return None


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
    thr = -fam.floor - primal.FLOOR_SLACK
    if constrained:
        thr = max(thr, -x - phi_min)
        fam = with_claim_floor(fam, x, claim if with_claim
                               else constant_claim(0.0))
    gains = primal._Gains(fam, flat_market)

    def reference_bound(theta):
        # the terminal gains' sum where no path can reach the floor, else
        # the walk's stopped value
        raw, stopped, crossed = _reference(fam, comps, theta, flat_market,
                                           thr)
        xt = _linear_terminal(fam, comps, theta, flat_market, thr)
        if xt is None:
            xt = stopped[:, -1]
        w = x + xt if f is None else (x + f) + xt
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
        _, xt, kernel_crossed = walk(gains.fill(theta), gains.path, thr)
        assert np.array_equal(xt, stopped[:, -1])
        assert np.array_equal(kernel_crossed, crossed)
        enforced = enforce_admissibility(fam, theta, flat_market)
        assert enforced.threshold == thr
        assert np.array_equal(enforced.wealth, stopped)
        assert enforced.stopped_fraction == float(crossed.mean())
        bound = primal_bound(pair, x, fam, theta, flat_market, claim=c)
        assert bound == reference_bound(theta)
        stopped_any |= bool(crossed.any())
        violated_any |= bound.violations > 0
    # the draws exercise the stop and, unconstrained, the domain edge
    assert stopped_any
    assert violated_any or constrained
    # the search reports the reference bound at the point it chose
    opt = optimize_primal(pair, x, fam, flat_market, claim=c, budget=12)
    assert opt.result == reference_bound(opt.theta)


@pytest.fixture(scope="module")
def screen_families(flat_market):
    """kind -> (family with floor 0 and cap 100, its components as
    ``(paths, steps)`` arrays)."""
    hedge = lsmc_hedge(logistic_claim(rate=-2.0, scale=2.0), flat_market,
                       buckets=4).strategy
    ones = np.ones((flat_market.paths, flat_market.times.size - 1))
    held = hedge.holdings(flat_market)
    rule = {"floor": 0.0, "max_holding": 100.0}
    return {
        "constant": (ConstantFamily(lo=-5.0, hi=5.0, **rule), [ones]),
        "hedge": (HedgeMixFamily(hedge=hedge, **rule), [held, ones]),
        "hedge_lin": (HedgeMixFamily(hedge=hedge, lin_bounds=(-1.0, 1.0),
                                     **rule),
                      [held, ones, flat_market.b[:, :-1, 0]]),
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["constant", "hedge",
                                             "hedge_lin"]),
       anchor=st.sampled_from(["screen", "walk"]),
       shift=st.floats(-4.0, 4.0),
       cap_factor=st.none() | st.floats(0.25, 1.0))
def test_terminal_gains_only_where_no_path_stops(flat_market,
                                                 screen_families, data,
                                                 kind, anchor, shift,
                                                 cap_factor):
    fam, _ = screen_families[kind]
    theta = np.array([data.draw(st.floats(lo, hi), label=f"theta_{k}")
                      for k, (lo, hi) in enumerate(fam.bounds)])
    _check_terminal_gains(flat_market, screen_families, kind, theta, anchor,
                          shift, cap_factor)


@pytest.mark.parametrize("anchor", ["screen", "walk"])
@pytest.mark.parametrize("shift", [-1.0, 0.0, 1.0])
def test_terminal_gains_with_a_cap_that_rounds_to_zero(flat_market,
                                                       screen_families,
                                                       anchor, shift):
    # the smallest subnormal theta: the holding bound is positive, but half
    # of it rounds to 0.0, which is no cap
    _check_terminal_gains(flat_market, screen_families, "constant",
                          np.array([5e-324]), anchor, shift, 0.5)


def _check_terminal_gains(flat_market, screen_families, kind, theta, anchor,
                          shift, cap_factor):
    # the floor sits within a few margins of the screen's lower bound L or
    # of the lowest node the walk reaches, so both routes and the edge
    # between them are drawn; a cap at or below the holding bound may bind
    fam, comps = screen_families[kind]
    bound, margin, low, xt_ref = _screen(comps, theta, flat_market)
    if cap_factor is not None and bound * cap_factor > 0.0:
        fam = dataclasses.replace(fam, max_holding=bound * cap_factor)
    gains = primal._Gains(fam, flat_market)
    walk(gains.fill(theta), gains.path, -math.inf)
    near = low.min() if anchor == "screen" else float(gains.path.min())
    fam = dataclasses.replace(
        fam, floor=max(0.0, -(near + shift * margin) - primal.FLOOR_SLACK))
    thr = -fam.floor - primal.FLOOR_SLACK
    xt = gains.terminal(theta, thr)
    _, walked, crossed = walk(gains.fill(theta), gains.path, thr)
    capped = not bound < fam.max_holding * (1.0 - 1e-9)
    if xt is not None:
        # the walk crosses nowhere, and X_T agrees within the margin
        assert not crossed.any()
        assert np.all(np.abs(xt - walked) <= margin)
        assert np.array_equal(xt, xt_ref)
    elif not capped:
        # the screen passes every floor a margin below its own bound
        assert low.min() - 2.0 * margin < thr
    if capped:
        pair = ConjugatePair(UtilitySpec.exponential(1.0))
        got = gains.result(pair, 1.0, fam, None, theta)
        samples = np.asarray(pair.utility.u(1.0 + walked), dtype=float)
        assert xt is None
        assert got == PrimalResult(estimate=mc_estimate(samples),
                                   violations=0,
                                   stopped_fraction=float(crossed.mean()))


def test_evaluation_allocates_no_gains_array():
    # the walk's buffer belongs to the built gains, so an evaluation
    # allocates only per-path vectors and the walk's gather of the crossing
    # columns: well under one (steps+1) x paths array.  The traced call
    # walks a second point (a repeated one would be a memo hit)
    market = simulate_general_market(degenerate_coeffs(), 1.0,
                                     TimeGrid(1.0, 64), 4000,
                                     RandomStream(29))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = lsmc_hedge(claim, market, buckets=4)
    fam = HedgeMixFamily(hedge=hedge.strategy, floor=4.0, max_holding=2.5,
                         lin_bounds=(-1.0, 1.0))
    pair = ConjugatePair(UtilitySpec.power(0.5))
    gains = primal._Gains(fam, market)
    gains.kept = 2

    def evaluate(theta):
        return gains.result(pair, 6.0, fam, None, theta)

    theta = np.array([0.1, 2.0, 0.1])
    first = evaluate(theta)
    assert 0.0 < first.stopped_fraction < 0.1
    second_theta = np.array([0.2, 1.9, 0.1])
    tracemalloc.start()
    try:
        second = evaluate(second_theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gains.walks) == 2
    assert second == primal_bound(pair, 6.0, fam, second_theta, market)
    assert evaluate(theta) == first
    assert peak < 0.5 * (64 + 1) * 4000 * 8


@dataclasses.dataclass(frozen=True)
class _ListFamily:
    """A family whose components are given: arrays ``(paths, steps)`` and
    scalars, as :class:`primal._Gains` reads them."""

    comps: tuple
    max_holding: float
    floor: float = 50.0

    def components(self, bundle) -> list:
        return list(self.comps)


def _fill_cases(bundle):
    hedge = lsmc_hedge(logistic_claim(rate=-2.0, scale=2.0), bundle,
                       buckets=4).strategy.holdings(bundle)
    b = bundle.b[:, :-1, 0]
    mix = (hedge, 1.0, b)
    sizes = [np.abs(hedge).max(), 1.0, np.abs(b).max()]
    theta = (0.7, 0.3, -0.4)
    bound = sum(abs(w) * m for w, m in zip(theta, sizes))
    skip = bound / (1.0 - 1e-9) * (1.0 + 1e-12)
    top = float(np.abs(b).max())
    positive = np.where(b > 0.0, b, 0.0)
    with_nan = hedge.copy()
    with_nan[3, 5] = math.nan
    return {
        # (components, theta, max_holding)
        "clip_skipped": (mix, theta, 1e6),
        "bound_just_below_cap": (mix, theta, skip),
        "bound_just_above_cap": (mix, theta, bound * (1.0 - 1e-12)),
        "binding_just_below_cap": ((b,), (1.0,), top * (1.0 - 1e-12)),
        "bound_at_cap_skip_edge": ((b,), (1.0,),
                                   top / (1.0 - 1e-9) * (1.0 + 1e-12)),
        "binding": (mix, (2.0, 0.5, 1.5), 1.0),
        "zero_scalar_weight": (mix, (0.7, 0.0, -0.4), 1e6),
        "scalar_only": (mix, (0.0, 0.5, 0.0), 1e6),
        "lin_only": (mix, (0.0, 0.0, -0.3), 1e6),
        "all_zero": (mix, (0.0, 0.0, 0.0), 1e6),
        # w C is -0.0 wherever the component is 0.0
        "negative_zero": ((positive,), (-0.5,), 1e6),
        "negative_zero_two": ((positive, positive), (-0.5, -0.25), 1e6),
        "nan_component": ((with_nan, 1.0), (2.0, 0.5), 1.0),
    }


@pytest.mark.parametrize("case", [
    "clip_skipped", "bound_just_below_cap", "bound_just_above_cap",
    "binding_just_below_cap", "bound_at_cap_skip_edge", "binding",
    "zero_scalar_weight", "scalar_only", "lin_only", "all_zero",
    "negative_zero", "negative_zero_two", "nan_component"])
def test_fill_is_bitwise_reference(flat_market, case):
    # the fill writes its first term in place, adds 0.0 only when no
    # non-zero scalar is live and skips the clip when the weighted
    # component bound stays below the cap: the paths keep the bits, the
    # NaNs and the sign of every zero of the reference's zeroed sum
    comps, theta, cap = _fill_cases(flat_market)[case]
    fam = _ListFamily(comps=comps, max_holding=cap)
    raw, _, _ = _reference(fam, comps, theta, flat_market, -math.inf)
    got = wealth_process(fam, theta, flat_market)
    assert np.array_equal(got, raw, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(raw))
    held = theta[0] * comps[0]          # the unclipped sum, no leading 0.0
    for w, c in zip(theta[1:], comps[1:]):
        held = held + w * c
    if case.startswith("binding") or case == "nan_component":
        assert np.nanmax(np.abs(held)) > cap
    if case.startswith("negative_zero"):
        # B_0 = 0, so every first holding is the zero sum -0.0 - 0.0, and
        # node 1 carries the sign of dS as +0.0 * dS does
        ds0 = np.diff(flat_market.s, axis=1)[:, 0]
        assert np.all(held[:, 0] == 0.0) and np.all(np.signbit(held[:, 0]))
        assert np.array_equal(np.signbit(got[:, 1]), ds0 < 0.0)
        assert np.any(ds0 < 0.0) and np.any(ds0 > 0.0)
    if case == "nan_component":
        assert np.isnan(got).any() and not np.isnan(got).all()


def test_copies_across_tiles_are_bitwise_reference():
    # 700 paths of 256 steps are three tiles of the time-major copies (256
    # paths each), the last one partial: the walk's wealth and the hedge
    # residual keep the bits of the untiled references
    bundle = simulate_general_market(degenerate_coeffs(), 1.0,
                                     TimeGrid(1.0, 256), 700, RandomStream(5))
    assert 2 * chunk_steps(256) < bundle.paths < 3 * chunk_steps(256)
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = lsmc_hedge(claim, bundle, buckets=4)
    held = hedge.strategy.holdings(bundle)
    comps = (held, 1.0, bundle.b[:, :-1, 0])
    fam = _ListFamily(comps=comps, max_holding=1e6)
    theta = (0.7, 0.3, -0.4)
    raw, _, _ = _reference(fam, comps, theta, bundle, -math.inf)
    assert np.array_equal(wealth_process(fam, theta, bundle), raw)
    # the gains summed down time-major rows, one step at a time
    ds = np.diff(bundle.s, axis=1)
    gains = held[:, 0] * ds[:, 0]
    for k in range(1, ds.shape[1]):
        gains = gains + held[:, k] * ds[:, k]
    resid = hedge.price + gains - np.asarray(claim(bundle.b[:, -1, 0]))
    assert (hedge_residual(hedge.strategy, hedge.price, bundle, claim)
            == float(resid.std(ddof=1)))


@pytest.fixture(scope="module")
def memo_case(flat_market):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = lsmc_hedge(claim, flat_market, buckets=4)
    fam = HedgeMixFamily(hedge=hedge.strategy, floor=4.0, max_holding=2.5,
                         lin_bounds=(-1.0, 1.0))
    return ConjugatePair(UtilitySpec.power(0.5)), fam


def _counting_walks(monkeypatch) -> list:
    """Record every walk the primal evaluations make."""
    walks = []
    real = primal.walk

    def counted(fill, out, thr):
        walks.append(thr)
        return real(fill, out, thr)

    monkeypatch.setattr(primal, "walk", counted)
    return walks


def test_memo_hit_is_fresh_walk(flat_market, memo_case, monkeypatch):
    pair, fam = memo_case
    gains = primal._Gains(fam, flat_market)
    gains.kept = 4

    def evaluate(theta):
        return gains.result(pair, 4.5, fam, None, theta)

    walks = _counting_walks(monkeypatch)
    theta = np.array([0.3, 1.5, -0.5])
    first = evaluate(theta)
    assert len(walks) == 1
    again = evaluate(list(theta))
    assert len(walks) == 1 and len(gains.walks) == 1
    fresh = primal._Gains(fam, flat_market)
    _, xt, crossed = walk(fresh.fill(theta), fresh.path,
                          -fam.floor - primal.FLOOR_SLACK)
    (held_xt, held_stopped), = gains.walks.values()
    assert np.array_equal(held_xt, xt) and not held_xt.flags.writeable
    assert held_stopped == float(crossed.mean()) > 0.0
    ref = primal_bound(pair, 4.5, fam, theta, flat_market)
    assert first == again == ref


def test_memo_holds_claim_free_walks_only(flat_market, memo_case,
                                          monkeypatch):
    pair, fam = memo_case
    gains = primal._Gains(fam, flat_market)
    claim = logistic_claim(rate=-2.0, scale=2.0)
    gains.kept = 4

    def evaluate(theta):
        return gains.result(pair, 4.5, fam, claim, theta)

    walks = _counting_walks(monkeypatch)
    theta = np.array([0.3, 1.5, -0.5])
    assert evaluate(theta) == evaluate(theta)
    assert len(walks) == 2 and not gains.walks


def test_memo_never_shared_across_gains_or_thresholds(memo_case,
                                                      monkeypatch):
    pair, fam = memo_case
    grid = TimeGrid(1.0, 16)
    markets = [simulate_general_market(degenerate_coeffs(), 1.0, grid, 500,
                                       RandomStream(seed))
               for seed in (3, 4)]
    theta = np.array([0.3, 1.5, -0.5])
    # two gains objects of one shape: each walks its own paths
    gains = [primal._Gains(fam, m) for m in markets]
    walks = _counting_walks(monkeypatch)
    for g, m in zip(gains, markets):
        g.kept = 4
        assert (g.result(pair, 4.5, fam, None, theta)
                == primal_bound(pair, 4.5, fam, theta, m))
    assert len(walks) == 2 + 2
    assert [len(g.walks) for g in gains] == [1, 1]
    # two thresholds on one gains: a lower floor, and a claim floor
    shared = gains[0]
    for other, x in ((fam, 4.5), (dataclasses.replace(fam, floor=1.0), 4.5),
                     (with_claim_floor(fam, 0.5, constant_claim(0.0)), 0.5)):
        assert shared.result(pair, x, other, None, theta) == primal_bound(
            pair, x, other, theta, markets[0])
    assert len(shared.walks) == 3
    assert len({thr for _, thr in shared.walks}) == 3


def test_memo_is_bounded_and_evicts_least_recently_used(flat_market,
                                                        memo_case,
                                                        monkeypatch):
    pair, fam = memo_case
    gains = primal._Gains(fam, flat_market)
    kept = gains.kept = 9

    def evaluate(theta):
        return gains.result(pair, 4.5, fam, None, theta)

    thetas = [np.array([0.3, 1.5, -0.5 + 0.01 * k]) for k in range(kept + 6)]
    results = [evaluate(t) for t in thetas[:kept]]
    assert len(gains.walks) == kept
    walks = _counting_walks(monkeypatch)
    assert evaluate(thetas[0]) == results[0]        # now the most recent
    assert not walks
    results += [evaluate(t) for t in thetas[kept:]]
    assert len(walks) == 6 and len(gains.walks) == kept
    # thetas 1-6 were evicted, theta 0 and theta 7 on were kept
    assert evaluate(thetas[0]) == results[0] and len(walks) == 6
    assert evaluate(thetas[7]) == results[7] and len(walks) == 6
    assert evaluate(thetas[1]) == results[1] and len(walks) == 7
    assert len(gains.walks) == kept


def test_search_memo_keeps_the_search_before(flat_market, memo_case,
                                              monkeypatch):
    # each claim-free search trims the shared memo to two searches' calls,
    # so every point of the search before it is still held
    pair, fam = memo_case
    budget = 12
    capitals = (4.5, 4.6, 4.7, 4.5)
    fresh = [optimize_primal(pair, c, fam, flat_market, budget=budget)
             for c in capitals]
    thr = -fam.floor - primal.FLOOR_SLACK
    points = []
    real = primal.minimize

    def recorded(objective, lo, hi, budget):
        def seen(theta):
            points.append(np.asarray(theta, dtype=float).tobytes())
            return objective(theta)
        return real(seen, lo, hi, budget)

    monkeypatch.setattr(primal, "minimize", recorded)
    walks = _counting_walks(monkeypatch)
    gains = primal._Gains(fam, flat_market)
    kept = 2 * search.max_calls(budget, len(fam.bounds))
    before = set()
    for capital, want in zip(capitals, fresh):
        points.clear()
        opt = gains.search(pair, capital, fam, None, budget)
        assert np.array_equal(opt.theta, want.theta)
        assert (opt.result, opt.evaluations) == (want.result,
                                                 want.evaluations)
        assert before <= set(gains.walks) and len(gains.walks) <= kept
        before = {(p, thr) for p in points}
    # searches at nearby capitals retrace each other's points
    assert len(walks) < sum(f.evaluations for f in fresh)


@pytest.mark.parametrize("with_claim", [False, True])
def test_search_scores_each_point_as_its_primal_bound(flat_market,
                                                      monkeypatch,
                                                      with_claim):
    # a point's score is its negated mean utility, bit for bit the mean of
    # primal_bound at that theta, whether the terminal gains screened it,
    # a walk stopped it or a path left the domain; the one result built is
    # primal_bound's at the returned theta
    pair = ConjugatePair(UtilitySpec.power(0.5))
    fam = ConstantFamily(lo=-1.0, hi=3.0, floor=2.0, max_holding=100.0)
    claim = logistic_claim(rate=-2.0, scale=2.0) if with_claim else None
    scored, screened = [], {}
    real_minimize, real_terminal = primal.minimize, primal._Gains.terminal

    def recorded(objective, lo, hi, budget):
        def seen(theta):
            scored.append((np.array(theta), objective(theta)))
            return scored[-1][1]
        return real_minimize(seen, lo, hi, budget)

    def terminal(gains, theta, thr):
        xt = real_terminal(gains, theta, thr)
        screened[np.asarray(theta, dtype=float).tobytes()] = xt is not None
        return xt

    monkeypatch.setattr(primal, "minimize", recorded)
    monkeypatch.setattr(primal._Gains, "terminal", terminal)
    opt = optimize_primal(pair, 1.0, fam, flat_market, claim=claim,
                          budget=24)
    monkeypatch.undo()
    assert len(scored) == opt.evaluations == 24
    for theta, score in scored:
        bound = primal_bound(pair, 1.0, fam, theta, flat_market, claim)
        assert score == -bound.estimate.mean
    kinds = [screened[theta.tobytes()] for theta, _ in scored]
    assert any(kinds) and not all(kinds)
    assert any(score == math.inf for _, score in scored)
    assert opt.result == primal_bound(pair, 1.0, fam, opt.theta, flat_market,
                                      claim)


@pytest.mark.parametrize("with_claim", [False, True])
def test_search_refuses_a_price_holding_nan(flat_market, with_claim):
    # a NaN price raises a ValueError in the search's scores as in
    # primal_bound, for every utility: a half-line utility reads NaN wealth
    # as -inf, so the price itself is refused, not its utility samples
    s = np.array(flat_market.s)
    s[3, 5] = math.nan
    bundle = dataclasses.replace(flat_market, s=s)
    fam = ConstantFamily(lo=-0.5, hi=0.5, floor=30.0)
    claim = logistic_claim(rate=-2.0, scale=2.0) if with_claim else None
    for utility in (UtilitySpec.exponential(1.0), UtilitySpec.power(0.5),
                    UtilitySpec.log()):
        pair = ConjugatePair(utility)
        with pytest.raises(ValueError, match="nan"):
            primal_bound(pair, 5.0, fam, [0.25], bundle, claim)
        with pytest.raises(ValueError, match="nan"):
            optimize_primal(pair, 5.0, fam, bundle, claim=claim, budget=12)


@pytest.mark.parametrize("budget", [0, -7])
def test_searches_refuse_a_budget_below_one(flat_market, budget):
    def never(_theta):
        raise AssertionError("objective called")

    with pytest.raises(ValueError, match="budget must be positive"):
        search.minimize(never, np.zeros(2), np.ones(2), budget)
    pair = ConjugatePair(UtilitySpec.power(0.5))
    with pytest.raises(ValueError, match="budget must be positive"):
        optimize_primal(pair, 1.0, ConstantFamily(), flat_market,
                        budget=budget)
