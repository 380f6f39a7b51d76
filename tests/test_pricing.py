"""Indifference prices, the correlation sweep and the shrinking-market family."""

import dataclasses
import math

import numpy as np
import pytest

from mcduality import pricing
from mcduality.estimates import Estimate, mc_estimate
from mcduality.market import TimeGrid
from mcduality.pricing import (degenerate_example, indifference_price,
                               rho_sweep)
from mcduality.primal import (ConstantFamily, optimize_primal,
                              with_claim_floor)
from mcduality.utility import (ConjugatePair, UtilitySpec, constant_claim,
                               digital_claim, logistic_claim)

from conftest import BASE_PARAMS


EXP = ConjugatePair(UtilitySpec.exponential(1.0))
POWER = ConjugatePair(UtilitySpec.power(0.5))


def test_constant_claim_priced_at_face_value(bundle_rho0):
    fam = ConstantFamily(lo=-0.5, hi=0.5, floor=30.0)
    claim = constant_claim(0.25)
    u_opt = optimize_primal(EXP, 0.5, fam, bundle_rho0, claim=claim,
                            budget=15)
    res = indifference_price(EXP, 0.5, fam, bundle_rho0, claim, u_opt,
                             w_budget=15)
    assert res.price == 0.25
    assert res.converged
    assert res.stderr == 0.0
    # cash translation makes both sides bit-identical
    assert res.w_estimate.mean == res.u_estimate.mean


def test_zero_claim_priced_at_zero(bundle_rho0):
    fam = ConstantFamily(lo=-0.5, hi=0.5, floor=30.0)
    claim = constant_claim(0.0)
    u_opt = optimize_primal(POWER, 1.0, fam, bundle_rho0, claim=claim,
                            budget=15)
    res = indifference_price(POWER, 1.0, fam, bundle_rho0, claim, u_opt,
                             w_budget=15)
    assert res.price == 0.0
    assert res.converged


def test_price_stays_in_bracket_with_finite_se(bundle_rho0):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    fam = ConstantFamily(lo=-1.0, hi=2.0, floor=30.0)
    u_opt = optimize_primal(EXP, 0.5, fam, bundle_rho0, claim=claim,
                            budget=24)
    res = indifference_price(EXP, 0.5, fam, bundle_rho0, claim, u_opt,
                             w_budget=12)
    assert claim.phi_min <= res.price <= claim.phi_max
    assert res.converged
    assert math.isfinite(res.stderr) and res.stderr > 0.0
    assert res.iterations >= 3


def test_price_constrained_mode_runs(bundle_rho03):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    fam = with_claim_floor(ConstantFamily(lo=-1.0, hi=2.0, floor=6.0), 0.75,
                           claim)
    u_opt = optimize_primal(POWER, 0.75, fam, bundle_rho03, claim=claim,
                            budget=24)
    res = indifference_price(POWER, 0.75, fam, bundle_rho03, claim, u_opt,
                             w_budget=12)
    assert claim.phi_min <= res.price <= claim.phi_max
    assert res.converged


def test_sweep_structure_and_determinism():
    claim = logistic_claim(rate=-2.0, scale=2.0)
    kwargs = dict(pair=POWER, x=0.75, claim=claim, params=BASE_PARAMS,
                  grid=TimeGrid(1.0, 24), paths=1500, seed=5,
                  rho_values=[0.3], y_grid=[0.8, 1.0, 1.3],
                  hedge_buckets=4, budget=18, w_budget=10)
    res = rho_sweep(**kwargs)

    assert [r.rho for r in res.rows] == [0.0, 0.3]
    assert not res.row(0.0).headline_constrained
    assert res.row(0.3).headline_constrained
    assert res.row(0.3).u_headline is res.row(0.3).u_constrained.result
    assert res.row(0.0).u_headline is res.row(0.0).u_unconstrained.result

    # each row's cap is the minimum of its own bound + x*y over the y grid
    for r in res.rows:
        assert [y for y, _ in r.cap_table] == [0.8, 1.0, 1.3]
        recomputed = min(e.mean + res.x * y for y, e in r.cap_table)
        assert r.cap_value == recomputed
        assert r.y_star in [y for y, _ in r.cap_table]
        assert r.cap_stderr == dict(r.cap_table)[r.y_star].stderr

    for r in res.rows:
        assert claim.phi_min <= r.price.price <= claim.phi_max
    gap, gap_se = res.price_gap(0.3)
    assert math.isfinite(gap) and gap_se >= 0.0
    with pytest.raises(KeyError):
        res.row(0.9)

    again = rho_sweep(**kwargs)
    assert [r.cap_value for r in again.rows] == \
        [r.cap_value for r in res.rows]
    assert [r.price.price for r in again.rows] == \
        [r.price.price for r in res.rows]
    assert [r.u_headline.estimate.mean for r in again.rows] == \
        [r.u_headline.estimate.mean for r in res.rows]


@pytest.mark.parametrize("pair, halfline", [(EXP, False), (POWER, True)])
def test_sweep_headline_floor_only_for_halfline_utility(pair, halfline):
    # the endogenous floor comes from half-line admissibility: a real-line
    # utility's headline and price stay unconstrained at every rho, while
    # both searches still run and fill the u_con columns
    res = rho_sweep(pair=pair, x=0.75,
                    claim=logistic_claim(rate=-2.0, scale=2.0),
                    params=BASE_PARAMS, grid=TimeGrid(1.0, 8), paths=400,
                    seed=5, rho_values=[0.3, 0.1], y_grid=[1.0],
                    hedge_buckets=3, budget=8, w_budget=6)
    for r in res.rows:
        assert r.headline_constrained == (halfline and r.rho != 0.0)
        head = r.u_constrained if r.headline_constrained \
            else r.u_unconstrained
        assert r.u_headline is head.result
        assert r.price.u_estimate == head.result.estimate
        assert math.isfinite(r.u_constrained.result.estimate.mean)


def test_sweep_builds_each_rows_gains_once(monkeypatch):
    # the claim searches and the claim-free bisection of a row share one
    # evaluation of the hedge: the floor the bisection changes is not an
    # input of the gains
    from mcduality import pricing
    built = []
    real = pricing._component_gains

    def counted(family, bundle):
        built.append(family.floor)
        return real(family, bundle)

    monkeypatch.setattr(pricing, "_component_gains", counted)
    res = rho_sweep(pair=POWER, x=0.75, claim=logistic_claim(rate=-2.0,
                                                             scale=2.0),
                    params=BASE_PARAMS, grid=TimeGrid(1.0, 12), paths=600,
                    seed=5, rho_values=[0.3], y_grid=[1.0], hedge_buckets=3,
                    budget=8, w_budget=6)
    assert len(res.rows) == 2
    assert built == [6.0, 6.0]
    assert all(math.isfinite(r.price.price) for r in res.rows)


def _recorded_searches(monkeypatch, fresh_gains: bool) -> list:
    """Record every primal search of ``pricing`` as ``(capital, claim
    given, theta, result, evaluations)``; with ``fresh_gains`` each search
    gets gains of its own, so no walk is shared."""
    from mcduality import primal
    searches = []
    real = primal._search

    def recorded(pair, x, family, bundle, claim, budget, gains):
        if fresh_gains:
            gains = pricing._component_gains(family, bundle)
        opt = real(pair, x, family, bundle, claim, budget, gains)
        searches.append((x, claim is not None, opt.theta.tobytes(),
                         opt.result, opt.evaluations))
        return opt

    monkeypatch.setattr(pricing, "_search", recorded)
    return searches


def test_shared_walks_never_reach_a_price(bundle_rho03, monkeypatch):
    # the bisection's claim-free searches share the gains' memo of walks;
    # each search ends where it ends on gains of its own, with the same
    # result and number of calls, and the price is the same
    from mcduality import primal
    claim = logistic_claim(rate=-2.0, scale=2.0)
    hedge = primal.lsmc_hedge(claim, bundle_rho03, buckets=4)
    fam = with_claim_floor(
        primal.HedgeMixFamily(hedge=hedge.strategy, scale_bounds=(-1.6, 0.4),
                              const_bounds=(-1.0, 3.5),
                              lin_bounds=(-1.0, 2.5), floor=6.0,
                              max_holding=25.0), 0.75, claim)
    walks = []
    real_walk = primal.walk

    def counted(fill, out, thr):
        walks.append(thr)
        return real_walk(fill, out, thr)

    monkeypatch.setattr(primal, "walk", counted)
    runs = []
    for fresh in (False, True):
        walks.clear()
        searches = _recorded_searches(monkeypatch, fresh)
        gains = primal._component_gains(fam, bundle_rho03)
        u_opt = pricing._search(POWER, 0.75, fam, bundle_rho03, claim, 24,
                                gains)
        price = indifference_price(POWER, 0.75, fam, bundle_rho03, claim,
                                   u_opt, w_budget=24, _gains=gains)
        runs.append((price, searches, len(walks)))
    (shared, shared_searches, shared_walks), (fresh, fresh_searches,
                                              fresh_walks) = runs
    assert shared.converged and shared.iterations >= 4
    assert shared == fresh
    assert shared_searches == fresh_searches
    assert sum(not with_claim for _, with_claim, *_ in shared_searches) \
        == shared.iterations
    # the shared memo saved walks, not calls
    assert shared_walks < fresh_walks


@pytest.mark.parametrize("x", [0.75, 7.0])
def test_price_sides_stop_at_the_claim_sides_floor(monkeypatch, x):
    # each row's claim-free searches evaluate at the threshold of the claim
    # search the price is made from: at rho = 0 the family's -6 - 1e-9, at
    # rho = 0.3 the claim problem's -x - phi_min, or the family's floor when
    # that is lower (x = 7).  Every evaluation that is not a memo hit asks
    # the row's gains for X_T at its threshold before it walks
    from mcduality import primal
    walked, searches = [], []
    real_gains, real_search = pricing._component_gains, pricing._search

    def component_gains(family, bundle):
        gains = real_gains(family, bundle)

        def terminal_at(theta, thr):
            walked.append(thr)
            return gains.terminal_at(theta, thr)

        return dataclasses.replace(gains, terminal_at=terminal_at)

    def search(pair, x, family, bundle, claim, budget, gains):
        start = len(walked)
        opt = real_search(pair, x, family, bundle, claim, budget, gains)
        searches.append((claim is not None, set(walked[start:])))
        return opt

    monkeypatch.setattr(pricing, "_component_gains", component_gains)
    monkeypatch.setattr(pricing, "_search", search)
    res = _small_sweep(x=x, paths=200, rho_values=[0.3])
    rows = []       # per row: (claim searches' thresholds, claim-free ones)
    for with_claim, thresholds in searches:
        if with_claim and (not rows or rows[-1][1]):
            rows.append(([], []))
        rows[-1][0 if with_claim else 1].append(thresholds)
    assert [r.headline_constrained for r in res.rows] == [False, True]
    family_thr = -6.0 - primal.FLOOR_SLACK
    assert [claim_side for claim_side, _ in rows] == [
        [{family_thr}, {max(family_thr, -x)}]] * 2
    for r, ((unc, con), free) in zip(res.rows, rows):
        head = con if r.headline_constrained else unc
        assert set().union(*free) == head


@pytest.mark.parametrize("x, c", [(0.75, -1.0), (0.5, -0.5),
                                  (0.75, -0.75 + 5e-10)])
def test_sweep_refuses_a_negative_claim_floor_before_any_row(monkeypatch,
                                                             x, c):
    # x + phi_min below 1e-9 is refused with with_claim_floor's message
    # before any row simulates its bundle
    simulated = []
    real = pricing.simulate_heston_market

    def recorded(*args, **kwargs):
        simulated.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pricing, "simulate_heston_market", recorded)
    with pytest.raises(ValueError, match="effective wealth floor"):
        _small_sweep(x=x, claim=constant_claim(c))
    assert simulated == []


def test_sweep_simulates_each_rows_bundle_when_it_runs(monkeypatch):
    # one bundle alive at a time: each row's bundle serves the row's cap
    # and searches, and is dropped before the next row's is built
    import gc
    import weakref
    built = []
    real = pricing.simulate_heston_market

    def recorded(*args, **kwargs):
        gc.collect()
        alive = [ref() is not None for ref in built]
        bundle = real(*args, **kwargs)
        built.append(weakref.ref(bundle))
        alive_at.append(alive)
        return bundle

    alive_at = []
    monkeypatch.setattr(pricing, "simulate_heston_market", recorded)
    kwargs = dict(pair=POWER, x=0.75, claim=logistic_claim(rate=-2.0,
                                                            scale=2.0),
                  params=BASE_PARAMS, grid=TimeGrid(1.0, 12), paths=600,
                  seed=5, rho_values=[0.3, 0.1], y_grid=[1.0],
                  hedge_buckets=3, budget=8, w_budget=6)
    res = rho_sweep(**kwargs)
    assert [r.rho for r in res.rows] == [0.0, 0.3, 0.1]
    assert alive_at == [[], [False], [False, False]]
    monkeypatch.undo()
    # the bundles are the ones simulated up front from the same stream
    stream = pricing.RandomStream(5)
    for r in res.rows:
        bundle = real(BASE_PARAMS.with_rho(r.rho), TimeGrid(1.0, 12), 600,
                      stream)
        fam = _sweep_family(bundle, kwargs["claim"])
        if r.headline_constrained:
            fam = with_claim_floor(fam, 0.75, kwargs["claim"])
        u_opt = optimize_primal(POWER, 0.75, fam, bundle,
                                claim=kwargs["claim"], budget=8)
        head = r.u_constrained if r.headline_constrained \
            else r.u_unconstrained
        assert np.array_equal(u_opt.theta, head.theta)
        assert u_opt.result == head.result


def _sweep_family(bundle, claim):
    from mcduality import primal
    hedge = primal.lsmc_hedge(claim, bundle, buckets=3)
    return primal.HedgeMixFamily(hedge=hedge.strategy,
                                 scale_bounds=(-1.6, 0.4),
                                 const_bounds=(-1.0, 3.5),
                                 lin_bounds=(-1.0, 2.5), floor=6.0,
                                 max_holding=25.0)


def _small_sweep(**overrides):
    kwargs = dict(pair=POWER, x=0.75,
                  claim=logistic_claim(rate=-2.0, scale=2.0),
                  params=BASE_PARAMS, grid=TimeGrid(1.0, 8), paths=400,
                  seed=5, rho_values=[0.4, 0.0, 0.1], y_grid=[0.8, 1.0, 1.3],
                  hedge_buckets=3, budget=8, w_budget=6)
    return rho_sweep(**{**kwargs, **overrides})


def _record_dual_bounds(monkeypatch, fake=None) -> list:
    """Record every ``dual_bound_mmm`` call of ``pricing`` as ``(rho of the
    bundle, y, estimate)``; with ``fake`` the estimate is ``fake(y)``."""
    calls = []
    real = pricing.dual_bound_mmm

    def recorded(pair, y, bundle, claim=None):
        est = real(pair, y, bundle, claim) if fake is None else fake(y)
        calls.append((bundle.params.rho, y, est))
        return est

    monkeypatch.setattr(pricing, "dual_bound_mmm", recorded)
    return calls


def test_each_row_caps_its_own_bundle(monkeypatch):
    # a row's cap comes from its own bundle, one bound per y, and is the
    # minimum of those bounds plus x y; the rho = 0 row is not first here
    calls = _record_dual_bounds(monkeypatch)
    res = _small_sweep()
    assert [r.rho for r in res.rows] == [0.4, 0.0, 0.1]
    assert [(rho, y) for rho, y, _ in calls] == [
        (r.rho, y) for r in res.rows for y in (0.8, 1.0, 1.3)]
    for i, r in enumerate(res.rows):
        table = [(y, est) for _, y, est in calls[3 * i:3 * i + 3]]
        assert r.cap_table == table
        k = int(np.argmin([est.mean + 0.75 * y for y, est in table]))
        y_star, est = table[k]
        assert (r.y_star, r.cap_value, r.cap_stderr) == (
            y_star, est.mean + 0.75 * y_star, est.stderr)


def test_row_cap_keeps_the_first_of_tied_minima(monkeypatch):
    # bounds 2 - x y tie every y's cap at exactly 2: y_star is the grid's
    # first y, in every row
    calls = _record_dual_bounds(
        monkeypatch, lambda y: Estimate(2.0 - 0.5 * y, 0.1 * y, 400))
    res = _small_sweep(x=0.5, y_grid=[1.0, 0.5, 2.0])
    assert len(calls) == 3 * len(res.rows)
    for r in res.rows:
        assert (r.y_star, r.cap_value, r.cap_stderr) == (1.0, 2.0, 0.1)


def test_claim_delta_computed_once_per_row(monkeypatch):
    # each row's hedge fit computes the claim's delta and its strategy
    # carries it to every search and bisection on the row's bundle; the
    # shrinking-volatility members share one driver array and grid, so one
    # delta serves every member's fit
    from mcduality import primal
    calls = []
    real = primal._smoothed_delta

    def counted(claim, bundle):
        calls.append(bundle)
        return real(claim, bundle)

    monkeypatch.setattr(primal, "_smoothed_delta", counted)
    monkeypatch.setattr(pricing, "_smoothed_delta", counted)
    res = rho_sweep(pair=POWER, x=0.75, claim=logistic_claim(rate=-2.0,
                                                             scale=2.0),
                    params=BASE_PARAMS, grid=TimeGrid(1.0, 12), paths=600,
                    seed=5, rho_values=[0.3, 0.1], y_grid=[1.0],
                    hedge_buckets=3, budget=8, w_budget=6)
    assert len(res.rows) == 3 and len(calls) == 3
    calls.clear()
    res = degenerate_example(n_values=[1, 4], grid=TimeGrid(1.0, 12),
                             paths=300, seed=7, buckets=3, budget=8)
    assert len(res.rows) == 2 and len(calls) == 1


def test_degenerate_limit_bound_reads_a_finite_member(monkeypatch):
    # one driver draw per call, with the first member: every member's b is
    # that one read-only array, and so is the limit bound's B_T
    from mcduality import market
    draws, members = [], []

    def recorder(real, into):
        def recorded(*args, **kwargs):
            into.append(real(*args, **kwargs))
            return into[-1]
        return recorded

    monkeypatch.setattr(market, "driver_blocks",
                        recorder(market.driver_blocks, draws))
    for name in ("simulate_general_market", "general_member"):
        monkeypatch.setattr(pricing, name,
                            recorder(getattr(pricing, name), members))
    res = degenerate_example(alpha=1.0, x=0.25, n_values=[1, 4],
                             grid=TimeGrid(1.0, 12), paths=300, seed=7,
                             buckets=3, budget=8)
    assert len(draws) == 1
    assert [gp.n for gp in members] == [1.0, 4.0]
    b = members[0].b
    assert not b.flags.writeable
    assert all(gp.b is b for gp in members)
    claim = digital_claim(level=1.0, at=0.0)
    f = np.asarray(claim(b[:, -1, 0]), dtype=float)
    ref = mc_estimate(EXP.utility.u(0.25 + f))
    assert (res.limit_bound.mean, res.limit_bound.stderr) == (
        ref.mean, ref.stderr)
    with pytest.raises(ValueError):
        degenerate_example(paths=30_000, seed=7, n_values=[])


@pytest.mark.parametrize("bad", [0, -2, math.nan, math.inf])
def test_degenerate_example_rejects_bad_member_index(monkeypatch, bad):
    # a zero, negative, NaN or infinite index is refused by name before
    # any driver is drawn
    from mcduality import market

    def no_draw(*_args, **_kwargs):
        raise AssertionError("driver drawn")

    monkeypatch.setattr(market, "driver_blocks", no_draw)
    with pytest.raises(ValueError, match="n_values"):
        degenerate_example(paths=300, seed=7, n_values=[1, bad])


def test_degenerate_gap_reads_the_largest_member():
    # rows keep the order of n_values, and the gap is the largest n's
    # whatever that order
    kw = dict(grid=TimeGrid(1.0, 12), paths=300, seed=7, buckets=3,
              budget=8)
    up = degenerate_example(n_values=[1, 4], **kw)
    down = degenerate_example(n_values=[4, 1], **kw)
    assert [r.n for r in down.rows] == [4.0, 1.0]
    assert down.rows == up.rows[::-1]
    assert down.rows[0].value_mc != down.rows[1].value_mc
    row = down.rows[0]
    assert down.mc_gap == up.mc_gap == (
        row.value_mc - down.limit_bound.mean,
        math.hypot(row.value_mc_stderr, down.limit_bound.stderr))


def test_degenerate_example_anchors():
    res = degenerate_example(n_values=[1, 4], grid=TimeGrid(1.0, 24),
                             paths=3000, seed=7, buckets=6, budget=30)
    assert res.analytic_value_n == pytest.approx(-math.exp(-0.5), abs=1e-12)
    assert res.analytic_value_limit == pytest.approx(
        -0.5 * (1.0 + math.exp(-1.0)), abs=1e-12)
    assert res.analytic_gap == pytest.approx(0.07740906087308785, abs=1e-12)

    assert [row.n for row in res.rows] == [1.0, 4.0]
    for row in res.rows:
        # the digital claim on a driftless driver prices near one half
        assert row.hedge_price == pytest.approx(0.5, abs=0.1)
        assert row.hedge_price_stderr > 0.0
        assert row.residual_sd > 0.0
        # a short-hedge bound never beats the replicable-market optimum
        assert row.bound.estimate.mean <= res.analytic_value_n \
            + 3.0 * row.bound.estimate.stderr
        assert row.bound.estimate.mean > -0.75
        assert abs(row.value_mc - res.analytic_value_n) < 0.05

    lim = res.limit_bound
    assert abs(lim.mean - res.analytic_value_limit) < 3.0 * lim.stderr

    gap, se = res.mc_gap
    assert se > 0.0
    assert gap == res.rows[-1].value_mc - lim.mean
    assert gap > 0.0
