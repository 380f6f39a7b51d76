"""Simulator invariants, oracles for means, distance rules."""

import math

import numpy as np
import pytest

from mcduality.affine import AffineMomentQuery, affine_exponential_moment
from mcduality.estimates import mc_estimate
from mcduality.market import (GeneralMarketCoeffs, HestonParams, PathBundle,
                              TimeGrid, driver_blocks,
                              minimal_martingale_density,
                              semimartingale_distance, simulate_cir,
                              simulate_cir_blocks, simulate_general_market,
                              simulate_heston_market, stochastic_exponential)
from mcduality.rng import BLOCK_SIZE, WORKERS_ENV, RandomStream

from conftest import (BASE_PARAMS, SMALL_GRID, SMALL_PATHS, SMALL_SEED,
                      cir_step_loop, driver_draw_all)


def _se(x):
    return float(np.std(x, ddof=1) / math.sqrt(x.size))


# ---------------------------------------------------------------------------
# parameters and grid
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):  # Feller violated: 2*1*0.1 < 1
        HestonParams(mu=0.0, kappa=1.0, theta=0.1, sigma=1.0, v0=1.0)
    with pytest.raises(ValueError):
        HestonParams(mu=0.0, kappa=1.0, theta=1.0, sigma=1.0, v0=1.0, rho=1.0)
    for name in ("mu", "kappa", "theta", "sigma", "v0", "rho"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                HestonParams(**{"mu": 0.5, "kappa": 2.0, "theta": 1.0,
                                "sigma": 0.7, "v0": 1.0, name: bad})
    p = BASE_PARAMS.with_rho(0.25)
    assert p.rho == 0.25 and p.mu == BASE_PARAMS.mu


def test_grid_properties():
    g = TimeGrid(horizon=2.0, steps=8)
    assert g.dt == 0.25
    assert g.times[0] == 0.0 and g.times[-1] == 2.0
    assert g.node_index(0.5) == 2
    with pytest.raises(ValueError):
        g.node_index(0.3)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, steps=0)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, np.float64(4.0), "4"])
def test_grid_rejects_a_step_count_that_is_not_an_integer(steps):
    # 2.5 gave dt 0.4 and then a TypeError from .times; True was one step
    with pytest.raises(ValueError, match="must be an integer"):
        TimeGrid(1.0, steps)


def test_grid_accepts_numpy_integer_steps():
    assert np.array_equal(TimeGrid(1.0, np.int64(4)).times,
                          TimeGrid(1.0, 4).times)


def test_grid_rejects_a_horizon_that_is_not_finite_and_positive():
    # nan fails every comparison, so a bare "<= 0" check let it through and
    # the grid's times came out [nan, ...]; inf gave [nan, inf, ...]
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite positive"):
            TimeGrid(bad, 4)


# ---------------------------------------------------------------------------
# CIR simulation
# ---------------------------------------------------------------------------


def test_cir_mean_stationary():
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=1.0, v0=1.0)
    v = simulate_cir(p, TimeGrid(1.0, 128), 20_000, RandomStream(3))
    vt = v[:, -1]
    assert abs(vt.mean() - 1.0) <= 3.0 * _se(vt)
    assert v.min() >= 0.0


def test_cir_mean_reversion_oracle():
    # analytic mean theta + (v0 - theta) e^{-kappa T}
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=1.0, v0=2.0)
    v = simulate_cir(p, TimeGrid(1.0, 128), 20_000, RandomStream(3))
    vt = v[:, -1]
    target = 1.0 + math.exp(-2.0)
    assert abs(vt.mean() - target) <= 3.0 * _se(vt)


def test_cir_small_vol_ode_limit():
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=1e-8, v0=2.0)
    v = simulate_cir(p, TimeGrid(1.0, 256), 200, RandomStream(3))
    vt = v[:, -1]
    assert vt.var() < 1e-10
    # Euler bias for the deterministic recursion is O(dt) ~ 1e-3 here
    assert vt.mean() == pytest.approx(1.0 + math.exp(-2.0), abs=3e-3)


def test_cir_matches_market_bundle(bundle_rho0):
    v = simulate_cir(BASE_PARAMS, SMALL_GRID, SMALL_PATHS,
                     RandomStream(SMALL_SEED))
    assert np.array_equal(v, bundle_rho0.v)


def test_driver_matches_market_bundle(bundle_rho0):
    b = driver_draw_all(SMALL_GRID, SMALL_PATHS, RandomStream(SMALL_SEED))
    assert np.array_equal(b, bundle_rho0.b)


def _driver_by_blocks(grid, paths, stream, d=None):
    """The driver of ``driver_blocks`` stored block by block by a visitor,
    with the ``(lo, hi)`` spans it visited."""
    out = np.full((paths, grid.steps + 1) + (() if d is None else (d,)),
                  np.nan)
    spans = []

    def store(lo, hi, levels):
        out[lo:hi] = levels
        spans.append((lo, hi))

    driver_blocks(grid, paths, stream, store, d)
    return out, sorted(spans)


def _draw_all_increments(stream, grid, paths, label=0):
    # every increment of a driver drawn at once, as simulation first did
    return math.sqrt(grid.dt) * stream.split(label).standard_normals(
        paths, grid.steps)


@pytest.mark.parametrize("paths, steps", [
    (BLOCK_SIZE + 3, 37), (5, 3), (BLOCK_SIZE, 16), (2 * BLOCK_SIZE + 1, 33),
    (BLOCK_SIZE + 3, 256),
])
def test_cir_blocked_recursion_is_bitwise_step_loop(paths, steps):
    # a partial last block of paths and a partial last chunk of steps; a
    # large sigma makes the truncation bind on some paths.  At 256 steps a
    # full block's input copy runs in 16 tiles of paths
    p = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=1.4, v0=0.3)
    grid = TimeGrid(1.0, steps)
    v = simulate_cir(p, grid, paths, RandomStream(4))
    ref = cir_step_loop(p, grid, _draw_all_increments(RandomStream(4), grid,
                                                      paths))
    assert np.array_equal(v, ref)
    if paths > BLOCK_SIZE:
        assert (ref == 0.0).any()   # the truncation binds on some paths


@pytest.mark.parametrize("paths", [0, -3])
@pytest.mark.parametrize("simulate", ["cir", "heston", "general"])
def test_simulators_refuse_a_path_count_below_one(simulate, paths):
    # -3 used to reach numpy's "negative dimensions are not allowed" from
    # the output allocation, before the block runner's own check
    grid, stream = TimeGrid(1.0, 4), RandomStream(1)
    run = {"cir": lambda: simulate_cir(BASE_PARAMS, grid, paths, stream),
           "heston": lambda: simulate_heston_market(BASE_PARAMS, grid, paths,
                                                    stream),
           "general": lambda: simulate_general_market(
               GeneralMarketCoeffs(2, lambda n: 1.0, lambda n: 0.0), 1.0,
               grid, paths, stream)}[simulate]
    with pytest.raises(ValueError, match="need paths >= 1"):
        run()


def test_malformed_worker_count_names_the_variable(monkeypatch):
    # a direct library call reads the worker count too, and says which
    # variable is malformed instead of quoting int()'s message
    monkeypatch.setenv(WORKERS_ENV, "abc")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        simulate_cir(BASE_PARAMS, TimeGrid(1.0, 4), 10, RandomStream(1))


@pytest.mark.parametrize("workers", [1, 2])
def test_cir_per_block_draws_are_bitwise_draw_all(workers, monkeypatch):
    # drawing each path block's normals just before its recursion gives the
    # paths of drawing all normals first, whether the blocks are stored into
    # simulate_cir's result or visited one at a time in a block buffer
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    p = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=1.4, v0=0.3)
    grid, paths = TimeGrid(1.0, 37), 2 * BLOCK_SIZE + 3
    ref = cir_step_loop(p, grid,
                        _draw_all_increments(RandomStream(8), grid, paths))
    v = simulate_cir(p, grid, paths, RandomStream(8))
    assert np.array_equal(v, ref)
    seen = np.full_like(ref, np.nan)
    spans = []

    def visit(lo, hi, block):
        seen[lo:hi] = block
        spans.append((lo, hi))

    simulate_cir_blocks(p, grid, paths, RandomStream(8), visit)
    assert np.array_equal(seen, ref)
    assert sorted(spans) == [(0, BLOCK_SIZE), (BLOCK_SIZE, 2 * BLOCK_SIZE),
                             (2 * BLOCK_SIZE, paths)]


@pytest.mark.parametrize("workers", [1, 2])
def test_driver_per_block_draws_are_bitwise_draw_all(workers, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    grid, paths = TimeGrid(1.0, 37), 2 * BLOCK_SIZE + 3
    db = _draw_all_increments(RandomStream(8), grid, paths)
    ref = np.zeros((paths, grid.steps + 1))
    np.cumsum(db, axis=1, out=ref[:, 1:])
    b, spans = _driver_by_blocks(grid, paths, RandomStream(8))
    assert np.array_equal(b, ref)
    assert spans == [(0, BLOCK_SIZE), (BLOCK_SIZE, 2 * BLOCK_SIZE),
                     (2 * BLOCK_SIZE, paths)]


def test_cir_time_step_bias_shrinks_against_oracles():
    # full-truncation Euler is first order in dt: against the exact
    # E[V_T] and the affine oracle's E[exp(-V_T)] the error falls about
    # fourfold per fourfold refinement, and at 16 steps it is resolved
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=0.5, v0=4.0)
    exact = {"mean": p.theta + (p.v0 - p.theta) * math.exp(-p.kappa),
             "exp": affine_exponential_moment(
                 p, AffineMomentQuery(-1.0, 0.0, 1.0))}
    ests = {"mean": [], "exp": []}
    for steps in (16, 64, 256):
        vt = simulate_cir(p, TimeGrid(1.0, steps), 40_000,
                          RandomStream(1))[:, -1]
        ests["mean"].append(mc_estimate(vt))
        ests["exp"].append(mc_estimate(np.exp(-vt)))
    for name, (e16, e64, e256) in ests.items():
        err = [abs(e.mean - exact[name]) for e in (e16, e64, e256)]
        assert err[0] >= 5.0 * e16.stderr, name
        assert err[0] > err[1] > err[2], name
        # a first-order error cancels in the Richardson combination of the
        # 64- and 256-step estimates; a scheme that is not consistent, or
        # not first order, leaves a resolved remainder
        rich = (4.0 * e256.mean - e64.mean) / 3.0
        rich_se = math.hypot(4.0 * e256.stderr, e64.stderr) / 3.0
        assert abs(rich - exact[name]) <= 3.0 * rich_se, name


# ---------------------------------------------------------------------------
# stochastic exponential and density
# ---------------------------------------------------------------------------


def test_stochastic_exponential_zero_integrand():
    d_m = np.random.default_rng(0).normal(size=(5, 10))
    out = stochastic_exponential(0.0, d_m, 0.01)
    assert np.array_equal(out, np.ones((5, 10 + 1)))


def test_stochastic_exponential_lognormal_moment():
    # deterministic integrand: log E-terminal is N(-theta^2 T/2, theta^2 T)
    rng = RandomStream(17)
    dt = 1.0 / 64
    db = math.sqrt(dt) * rng.standard_normals(20_000, 64)
    out = stochastic_exponential(0.8, db, dt)
    logs = np.log(out[:, -1])
    assert abs(logs.mean() + 0.5 * 0.8**2) <= 3.0 * _se(logs)
    assert out.min() > 0.0


def test_density_recomputes_from_bundle(bundle_rho0):
    b = bundle_rho0
    db = np.diff(b.b, axis=1)
    vleft = b.v[:, :-1]
    mu = b.params.mu
    logz = (-mu * np.sqrt(vleft) * db - 0.5 * mu**2 * vleft * b.dt).sum(axis=1)
    assert np.abs(np.log(b.z) - logz).max() < 1e-12


def test_density_zero_drift_is_one():
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
    grid = TimeGrid(1.0, 32)
    db = _draw_all_increments(RandomStream(5), grid, 100)
    v = simulate_cir(p, grid, 100, RandomStream(5))
    out = np.full_like(v, np.nan)
    z = minimal_martingale_density(0.0, v, db, grid.dt, out)
    assert z is out
    assert np.array_equal(z, np.ones((100, 33)))


def test_density_terminal_mean_near_one(bundle_rho0):
    assert bundle_rho0.z.min() > 0.0
    # Z_T is right-skewed, so small-sample means drift low; use more paths.
    b = simulate_heston_market(BASE_PARAMS, SMALL_GRID, 20_000,
                               RandomStream(21))
    zt = b.z
    assert abs(zt.mean() - 1.0) <= 3.0 * _se(zt)


# ---------------------------------------------------------------------------
# market bundle
# ---------------------------------------------------------------------------


def test_market_zero_drift_price_martingale():
    p = HestonParams(mu=0.0, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)
    b = simulate_heston_market(p, SMALL_GRID, 20_000, RandomStream(21))
    st = b.s[:, -1]
    assert abs(st.mean()) <= 3.0 * _se(st)


def test_market_terminal_price_mean(bundle_rho0):
    # E[S_T] = mu * (theta T + (v0 - theta)(1 - e^{-kappa T}) / kappa)
    st = bundle_rho0.s[:, -1]
    p = bundle_rho0.params
    target = p.mu * (p.theta * 1.0 + (p.v0 - p.theta)
                     * (1.0 - math.exp(-p.kappa)) / p.kappa)
    assert abs(st.mean() - target) <= 3.0 * _se(st)


def test_market_quadratic_variation(bundle_rho03):
    qv = (np.diff(bundle_rho03.s, axis=1) ** 2).sum(axis=1)
    p = bundle_rho03.params
    target = p.theta * 1.0  # integrated variance mean at v0 = theta
    assert abs(qv.mean() - target) <= 3.0 * _se(qv) + 0.01  # O(dt) drift bias


def test_shared_seed_rho_invariance(bundle_rho0, bundle_rho03):
    assert np.array_equal(bundle_rho0.b, bundle_rho03.b)
    assert np.array_equal(bundle_rho0.w, bundle_rho03.w)
    assert np.array_equal(bundle_rho0.v, bundle_rho03.v)
    assert np.array_equal(bundle_rho0.z, bundle_rho03.z)
    assert not np.array_equal(bundle_rho0.s, bundle_rho03.s)


def _levels(inc):
    # running sums over axis 1 from a zero slice
    out = np.zeros((inc.shape[0], inc.shape[1] + 1) + inc.shape[2:])
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def _reference_heston_market(params, grid, paths, stream):
    # every increment drawn at once and each path array built whole over
    # all paths, as the bundle was first simulated
    db = _draw_all_increments(stream, grid, paths)
    dw = _draw_all_increments(stream, grid, paths, label=1)
    v = cir_step_loop(params, grid, db)
    vleft = v[:, :-1]
    mix = math.sqrt(1.0 - params.rho**2)
    ds = params.mu * vleft * grid.dt \
        + np.sqrt(vleft) * (mix * db + params.rho * dw)
    z = stochastic_exponential(-params.mu * np.sqrt(vleft), db, grid.dt)
    return {"b": _levels(db), "w": _levels(dw), "v": v, "s": _levels(ds),
            "z": z[:, -1]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("paths, steps", [(2 * BLOCK_SIZE + 3, 37), (5, 3)])
def test_bundle_is_bitwise_whole_array_reference(paths, steps, workers,
                                                 monkeypatch):
    # three path blocks, the last of three paths, and a one-block bundle;
    # the large sigma makes the truncation bind on some of the long paths
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    p = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=1.4, v0=0.3,
                     rho=0.3)
    grid = TimeGrid(1.0, steps)
    got = simulate_heston_market(p, grid, paths, RandomStream(12))
    ref = _reference_heston_market(p, grid, paths, RandomStream(12))
    for f in ("b", "w", "v", "s", "z"):
        assert np.array_equal(getattr(got, f), ref[f]), f


def test_worker_count_bit_invariance(monkeypatch):
    grid = TimeGrid(1.0, 16)
    monkeypatch.setenv(WORKERS_ENV, "1")
    a = simulate_heston_market(BASE_PARAMS, grid, 9000, RandomStream(2))
    monkeypatch.setenv(WORKERS_ENV, "4")
    b = simulate_heston_market(BASE_PARAMS, grid, 9000, RandomStream(2))
    for f in ("b", "w", "v", "s", "z"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_bundle_initial_nodes(bundle_rho03):
    b = bundle_rho03
    assert np.all(b.b[:, 0] == 0) and np.all(b.w[:, 0] == 0)
    assert np.all(b.s[:, 0] == 0)
    assert np.all(b.v[:, 0] == b.params.v0)
    assert b.paths == SMALL_PATHS and b.steps == SMALL_GRID.steps
    assert b.z.shape == (SMALL_PATHS,)


@pytest.mark.parametrize("workers", [1, 2])
def test_bundle_density_is_terminal_of_density_paths(workers, monkeypatch):
    # two path blocks: the bundle keeps the last node of the density paths
    # that minimal_martingale_density writes from the same increments
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    paths, grid = BLOCK_SIZE + 5, TimeGrid(1.0, 7)
    bundle = simulate_heston_market(BASE_PARAMS, grid, paths,
                                    RandomStream(3))
    db = _draw_all_increments(RandomStream(3), grid, paths)
    full = minimal_martingale_density(BASE_PARAMS.mu, bundle.v, db, grid.dt,
                                      np.empty_like(bundle.v))
    assert np.array_equal(bundle.z, full[:, -1])


def test_bundle_arrays_are_read_only(bundle_rho03):
    b = bundle_rho03
    with pytest.raises(ValueError):
        b.w[0, 1] = 0.0
    with pytest.raises(ValueError):
        b.w += 1.0
    for f in ("times", "b", "w", "v", "s", "z"):
        assert not getattr(b, f).flags.writeable, f


# ---------------------------------------------------------------------------
# general market family
# ---------------------------------------------------------------------------


def _scaled_brownian_coeffs():
    return GeneralMarketCoeffs(
        d=1, sigma=lambda n: (0.0 if math.isinf(n) else 1.0 / n,),
        lam=lambda _n: 0.0)


def _reference_general_market(coeffs, n, grid, paths, stream):
    # the whole driver drawn at once and the exact price over all paths
    b = driver_draw_all(grid, paths, stream, coeffs.d)
    sig = np.asarray(coeffs.sigma(n), dtype=float)
    s = sig[0] * b[:, :, 0] + sig[1] * b[:, :, 1]
    s += (coeffs.lam(n) * (sig @ sig)) * grid.times
    return b, s


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("paths, steps", [(2 * BLOCK_SIZE + 3, 37), (5, 3)])
@pytest.mark.parametrize("n", [2.0, math.inf])
def test_general_market_is_bitwise_whole_array_reference(n, paths, steps,
                                                         workers,
                                                         monkeypatch):
    # two drivers and a drift, so every term of the price is live
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    coeffs = GeneralMarketCoeffs(
        d=2, sigma=lambda n: (0.7, 0.0 if math.isinf(n) else 1.0 / n),
        lam=lambda n: 0.5 if math.isinf(n) else 0.5 + 1.0 / n)
    grid = TimeGrid(1.0, steps)
    got = simulate_general_market(coeffs, n, grid, paths, RandomStream(13))
    b, s = _reference_general_market(coeffs, n, grid, paths,
                                     RandomStream(13))
    assert np.array_equal(got.b, b)
    assert np.array_equal(got.s, s)
    assert not (got.b.flags.writeable or got.s.flags.writeable)
    # the driver alone, as the blocks of driver_blocks give it
    alone, _ = _driver_by_blocks(grid, paths, RandomStream(13), d=2)
    assert np.array_equal(alone, b)


def test_general_market_scaled_brownian():
    coeffs = _scaled_brownian_coeffs()
    grid = TimeGrid(1.0, 32)
    gp = simulate_general_market(coeffs, 4.0, grid, 500, RandomStream(6))
    assert np.allclose(gp.s, gp.b[:, :, 0] / 4.0, atol=1e-12)
    # no drift: S is the martingale sum of sigma dB, rebuilt from the draws
    db = RandomStream(6).split(0).standard_normals(500, 32)
    db *= math.sqrt(grid.dt)
    m = np.zeros((500, 33))
    for k in range(32):
        m[:, k + 1] = m[:, k] + 0.25 * db[:, k]
    assert np.array_equal(gp.s, m)


def test_general_market_limit_is_flat():
    coeffs = _scaled_brownian_coeffs()
    gp = simulate_general_market(coeffs, math.inf, TimeGrid(1.0, 32), 500,
                                 RandomStream(6))
    assert np.array_equal(gp.s, np.zeros_like(gp.s))
    assert not np.signbit(gp.s).any()


def test_general_market_constant_coeffs_drift():
    coeffs = GeneralMarketCoeffs(d=1, sigma=lambda _n: (0.5,),
                                 lam=lambda _n: 2.0)
    gp = simulate_general_market(coeffs, 1.0, TimeGrid(1.0, 64), 20_000,
                                 RandomStream(8))
    st = gp.s[:, -1]
    assert abs(st.mean() - 2.0 * 0.25) <= 3.0 * _se(st)


def test_general_market_shared_drivers():
    coeffs = _scaled_brownian_coeffs()
    g1 = simulate_general_market(coeffs, 1.0, TimeGrid(1.0, 16), 100,
                                 RandomStream(9))
    g2 = simulate_general_market(coeffs, 7.0, TimeGrid(1.0, 16), 100,
                                 RandomStream(9))
    assert np.array_equal(g1.b, g2.b)


# ---------------------------------------------------------------------------
# semimartingale distance
# ---------------------------------------------------------------------------


def test_distance_identity_and_cap():
    x = np.cumsum(np.random.default_rng(1).normal(size=(200, 20)), axis=1)
    rep = semimartingale_distance(x, x)
    assert rep.distance.mean == 0.0
    y = x + np.linspace(0, 50, 20)  # huge difference: capped at 1
    rep2 = semimartingale_distance(x, y)
    assert rep2.distance.mean <= 1.0


def test_distance_exact_symmetry():
    rng = np.random.default_rng(2)
    x = np.cumsum(rng.normal(size=(300, 15)), axis=1)
    y = np.cumsum(rng.normal(size=(300, 15)), axis=1)
    a = semimartingale_distance(x, y)
    b = semimartingale_distance(y, x)
    assert a.distance.mean == b.distance.mean
    # rule table is permuted under the swap
    assert (a.by_rule["const+1"].mean == b.by_rule["const-1"].mean)
    assert (a.by_rule["running-sign"].mean
            == b.by_rule["running-sign-mirror"].mean)


def test_distance_symmetry_with_tied_increments():
    # integer paths with zero increments: mirroring keeps symmetry exact
    x = np.array([[0.0, 1.0, 1.0, 2.0], [0.0, -1.0, -1.0, 0.0]])
    y = np.zeros_like(x)
    a = semimartingale_distance(x, y)
    b = semimartingale_distance(y, x)
    assert a.distance.mean == b.distance.mean


def test_distance_decreases_with_rho():
    base = simulate_heston_market(BASE_PARAMS, TimeGrid(1.0, 64), 8000,
                                  RandomStream(33))
    vals = []
    for rho in (0.4, 0.2, 0.1, 0.05):
        b = simulate_heston_market(BASE_PARAMS.with_rho(rho), TimeGrid(1.0, 64),
                                   8000, RandomStream(33))
        vals.append(semimartingale_distance(b.s, base.s).distance.mean)
    assert all(a > b for a, b in zip(vals, vals[1:]))
