"""Acceptance suite: one test per advertised guarantee.

Each test checks a headline property of the package at its stated tolerance
and prints a single ``[PASS]`` line with the measured margins (visible with
``pytest -rP`` or ``-s``).  Everything runs at desk scale on fixed seeds:
at most 1e5 paths and 512 steps, minutes for the whole module.
"""

import math

import numpy as np
import pytest

from mcduality import affine
from mcduality.dual import minimize_dual, subreplication_estimate
from mcduality.estimates import mc_estimate
from mcduality.experiments import run_experiment
from mcduality.kw import kw_convergence_diag, kw_decompose
from mcduality.market import (GeneralMarketCoeffs, HestonParams, TimeGrid,
                              simulate_cir, simulate_heston_market)
from mcduality.pricing import degenerate_coeffs, degenerate_example, rho_sweep
from mcduality.primal import (HedgeMixFamily, lsmc_hedge, optimize_primal,
                              with_claim_floor)
from mcduality.rng import WORKERS_ENV, RandomStream
from mcduality.utility import (ConjugatePair, UtilitySpec, constant_claim,
                               constrained_conjugate, logistic_claim)

from conftest import exp_identity_errors

BASE = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.0)


def _line(name, detail):
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def big_tails():
    """Terminal V and Z plus integrated V, pooled from 1e5 paths at 512 steps."""
    grid = TimeGrid(1.0, 512)
    parent = RandomStream(123)
    v_t, z_t, int_v = [], [], []
    for half in range(2):
        bundle = simulate_heston_market(BASE, grid, 50000, parent.split(half))
        v_t.append(bundle.v[:, -1].copy())
        z_t.append(bundle.z)
        int_v.append(bundle.v[:, :-1].sum(axis=1) * grid.dt)
        del bundle
    return np.concatenate(v_t), np.concatenate(z_t), np.concatenate(int_v)


# ---------------------------------------------------------------------------
# 1. conjugate algebra
# ---------------------------------------------------------------------------

def test_conjugate_algebra():
    rng = np.random.default_rng(2024)
    pairs = [ConjugatePair(UtilitySpec.power(0.5)),
             ConjugatePair(UtilitySpec.log()),
             ConjugatePair(UtilitySpec.exponential(1.0)),
             ConjugatePair(UtilitySpec.exponential(2.5))]

    worst_ineq = 0.0
    worst_eq = 0.0
    for pair in pairs:
        u = pair.utility
        if u.is_halfline:
            xs = rng.uniform(0.05, 20.0, size=1000)
        else:
            # keep |U| at O(1e2) so the identity is testable at 1e-8 in
            # doubles; deep in the left tail the exact cancellation of
            # e^{alpha|x|}-sized terms dominates any tolerance
            xs = rng.uniform(-2.0, 6.0, size=1000)
        ys = rng.uniform(0.05, 20.0, size=1000)
        gap = pair.v(ys) + xs * ys - u.u(xs)
        worst_ineq = max(worst_ineq, float(-gap.min()))
        ystar = np.asarray(u.marginal(xs), dtype=float)
        eq = np.abs(pair.v(ystar) + xs * ystar - u.u(xs))
        worst_eq = max(worst_eq, float(eq.max()))
    assert worst_ineq <= 1e-8
    assert worst_eq <= 1e-8

    y_grid = np.geomspace(0.1, 10.0, 33)
    c_grid = np.geomspace(0.25, 4.0, 17)
    err1 = err2 = 0.0
    for alpha in (1.0, 2.5):
        e1, e2 = exp_identity_errors(alpha, y_grid, c_grid)
        err1, err2 = max(err1, e1), max(err2, e2)
    assert err1 <= 1e-12 and err2 <= 1e-12

    # constrained conjugate against brute-force maximization on a dense grid
    worst_vc = 0.0
    for pair in pairs:
        u = pair.utility
        for phi_min in (0.0, 0.25):
            for dz in (0.0, 0.4, 2.0):
                z = phi_min + dz
                for y in (0.2, 0.7, 1.5, 4.0):
                    vc = float(constrained_conjugate(pair, y, z, phi_min))
                    hi = max(8.0, 1.5 * float(u.inverse_marginal(y)) + 2.0)
                    xs = np.linspace(-phi_min + 1e-9, hi, 80001)
                    vals = u.u(xs + z) - xs * y
                    worst_vc = max(worst_vc, abs(vc - float(vals.max())))
    assert worst_vc <= 1e-6

    _line("conjugate algebra",
          f"fenchel {worst_ineq:.1e}/{worst_eq:.1e}, exp identities "
          f"{err1:.1e}/{err2:.1e}, constrained sup {worst_vc:.1e}")


# ---------------------------------------------------------------------------
# 2. market and moment oracles
# ---------------------------------------------------------------------------

def test_market_and_moment_oracles(big_tails):
    v_t, z_t, int_v = big_tails

    est_v = mc_estimate(v_t)
    target = BASE.theta + (BASE.v0 - BASE.theta) * math.exp(-BASE.kappa)
    z_v = abs(est_v.mean - target) / est_v.stderr
    assert z_v <= 3.0

    shifted = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=0.7, v0=1.5)
    v2 = simulate_cir(shifted, TimeGrid(1.0, 256), 50000, RandomStream(7))
    est2 = mc_estimate(v2[:, -1])
    target2 = 1.0 + 0.5 * math.exp(-2.0)
    z_v2 = abs(est2.mean - target2) / est2.stderr
    assert z_v2 <= 3.0

    est_z = mc_estimate(z_t)
    z_z = abs(est_z.mean - 1.0) / est_z.stderr
    assert z_z <= 3.0

    # Riccati route against the classical square-root bond formula
    worst_bond = 0.0
    for u in (0.25, 0.7, 1.3):
        bond = affine.cir_bond_price(BASE, u, 1.0)
        ric = affine.affine_exponential_moment(
            BASE, affine.AffineMomentQuery(0.0, -u, 1.0))
        worst_bond = max(worst_bond, abs(ric - bond))
    assert worst_bond <= 1e-8

    # Riccati route against Monte Carlo on an (a, b) grid
    worst_grid = 0.0
    for a in (-0.5, 0.0, 0.4):
        for b in (-1.0, -0.4, 0.0):
            exact = affine.affine_exponential_moment(
                BASE, affine.AffineMomentQuery(a, b, 1.0))
            est = mc_estimate(np.exp(a * v_t[:20000] + b * int_v[:20000]))
            dev = abs(est.mean - exact)
            assert dev <= 3.0 * est.stderr or dev == 0.0
            if est.stderr > 0:
                worst_grid = max(worst_grid, dev / est.stderr)
    _line("market oracles",
          f"|z| V_T {z_v:.2f}/{z_v2:.2f}, Z_T {z_z:.2f}, bond {worst_bond:.1e}, "
          f"moment grid max|z| {worst_grid:.2f}")


# ---------------------------------------------------------------------------
# 3. dual value anchor
# ---------------------------------------------------------------------------

def test_dual_value_anchor(big_tails):
    _, z_t, _ = big_tails
    p = 0.5
    q = p / (p - 1.0)
    pair = ConjugatePair(UtilitySpec.power(p))
    zq = affine.density_moment(BASE, q, 1.0)
    worst = 0.0
    for y in (0.5, 1.0, 2.0):
        est = mc_estimate(pair.v(y * z_t))
        closed = (1.0 - p) / p * y**q * zq
        rel = abs(est.mean - closed) / abs(closed)
        worst = max(worst, rel)
        assert rel <= 0.01
    _line("dual anchor", f"max relative error {worst:.2%} over y in 0.5/1/2")


# ---------------------------------------------------------------------------
# 4. weak duality grid
# ---------------------------------------------------------------------------

def test_weak_duality_grid():
    pair = ConjugatePair(UtilitySpec.power(0.5))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    grid = TimeGrid(1.0, 64)
    stream = RandomStream(2025)

    worst = math.inf
    cells = 0
    for rho in (0.0, 0.2, 0.4):
        bundle = simulate_heston_market(BASE.with_rho(rho), grid, 10000,
                                        stream)
        hedge = lsmc_hedge(claim, bundle, buckets=6)
        family = HedgeMixFamily(hedge=hedge.strategy,
                                scale_bounds=(-1.6, 0.4),
                                const_bounds=(-1.0, 3.5),
                                lin_bounds=(-1.0, 2.5),
                                floor=6.0, max_holding=25.0)
        duals = {y: minimize_dual(pair, y, bundle, claim=claim, budget=40)
                 for y in (0.6, 1.0, 1.6)}
        for x in (0.5, 0.75, 1.25):
            prim = optimize_primal(pair, x,
                                   with_claim_floor(family, x, claim),
                                   bundle, claim=claim, budget=60)
            pe = prim.result.estimate
            for y, dopt in duals.items():
                de = dopt.estimate
                margin = (de.mean + x * y - pe.mean
                          + 3.0 * math.hypot(pe.stderr, de.stderr))
                worst = min(worst, margin)
                cells += 1
    assert cells == 27
    assert worst >= 0.0
    _line("weak duality", f"27 cells, smallest margin {worst:+.4f}")


# ---------------------------------------------------------------------------
# 5. shrinking-volatility family gap
# ---------------------------------------------------------------------------

def test_degenerate_family_gap():
    res = degenerate_example(alpha=1.0, x=0.0, n_values=[8.0],
                             grid=TimeGrid(1.0, 512), paths=30000, seed=20240,
                             buckets=12, degree=2, budget=60)
    assert res.analytic_value_n == pytest.approx(-math.exp(-0.5), abs=1e-12)
    assert res.analytic_value_limit == pytest.approx(
        -(1.0 + math.exp(-1.0)) / 2.0, abs=1e-12)
    assert abs(res.analytic_gap - 0.0774) < 5e-4  # 3-decimal reproduction

    row = res.rows[-1]
    bound = row.bound.estimate
    assert bound.mean > -0.62
    gap_mc, gap_se = res.mc_gap
    dev = abs(gap_mc - res.analytic_gap)
    assert dev <= 3.0 * gap_se
    _line("value gap in the shrinking-volatility family",
          f"bound {bound.mean:.4f} > -0.62, gap {gap_mc:.4f} vs "
          f"{res.analytic_gap:.4f} (dev {dev:.4f} <= {3 * gap_se:.4f})")


# ---------------------------------------------------------------------------
# 6. subreplication floor
# ---------------------------------------------------------------------------

def _gauss_logistic(rate, scale, sd, shift, n=80):
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    vals = scale / (1.0 + np.exp(-rate * (sd * nodes + shift)))
    return float((weights * vals).sum() / weights.sum())


def test_subreplication_floor():
    claim = logistic_claim(rate=-2.0, scale=2.0)
    grid = TimeGrid(1.0, 100)  # puts T - 0.01 on the node grid
    shifts = [float(s) for s in range(-5, 6)]
    rep = subreplication_estimate(claim, BASE.with_rho(0.3), grid, 20000,
                                  RandomStream(20240), 0.99, shifts)

    drop = rep.minimum.mean - claim.phi_min
    assert drop < 0.02

    sd = math.sqrt(0.01)
    worst = 0.0
    for shift, est in rep.rows:
        oracle = _gauss_logistic(-2.0, 2.0, sd, shift)
        dev = abs(est.mean - oracle)
        assert dev <= 3.0 * max(est.stderr, 1e-4)
        worst = max(worst, dev)
    _line("subreplication floor",
          f"min {rep.minimum.mean:.4f} within {drop:.4f} of phi_min, "
          f"quadrature max dev {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. instability of the value across vanishing correlation
# ---------------------------------------------------------------------------

def test_instability_exhibit():
    pair = ConjugatePair(UtilitySpec.power(0.5))
    claim = logistic_claim(rate=-2.0, scale=2.0)
    grid = TimeGrid(1.0, 96)
    y_grid = [0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.25, 1.6, 2.0]
    rhos = [0.4, 0.2, 0.1, 0.05]

    res = rho_sweep(pair, 0.75, claim, BASE, grid, 20000, 20240, rhos, y_grid)

    # each row against its own cap
    row0 = res.row(0.0)
    u0 = row0.u_headline.estimate
    excess = u0.mean - row0.cap_value
    assert excess > 3.0 * math.hypot(u0.stderr, row0.cap_stderr)

    worst_margin = math.inf
    worst_gap_z = math.inf
    for rho in rhos:
        row = res.row(rho)
        ur = row.u_headline.estimate
        se = math.hypot(ur.stderr, row.cap_stderr)
        assert ur.mean <= row.cap_value + 3.0 * se
        worst_margin = min(worst_margin, row.cap_value - ur.mean)
        gap, gap_se = res.price_gap(rho)
        assert gap > 3.0 * gap_se
        worst_gap_z = min(worst_gap_z, gap / gap_se)

    # with no claim there is nothing to destabilize: the small-rho value
    # stays put within noise
    flat = rho_sweep(pair, 0.75, constant_claim(0.0), BASE, grid, 20000,
                     20240, [0.05], y_grid)
    f0 = flat.row(0.0).u_headline.estimate
    f5 = flat.row(0.05).u_headline.estimate
    diff = abs(f5.mean - f0.mean)
    assert diff <= 3.0 * math.hypot(f0.stderr, f5.stderr)

    _line("instability exhibit",
          f"value at rho=0 beats cap by {excess:.4f}, cap margin at rho!=0 "
          f">= {worst_margin:.4f}, price-gap z >= {worst_gap_z:.1f}, "
          f"claim-free drift {diff:.5f}")


# ---------------------------------------------------------------------------
# 8. orthogonal projection diagnostics
# ---------------------------------------------------------------------------

def _shrinking_second_axis():
    return GeneralMarketCoeffs(
        d=2, sigma=lambda n: (1.0, 0.0 if math.isinf(n) else 1.0 / n),
        lam=lambda _n: 0.0)


def test_orthogonal_projection_diagnostics():
    rng = np.random.default_rng(77)
    paths, steps, d = 400, 32, 3
    dt = 1.0 / steps
    db = rng.normal(size=(paths, steps, d)) * math.sqrt(dt)
    nu = rng.normal(size=(paths, steps, d))
    sigma = rng.normal(size=(paths, steps, d))
    res = kw_decompose(nu, sigma, db, dt)

    resid = nu - res.h[:, :, None] * sigma
    ortho = float(np.abs(np.einsum("pkd,pkd->pk", resid, sigma)).max())
    n2 = np.einsum("pkd,pkd->pk", nu, nu)
    r2 = np.einsum("pkd,pkd->pk", resid, resid)
    p2 = res.h**2 * np.einsum("pkd,pkd->pk", sigma, sigma)
    pyth = float(np.abs(n2 - r2 - p2).max())
    assert ortho <= 1e-10
    assert pyth <= 1e-10

    grid = TimeGrid(1.0, 64)

    rows = kw_convergence_diag(np.array([0.0, 1.0]), _shrinking_second_axis(),
                               [1.0, 10.0, 100.0], grid, 500)
    decay = rows[0].energy.mean / rows[-1].energy.mean
    assert decay >= 4.0

    flat_rows = kw_convergence_diag(np.ones(1), degenerate_coeffs(),
                                    [1.0, 10.0, 100.0], grid, 500)
    worst_const = 0.0
    for r in flat_rows:
        dev = abs(r.energy.mean - grid.horizon)
        assert dev <= max(3.0 * r.energy.stderr, 1e-12)
        worst_const = max(worst_const, dev)
    _line("projection diagnostics",
          f"orthogonality {ortho:.1e}, pythagoras {pyth:.1e}, energy decay "
          f"{decay:.0f}x, constant-energy dev {worst_const:.1e}")


# ---------------------------------------------------------------------------
# 9. reproducible reports
# ---------------------------------------------------------------------------

def test_reproducible_reports(tmp_path, monkeypatch):
    configs = [
        {"version": 1, "kind": "sweep", "paths": 800, "steps": 16, "seed": 5,
         "sweep": {"x": 0.75, "rho_values": [0.3], "y_grid": [0.8, 1.2],
                   "hedge_buckets": 2, "budget": 10, "w_budget": 8}},
        {"version": 1, "kind": "degenerate", "paths": 600, "steps": 12,
         "degenerate": {"alpha": 1.0, "x": 0.0, "n_values": [1.0],
                        "buckets": 4, "degree": 2, "budget": 8}},
        {"version": 1, "kind": "kw", "paths": 400, "steps": 16,
         "kw": {"mode": "nondegenerate", "n_values": [1, 4]}},
        {"version": 1, "kind": "subreplication", "paths": 1200, "steps": 16,
         "subreplication": {"rho": 0.3, "shifts": [-3.0, 0.0, 3.0]}},
    ]
    checked = 0
    for i, cfg in enumerate(configs):
        m1 = run_experiment(cfg, tmp_path / f"a{i}", workers=1)
        m2 = run_experiment(cfg, tmp_path / f"b{i}", workers=1)
        m3 = run_experiment(cfg, tmp_path / f"c{i}", workers=4)
        monkeypatch.setenv(WORKERS_ENV, "3")
        m4 = run_experiment(cfg, tmp_path / f"d{i}")
        monkeypatch.delenv(WORKERS_ENV)
        assert m3.workers == 4 and m4.workers == 3
        assert m1.outputs == m2.outputs == m3.outputs == m4.outputs
        for rec in m1.outputs:
            raw = (tmp_path / f"a{i}" / rec["file"]).read_bytes()
            assert raw == (tmp_path / f"c{i}" / rec["file"]).read_bytes()
            checked += 1
    assert checked == 7
    _line("reproducible reports",
          f"{checked} report files byte-identical across reruns and "
          f"worker counts 1/3/4")
