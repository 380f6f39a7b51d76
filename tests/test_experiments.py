"""Config validation, report files and run manifests."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcduality.experiments import (KINDS, _fmt, build_claim, build_market,
                                   build_utility, default_config,
                                   merge_config, run_experiment,
                                   validate_config, write_csv, write_gnuplot)
from mcduality.affine import (AffineMomentQuery, MomentExplosionError,
                              affine_exponential_moment, cir_bond_price)
from mcduality.estimates import mc_estimate
from mcduality.rng import BLOCK_SIZE, WORKERS_ENV, RandomStream
from mcduality.utility import logistic_claim

from conftest import cir_step_loop


def fields(cfg):
    return [v["field"] for v in validate_config(cfg)]


def tiny_kw_config(**over):
    cfg = {"version": 1, "kind": "kw", "paths": 400, "steps": 16,
           "kw": {"mode": "nondegenerate", "n_values": [1, 4]}}
    cfg.update(over)
    return cfg


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_default_config_valid_and_fresh():
    assert validate_config(merge_config({})) == []
    cfg = default_config()
    cfg["market"]["mu"] = 99.0
    assert default_config()["market"]["mu"] == 0.5


def test_merge_overlays_one_level():
    cfg = merge_config({"paths": 5000, "market": {"rho": 0.25}})
    assert cfg["paths"] == 5000
    assert cfg["market"]["rho"] == 0.25
    assert cfg["market"]["kappa"] == 2.0
    assert cfg["sweep"]["x"] == 0.75


def test_version_kind_seed_size_checks():
    assert "version" in fields(merge_config({"version": 2}))
    assert "kind" in fields(merge_config({"kind": "frobnicate"}))
    assert "seed" in fields(merge_config({"seed": -1}))
    assert "seed" in fields(merge_config({"seed": 2**64}))
    assert "seed" in fields(merge_config({"seed": "7"}))
    assert "paths" in fields(merge_config({"paths": 0}))
    assert "steps" in fields(merge_config({"steps": -3}))


def test_feller_violation_named():
    # 2 kappa theta = 4 < sigma^2 = 9
    errs = validate_config(merge_config({"market": {"sigma": 3.0}}))
    market = [e for e in errs if e["field"] == "market"]
    assert len(market) == 1
    assert "Feller" in market[0]["reason"]


def test_unknown_utility_and_claim_kinds():
    assert "utility" in fields(merge_config({"utility": {"kind": "quadratic"}}))
    assert "claim" in fields(merge_config({"claim": {"kind": "lookback"}}))
    with pytest.raises(ValueError):
        build_utility(merge_config({"utility": {"kind": "quadratic"}}))


def test_sweep_specific_checks():
    assert fields(merge_config({"kind": "sweep"})) == []
    assert "sweep.rho_values" in fields(
        merge_config({"kind": "sweep", "sweep": {"rho_values": [1.0]}}))
    assert "sweep.rho_values" in fields(
        merge_config({"kind": "sweep", "sweep": {"rho_values": []}}))
    assert "sweep.y_grid" in fields(
        merge_config({"kind": "sweep", "sweep": {"y_grid": [0.5, -1.0]}}))
    assert "sweep.x" in fields(
        merge_config({"kind": "sweep", "sweep": {"x": 0.0}}))


def test_other_kind_checks():
    assert "degenerate.alpha" in fields(
        merge_config({"kind": "degenerate", "degenerate": {"alpha": 0.0}}))
    assert "degenerate.n_values" in fields(
        merge_config({"kind": "degenerate", "degenerate": {"n_values": []}}))
    assert "kw.mode" in fields(
        merge_config({"kind": "kw", "kw": {"mode": "sideways"}}))
    assert "kw.n_values" in fields(
        merge_config({"kind": "kw", "kw": {"n_values": []}}))
    assert "subreplication.rho" in fields(
        merge_config({"kind": "subreplication",
                      "subreplication": {"rho": 0.0}}))
    assert "subreplication.rho" in fields(
        merge_config({"kind": "subreplication",
                      "subreplication": {"rho": 1.5}}))
    assert "subreplication.shifts" in fields(
        merge_config({"kind": "subreplication",
                      "subreplication": {"shifts": []}}))


# any JSON value; texts avoid path separators, so a claim table path names
# nothing outside the working directory
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.characters(blacklist_characters="/\\"),
              max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _overlay(key, default):
    """Any JSON value for a config field; a section may instead get a
    partial overlay of its own fields."""
    if isinstance(default, dict):
        return _JSON | st.dictionaries(st.sampled_from(sorted(default)),
                                       _JSON, max_size=4)
    return _JSON | st.sampled_from(KINDS) if key == "kind" else _JSON


_OVERLAY = st.fixed_dictionaries(
    {}, optional={key: _overlay(key, val)
                  for key, val in default_config().items()})


@settings(max_examples=200, deadline=None)
@given(user=_OVERLAY)
def test_validate_any_json_violations_or_builds(user):
    cfg = merge_config(user)
    if not validate_config(cfg):
        build_market(cfg)
        build_utility(cfg)
        build_claim(cfg)


def test_claim_table_roundtrip(tmp_path):
    claim = logistic_claim(rate=-2.0, scale=2.0)
    path = tmp_path / "claim-table-roundtrip.txt"
    path.write_text("".join(
        f"{z:.17g} {v:.17g}\n" for z, v in zip(claim.knots, claim.values)))
    loaded = build_claim(merge_config({"claim": {"kind": "table",
                                                 "path": str(path)}}))
    z = np.linspace(-4.0, 4.0, 41)
    np.testing.assert_allclose(loaded(z), claim(z), rtol=0, atol=1e-12)
    assert loaded.spread > 0
    # a relative path resolves against the cwd and fails validation
    assert "claim" in fields(merge_config({"claim": {"kind": "table",
                                                     "path": path.name}}))


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def test_fmt_and_report_bytes(tmp_path):
    assert _fmt(True) == "1" and _fmt(False) == "0"
    assert _fmt(np.int64(3)) == "3"
    assert _fmt(float("nan")) == "nan"
    assert _fmt("label") == "label"
    third = 1.0 / 3.0
    assert float(_fmt(third)) == third  # 17 digits round-trip exactly

    write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 0.5), (2, third)])
    raw = (tmp_path / "t.csv").read_bytes()
    assert raw == b"a,b\n1,0.5\n2," + _fmt(third).encode() + b"\n"

    write_gnuplot(tmp_path / "t.dat", "demo block", ["x", "y"], [(0.0, 1.0)])
    lines = (tmp_path / "t.dat").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# demo block"
    assert lines[1] == "# x y"
    assert lines[2] == "0 1"


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError, match="invalid config"):
        run_experiment({"version": 1, "kind": "frobnicate"}, tmp_path)


def test_kw_run_reports_and_manifest(tmp_path):
    man = run_experiment(tiny_kw_config(), tmp_path)
    assert man.kind == "kw" and man.workers == 1

    # the built-in family projects exactly T / (n^2 + 1), deterministically
    table = np.genfromtxt(tmp_path / "energies.csv", delimiter=",", names=True)
    np.testing.assert_allclose(table["energy_mean"], [1.0 / 2.0, 1.0 / 17.0],
                               rtol=0, atol=1e-12)
    assert np.all(table["energy_se"] <= 1e-12)
    assert np.all(table["zero_cell_fraction"] == 0.0)

    ondisk = json.loads((tmp_path / "manifest.json").read_text())
    assert ondisk["artifact"] == "mcduality"
    assert ondisk["kind"] == "kw"
    assert ondisk["seed"] == man.seed
    assert ondisk["extras"]["mode"] == "nondegenerate"
    for rec in ondisk["outputs"]:
        digest = hashlib.sha256((tmp_path / rec["file"]).read_bytes())
        assert digest.hexdigest() == rec["sha256"]


def test_kw_degenerate_mode_keeps_energy(tmp_path):
    cfg = tiny_kw_config(kw={"mode": "degenerate", "n_values": [1, 10, 100]})
    run_experiment(cfg, tmp_path)
    table = np.genfromtxt(tmp_path / "energies.csv", delimiter=",", names=True)
    # shrinking volatility: the projection captures the same energy at every n
    np.testing.assert_allclose(table["energy_mean"], 1.0, rtol=0, atol=1e-12)


def test_seed_paths_steps_overrides(tmp_path):
    man = run_experiment(tiny_kw_config(), tmp_path, seed=5, paths=300, steps=8)
    assert man.seed == 5
    assert man.config["seed"] == 5
    assert man.config["paths"] == 300
    assert man.config["steps"] == 8


def test_env_worker_default(monkeypatch, tmp_path):
    monkeypatch.setenv(WORKERS_ENV, "2")
    man = run_experiment(tiny_kw_config(), tmp_path)
    assert man.workers == 2


def test_subreplication_bytes_stable_across_workers(tmp_path):
    cfg = {"version": 1, "kind": "subreplication", "paths": 1500, "steps": 16,
           "subreplication": {"rho": 0.3, "shifts": [-5.0, 0.0, 5.0]}}
    m1 = run_experiment(cfg, tmp_path / "a", workers=1)
    m2 = run_experiment(cfg, tmp_path / "b", workers=3)
    assert m1.workers == 1 and m2.workers == 3
    assert ((tmp_path / "a" / "subreplication.csv").read_bytes()
            == (tmp_path / "b" / "subreplication.csv").read_bytes())

    d1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    d2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    for d in (d1, d2):
        d.pop("wall_seconds")
        d.pop("workers")
    assert d1 == d2

    assert m1.extras["phi_min"] == 0.0
    assert m1.extras["t_prime"] == 15.0 / 16.0
    assert m1.extras["min_shift"] in (-5.0, 0.0, 5.0)


def test_oracle_check_report(tmp_path):
    cfg = {"version": 1, "kind": "oracle-check", "paths": 4000, "steps": 64,
           "oracle": {"a_values": [-0.5, 0.0, 12.0],
                      "b_values": [-0.4, 0.0]}}
    run_experiment(cfg, tmp_path)
    t = np.genfromtxt(tmp_path / "oracle.csv", delimiter=",", names=True)
    assert t.shape == (6,)

    ok = t[t["a"] < 12.0]
    assert np.all(np.isfinite(ok["riccati"]))
    np.testing.assert_allclose(ok["mc_mean"], ok["riccati"], rtol=0.05)
    noisy = ok[ok["mc_se"] > 0]
    assert np.all(np.abs(noisy["z_score"]) < 10.0)

    # the classical bond formula is reported only for a = 0, b <= 0 cells
    bond = t[(t["a"] == 0.0) & (t["b"] == -0.4)]
    np.testing.assert_allclose(bond["closed_form"], bond["riccati"],
                               rtol=1e-6)
    assert np.all(np.isnan(t[t["a"] == -0.5]["closed_form"]))

    # E[exp(12 V_T)] is infinite for these parameters: reported as nan
    blown = t[t["a"] == 12.0]
    assert np.all(np.isnan(blown["riccati"]))
    assert np.all(np.isnan(blown["mc_mean"]))


def _oracle_rows_draw_all(cfg):
    # the oracle check as first written: every normal drawn, the whole
    # variance array simulated, then reduced to V_T and the integral of V
    params, grid = build_market(cfg)
    db = math.sqrt(grid.dt) * RandomStream(cfg["seed"]).split(0) \
        .standard_normals(cfg["paths"], grid.steps)
    v = cir_step_loop(params, grid, db)
    int_v = v[:, :-1].sum(axis=1) * grid.dt
    rows = []
    for a in cfg["oracle"]["a_values"]:
        for b in cfg["oracle"]["b_values"]:
            try:
                exact = affine_exponential_moment(
                    params, AffineMomentQuery(a, b, grid.horizon))
            except MomentExplosionError:
                rows.append((a, b) + (math.nan,) * 5)
                continue
            est = mc_estimate(np.exp(a * v[:, -1] + b * int_v))
            closed = (cir_bond_price(params, -b, grid.horizon)
                      if a == 0.0 and b <= 0.0 else math.nan)
            z = (est.mean - exact) / est.stderr if est.stderr > 0 else math.nan
            rows.append((a, b, exact, closed, est.mean, est.stderr, z))
    return rows


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_check_blocks_are_bitwise_draw_all(tmp_path, workers):
    # three path blocks, the last of five paths, reduced one at a time
    cfg = merge_config({"kind": "oracle-check", "paths": 2 * BLOCK_SIZE + 5,
                        "steps": 37,
                        "oracle": {"a_values": [-0.5, 0.0, 12.0],
                                   "b_values": [-0.4, 0.0, 0.3]}})
    run_experiment(cfg, tmp_path / "run", workers=workers)
    write_csv(tmp_path / "ref.csv",
              ["a", "b", "riccati", "closed_form", "mc_mean", "mc_se",
               "z_score"], _oracle_rows_draw_all(cfg))
    assert ((tmp_path / "run" / "oracle.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_oracle_check_holds_one_block(tmp_path):
    # the run's traced peak stays below one (paths, steps+1) float64 array,
    # so it never holds the variance of all paths (nor all their normals)
    paths, steps = 3 * BLOCK_SIZE + 5, 64
    cfg = {"version": 1, "kind": "oracle-check"}
    run_experiment(cfg, tmp_path / "warm", paths=50, steps=8, workers=1)
    tracemalloc.start()
    try:
        run_experiment(cfg, tmp_path / "run", paths=paths, steps=steps,
                       workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < paths * (steps + 1) * 8


def test_degenerate_run_reports(tmp_path):
    cfg = {"version": 1, "kind": "degenerate", "paths": 800, "steps": 12,
           "degenerate": {"alpha": 1.0, "x": 0.0, "n_values": [1.0],
                          "buckets": 4, "degree": 2, "budget": 10}}
    man = run_experiment(cfg, tmp_path)

    b = np.genfromtxt(tmp_path / "bounds.csv", delimiter=",", names=True)
    assert float(b["n"]) == 1.0
    assert np.isfinite(float(b["bound_mean"]))
    assert float(b["bound_se"]) > 0

    rows = {r["quantity"]: (float(r["value"]), float(r["stderr"]))
            for r in read_rows(tmp_path / "analytic.csv")}
    assert rows["value_finite_n_exact"][0] == pytest.approx(-math.exp(-0.5),
                                                            abs=1e-12)
    assert rows["gap_exact"][0] == pytest.approx(
        rows["value_finite_n_exact"][0] - rows["value_limit_exact"][0],
        abs=1e-12)
    assert rows["gap_mc"][1] > 0
    assert man.extras["analytic_gap"] == rows["gap_exact"][0]


def test_sweep_run_reports(tmp_path):
    cfg = {"version": 1, "kind": "sweep", "paths": 800, "steps": 16, "seed": 5,
           "sweep": {"x": 0.75, "rho_values": [0.3], "y_grid": [0.8, 1.2],
                     "hedge_buckets": 2, "budget": 10, "w_budget": 8,
                     "price_tol": 0.05}}
    man = run_experiment(cfg, tmp_path)

    s = np.genfromtxt(tmp_path / "sweep.csv", delimiter=",", names=True)
    assert list(s["rho"]) == [0.0, 0.3]
    assert np.all(np.isfinite(s["u_mean"]))
    # headline: unconstrained at rho = 0, constrained off it
    assert s["u_mean"][0] == s["u_unc_mean"][0]
    assert s["u_mean"][1] == s["u_con_mean"][1]
    assert np.all(s["cap_value"] == man.extras["cap_value"])

    c = np.genfromtxt(tmp_path / "cap.csv", delimiter=",", names=True)
    assert list(c["y"]) == [0.8, 1.2]
    np.testing.assert_allclose(c["cap_at_y"], c["mmm_mean"] + 0.75 * c["y"],
                               rtol=0, atol=1e-15)
    assert man.extras["cap_value"] == min(c["cap_at_y"])
    assert man.extras["y_star"] in (0.8, 1.2)

    dat = (tmp_path / "prices.dat").read_text(encoding="utf-8").splitlines()
    assert dat[0].startswith("# ")
    assert dat[1].startswith("# rho ")
    assert len(dat) == 4
