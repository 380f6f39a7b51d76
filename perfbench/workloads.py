"""The four benchmark workloads: inputs, timed bodies and output checks.

Every workload drives the public API of ``mcduality`` and returns its
*headline numbers* (``name -> (value, stderr)``) plus the report files it
produced.  The headline numbers are what a user of the package reads off a
run; the report files are hashed so that byte-identical output can be
recognised.  ``check`` holds the invariants the code guarantees for each
workload, independent of the seed.

Sizes are chosen so that one timed body takes a few seconds on a 2-core
machine (each benchmark run repeats the body in fresh interpreters and
reports medians) while the statistical checks still hold on every input
seed.  ``smoke`` sizes exercise the same code in about a second per
workload; the statistical checks are left out there.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

WORKLOADS = ("rho_sweep", "vanishing_vol", "dual_search", "bulk_paths")

SIZES = {
    "full": {
        "rho_sweep": {"paths": 2000, "steps": 24},
        "vanishing_vol": {"paths": 4000, "steps": 128},
        "dual_search": {"paths": 5000, "steps": 80},
        "bulk_paths": {"kw": (6000, 256), "oracle": (60000, 256),
                       "subrep": (50000, 100)},
    },
    "smoke": {
        "rho_sweep": {"paths": 200, "steps": 8},
        "vanishing_vol": {"paths": 300, "steps": 16},
        "dual_search": {"paths": 300, "steps": 8},
        "bulk_paths": {"kw": (300, 16), "oracle": (400, 16),
                       "subrep": (400, 100)},
    },
}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _reports(out: Path, manifest) -> dict:
    return {f"{out.name}/{rec['file']}": rec["sha256"]
            for rec in manifest.outputs}


# ---------------------------------------------------------------------------
# timed bodies: each returns (headlines, facts, reports)
#   headlines  name -> (value, stderr), the estimates a user reads off a run
#   facts      name -> value, exact or derived numbers the checks need
#   reports    report file -> sha256 of its bytes
# ---------------------------------------------------------------------------

def rho_sweep(mcd, seed: int, size: dict, out: Path):
    """``run_experiment`` of kind ``sweep``; defaults except sizes and rhos."""
    out = out / "sweep"
    cfg = {"version": 1, "kind": "sweep", "paths": size["paths"],
           "steps": size["steps"], "sweep": {"rho_values": [0.4, 0.1]}}
    manifest = mcd.run_experiment(cfg, out, seed=seed)
    heads, facts = {}, {}
    rows = _read_csv(out / "sweep.csv")
    for r in rows:
        tag = f"{float(r['rho']):g}"
        u_se, cap_se = float(r["u_se"]), float(r["cap_se"])
        heads[f"u@{tag}"] = (float(r["u_mean"]), u_se)
        heads[f"price@{tag}"] = (float(r["price"]), float(r["price_se"]))
        heads[f"cap_minus_u@{tag}"] = (float(r["cap_minus_u"]),
                                       math.hypot(cap_se, u_se))
    heads["cap"] = (float(rows[0]["cap_value"]), float(rows[0]["cap_se"]))
    claim = mcd.experiments.build_claim(manifest.config)
    facts["phi_min"], facts["phi_max"] = claim.phi_min, claim.phi_max
    return heads, facts, _reports(out, manifest)


def vanishing_vol(mcd, seed: int, size: dict, out: Path):
    """``run_experiment`` of kind ``degenerate`` with ``n`` in {2, 8}."""
    out = out / "degenerate"
    cfg = {"version": 1, "kind": "degenerate", "paths": size["paths"],
           "steps": size["steps"], "degenerate": {"n_values": [2, 8]}}
    manifest = mcd.run_experiment(cfg, out, seed=seed)
    heads, facts = {}, {}
    for r in _read_csv(out / "bounds.csv"):
        tag = f"{float(r['n']):g}"
        heads[f"bound@{tag}"] = (float(r["bound_mean"]), float(r["bound_se"]))
        heads[f"hedge_price@{tag}"] = (float(r["hedge_price"]),
                                       float(r["hedge_price_se"]))
    for r in _read_csv(out / "analytic.csv"):
        if r["quantity"].endswith("_mc"):
            heads[r["quantity"]] = (float(r["value"]), float(r["stderr"]))
        else:
            facts[r["quantity"]] = float(r["value"])
    return heads, facts, _reports(out, manifest)


DUAL_Y = (0.5, 1.0, 2.0)


def dual_search(mcd, seed: int, size: dict, out: Path):
    """``minimize_dual`` on one rho = 0.2 Heston bundle, with and without
    the default logistic claim, for three values of ``y``.

    The package writes no report for direct calls, so the benchmark renders
    the results itself, at the same 17 significant digits as the package's
    CSVs, to give the run a byte-comparable report.
    """
    cfg = mcd.experiments.merge_config({"paths": size["paths"],
                                        "steps": size["steps"]})
    params, grid = mcd.experiments.build_market(cfg)
    pair = mcd.experiments.build_utility(cfg)
    claim = mcd.experiments.build_claim(cfg)
    bundle = mcd.simulate_heston_market(params.with_rho(0.2), grid,
                                        size["paths"], mcd.RandomStream(seed))
    heads, facts = {}, {}
    lines = ["y,claim,mmm_mean,mmm_se,best_mean,best_se,label,evaluations"]
    for y in DUAL_Y:
        for tag, c in (("claim", claim), ("free", None)):
            opt = mcd.minimize_dual(pair, y, bundle, claim=c, buckets=2,
                                    budget=60)
            base = opt.table[0][1]
            key = f"{y:g}/{tag}"
            heads[f"dual@{key}"] = (opt.estimate.mean, opt.estimate.stderr)
            facts[f"mmm@{key}"] = base.mean
            lines.append(f"{y:.17g},{tag},{base.mean:.17g},{base.stderr:.17g},"
                         f"{opt.estimate.mean:.17g},{opt.estimate.stderr:.17g},"
                         f"{opt.best.label},{opt.evaluations}")
    out = out / "dual"
    out.mkdir(parents=True, exist_ok=True)
    report = out / "dual.csv"
    report.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return heads, facts, {"dual/dual.csv": hashlib.sha256(
        report.read_bytes()).hexdigest()}


def bulk_paths(mcd, seed: int, size: dict, out: Path):
    """``kw`` (nondegenerate), ``oracle-check`` and ``subreplication`` runs
    in one process, each at its own path count."""
    heads, facts, reports = {}, {}, {}
    paths, steps = size["kw"]
    man = mcd.run_experiment({"version": 1, "kind": "kw"}, out / "kw",
                             seed=seed, paths=paths, steps=steps)
    reports.update(_reports(out / "kw", man))
    for r in _read_csv(out / "kw" / "energies.csv"):
        heads[f"energy@{float(r['n']):g}"] = (float(r["energy_mean"]),
                                              float(r["energy_se"]))

    paths, steps = size["oracle"]
    man = mcd.run_experiment({"version": 1, "kind": "oracle-check"},
                             out / "oracle", seed=seed, paths=paths,
                             steps=steps)
    reports.update(_reports(out / "oracle", man))
    for r in _read_csv(out / "oracle" / "oracle.csv"):
        tag = f"{float(r['a']):g},{float(r['b']):g}"
        if math.isfinite(float(r["riccati"])):
            heads[f"oracle_mc@{tag}"] = (float(r["mc_mean"]),
                                         float(r["mc_se"]))
            if float(r["mc_se"]) > 0.0:     # a = b = 0 is exactly 1
                facts[f"oracle_z@{tag}"] = float(r["z_score"])

    paths, steps = size["subrep"]
    cfg = {"version": 1, "kind": "subreplication",
           "subreplication": {"rho": 0.3, "t_prime": 0.99}}
    man = mcd.run_experiment(cfg, out / "subrep", seed=seed, paths=paths,
                             steps=steps)
    reports.update(_reports(out / "subrep", man))
    low = min(_read_csv(out / "subrep" / "subreplication.csv"),
              key=lambda r: float(r["mean"]))
    heads["subrep_min"] = (float(low["mean"]), float(low["se"]))
    facts["phi_min"] = man.extras["phi_min"]
    return heads, facts, reports


BODIES = {"rho_sweep": rho_sweep, "vanishing_vol": vanishing_vol,
          "dual_search": dual_search, "bulk_paths": bulk_paths}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

#: a cap_minus_u value this many SEs on the wrong side of zero fails
SIGN_RESOLVED_SE = 3.0


def check(workload: str, heads: dict, facts: dict,
          statistical: bool = True) -> list[str]:
    """Return one message per violated invariant (empty when all hold).

    ``statistical`` adds the checks that hold only with enough paths (the
    sign pattern, the gap and the z-scores); smoke sizes leave them out.
    """
    fail = [f"{n} = {v!r} +/- {se!r} is not finite"
            for n, (v, se) in heads.items()
            if not (math.isfinite(v) and math.isfinite(se))]
    if workload == "rho_sweep":
        lo, hi = facts["phi_min"], facts["phi_max"]
        for n, (v, se) in heads.items():
            if n.startswith("price@") and not lo <= v <= hi:
                fail.append(f"{n} = {v} outside [{lo}, {hi}]")
            if statistical and n.startswith("cap_minus_u@"):
                # the exhibit: the cap sits below the rho = 0 value and
                # above the value at every rho != 0.  At these sizes a value
                # can sit within an SE or two of zero, so only a value
                # resolved on the wrong side fails.
                negative = n == "cap_minus_u@0"
                wrong = v if negative else -v
                if wrong >= SIGN_RESOLVED_SE * se:
                    fail.append(f"{n} = {v} +/- {se} is resolved "
                                f"{'positive' if negative else 'negative'}")
    elif workload == "vanishing_vol":
        exact_n = -math.exp(-0.5)
        exact_lim = -(1.0 + math.exp(-1.0)) / 2.0
        for name, want in (("value_finite_n_exact", exact_n),
                           ("value_limit_exact", exact_lim)):
            if facts[name] != want:
                fail.append(f"{name} = {facts[name]!r} != {want!r}")
        gap, se = heads["gap_mc"]
        if statistical and not abs(gap - (exact_n - exact_lim)) <= 3.0 * se:
            fail.append(f"gap_mc = {gap} +/- {se} is more than 3 SE from "
                        f"{exact_n - exact_lim}")
    elif workload == "dual_search":
        for n, (v, _) in heads.items():
            base = facts["mmm@" + n.split("@", 1)[1]]
            if not v <= base:
                fail.append(f"{n} = {v} exceeds its mmm baseline {base}")
    elif workload == "bulk_paths":
        energies = sorted((float(n.split("@")[1]), v)
                          for n, (v, _) in heads.items()
                          if n.startswith("energy@"))
        for (n1, e1), (n2, e2) in zip(energies, energies[1:]):
            if not e2 < e1:
                fail.append(f"energy does not decrease from n={n1:g} ({e1}) "
                            f"to n={n2:g} ({e2})")
        fail += [f"{n} = {z}: |z| > 4" for n, z in facts.items()
                 if statistical and n.startswith("oracle_z@")
                 and not abs(z) <= 4.0]
        gap = heads["subrep_min"][0] - facts["phi_min"]
        if not abs(gap) <= 0.02:
            fail.append(f"subreplication minimum is {gap} from phi_min")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return fail
