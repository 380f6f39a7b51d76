"""Config-driven experiments with reproducible on-disk reports.

A single JSON config format (``"version": 1``) drives every experiment
kind: ``sweep``, ``degenerate``, ``kw``, ``subreplication`` and
``oracle-check``.  Unspecified fields fall back to defaults, so
``{"version": 1, "kind": "degenerate"}`` is a complete config.

Every run writes CSV reports (UTF-8, comma separated, floats at 17
significant digits) plus a JSON manifest recording the effective config,
seed, package version, output hashes and wall-clock time.  With a fixed
seed the CSV bytes are identical across runs and across worker counts; the
manifest's timing fields are the only nondeterministic output.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, affine, kw, pricing
from .dual import subreplication_estimate
from .estimates import mc_estimate
from .market import (HestonParams, TimeGrid, simulate_cir_blocks,
                     simulate_driver)
from .rng import WORKERS_ENV, RandomStream, worker_count
from .utility import (ClaimSpec, ConjugatePair, UtilitySpec, constant_claim,
                      digital_claim, load_claim_table, logistic_claim)

__all__ = [
    "CONFIG_VERSION",
    "KINDS",
    "ConfigError",
    "RunManifest",
    "default_config",
    "merge_config",
    "validate_config",
    "check_config",
    "build_market",
    "build_utility",
    "build_claim",
    "run_experiment",
]

CONFIG_VERSION = 1
KINDS = ("sweep", "degenerate", "kw", "subreplication", "oracle-check")

_DEFAULTS: dict = {
    "version": CONFIG_VERSION,
    "kind": "degenerate",
    "seed": 20240,
    "paths": 20000,
    "steps": 96,
    "market": {"mu": 0.5, "kappa": 2.0, "theta": 1.0, "sigma": 0.7,
               "v0": 1.0, "rho": 0.0, "horizon": 1.0},
    "utility": {"kind": "power", "p": 0.5},
    "claim": {"kind": "logistic", "rate": -2.0, "scale": 2.0},
    "sweep": {"x": 0.75, "rho_values": [0.4, 0.2, 0.1, 0.05],
              "y_grid": [0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.25, 1.6, 2.0],
              "hedge_buckets": 8, "budget": 120, "w_budget": 40},
    "degenerate": {"alpha": 1.0, "x": 0.0, "n_values": [1, 2, 4, 8],
                   "buckets": 12, "degree": 2, "budget": 60},
    "kw": {"mode": "nondegenerate", "n_values": [1, 3, 10, 30, 100]},
    "subreplication": {"rho": 0.3, "t_prime": None,
                       "shifts": [-5.0, -4.0, -3.0, -2.0, -1.0, 0.0,
                                  1.0, 2.0, 3.0, 4.0, 5.0]},
    "oracle": {"a_values": [-0.5, 0.0, 0.4], "b_values": [-1.0, -0.4, 0.0]},
}


#: fields a kind section still accepts and ignores
_RETIRED = {"sweep": ("price_tol",), "oracle": ("q_values",)}

#: what a builder raises on a malformed or out-of-range section
_BUILD_ERRORS = (ValueError, TypeError, KeyError, AttributeError,
                 OverflowError)


def default_config() -> dict:
    return json.loads(json.dumps(_DEFAULTS))


def merge_config(user: dict) -> dict:
    """Overlay a user config on the defaults (one level of nesting deep)."""
    cfg = default_config()
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _number(val) -> float:
    """``float(val)``, or NaN (which fails every comparison) if malformed."""
    try:
        return float(val)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _floats(val) -> list[float] | None:
    """A nonempty list of numbers as floats; ``None`` for anything else."""
    out = [_number(v) for v in val] if isinstance(val, (list, tuple)) else []
    return None if not out or any(math.isnan(v) for v in out) else out


def _count(val) -> bool:
    """Whether ``val`` is a JSON integer (``true`` is an int to Python)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _t_prime_ok(grid: TimeGrid | None, t_prime) -> bool:
    """Whether ``t_prime`` is null or a node of ``grid`` strictly before the
    horizon; no grid (an unbuildable market, reported on its own) passes."""
    if t_prime is None:
        return True
    if isinstance(t_prime, bool) or not isinstance(t_prime, (int, float)):
        return False
    if grid is None:
        return True
    try:
        return grid.node_index(float(t_prime)) < grid.steps
    except (ValueError, OverflowError):
        return False


class ConfigError(ValueError):
    """Input a run cannot start from; ``violations`` holds the records."""

    def __init__(self, violations: list[dict]):
        super().__init__("invalid config: " + json.dumps(violations))
        self.violations = violations


def validate_config(cfg: dict) -> list[dict]:
    """Return a list of violation records ``{"field":..., "reason":...}``."""
    errs: list[dict] = []

    def bad(fieldname, reason):
        errs.append({"field": fieldname, "reason": str(reason)})

    def counts(sec, kind, *keys):
        for key in keys:
            val = sec.get(key, 1)
            if not _count(val) or val < 1:
                bad(f"{kind}.{key}", "must be a positive integer")
            elif (key in ("hedge_buckets", "buckets") and
                  _count(cfg.get("steps")) and val > cfg["steps"]):
                bad(f"{kind}.{key}", "must not exceed steps")

    version = cfg.get("version")
    if isinstance(version, bool) or version != CONFIG_VERSION:
        bad("version", f"must be {CONFIG_VERSION}")
    kind = cfg.get("kind")
    if kind not in KINDS:
        bad("kind", f"must be one of {KINDS}")
    seed = cfg.get("seed")
    if not _count(seed) or not 0 <= seed < 2**64:
        bad("seed", "must be an unsigned 64-bit integer")
    for name in ("paths", "steps"):
        val = cfg.get(name)
        if not _count(val) or val < 1:
            bad(name, "must be a positive integer")
    grid = None
    try:
        grid = build_market(cfg)[1]
    except _BUILD_ERRORS as exc:
        bad("market", exc)
    try:
        build_utility(cfg)
    except _BUILD_ERRORS as exc:
        bad("utility", exc)
    try:
        build_claim(cfg)
    except _BUILD_ERRORS + (OSError,) as exc:
        bad("claim", exc)

    section = "oracle" if kind == "oracle-check" else kind
    sec = cfg.get(section, {}) if kind in KINDS else {}
    if not isinstance(sec, dict):
        bad(section, "must be an object")
    elif kind == "sweep":
        rhos = _floats(sec.get("rho_values"))
        if rhos is None:
            bad("sweep.rho_values", "must be a nonempty list of numbers")
        elif any(not -1.0 < r < 1.0 for r in rhos):
            bad("sweep.rho_values", "every rho must satisfy |rho| < 1")
        ys = _floats(sec.get("y_grid"))
        if ys is None or not all(0 < y < math.inf for y in ys):
            bad("sweep.y_grid",
                "must be a nonempty list of finite positive values")
        if not 0 < _number(sec.get("x", 0.0)) < math.inf:
            bad("sweep.x", "initial capital must be a finite positive number")
        counts(sec, "sweep", "hedge_buckets", "budget", "w_budget")
    elif kind == "degenerate":
        if not 0 < _number(sec.get("alpha", 1.0)) < math.inf:
            bad("degenerate.alpha", "alpha must be a finite positive number")
        if not math.isfinite(_number(sec.get("x", 0.0))):
            bad("degenerate.x", "initial capital must be a finite number")
        ns = _floats(sec.get("n_values"))
        if ns is None or not all(0 < n < math.inf for n in ns):
            bad("degenerate.n_values",
                "must be a nonempty list of finite positive numbers")
        counts(sec, "degenerate", "buckets", "budget")
        degree = sec.get("degree", 2)
        if isinstance(degree, bool) or degree not in (1, 2):
            bad("degenerate.degree", "must be 1 or 2")
    elif kind == "kw":
        if sec.get("mode") not in ("nondegenerate", "degenerate"):
            bad("kw.mode", "must be 'nondegenerate' or 'degenerate'")
        ns = _floats(sec.get("n_values"))
        if ns is None or not all(n > 0 for n in ns):
            bad("kw.n_values", "must be a nonempty list of positive numbers")
    elif kind == "subreplication":
        rho = _number(sec.get("rho", 0.0))
        if rho == 0.0 or not -1.0 < rho < 1.0:
            bad("subreplication.rho", "requires 0 < |rho| < 1")
        shifts = _floats(sec.get("shifts"))
        if shifts is None or not all(map(math.isfinite, shifts)):
            bad("subreplication.shifts",
                "must be a nonempty list of finite numbers")
        if not _t_prime_ok(grid, sec.get("t_prime")):
            bad("subreplication.t_prime",
                "must be null or a grid node strictly before the horizon")
    elif kind == "oracle-check":
        for key in ("a_values", "b_values"):
            vals = _floats(sec.get(key))
            if vals is None or not all(map(math.isfinite, vals)):
                bad(f"oracle.{key}",
                    "must be a nonempty list of finite numbers")
    if kind in KINDS and isinstance(sec, dict):
        known = set(_DEFAULTS[section]) | set(_RETIRED.get(section, ()))
        for key in sorted(set(sec) - known):
            bad(f"{section}.{key}", "unknown field")
    return errs


def check_config(cfg: dict, workers: int | None = None) -> int:
    """Raise :class:`ConfigError` unless ``cfg`` is valid and the worker
    count (``workers`` or ``MCDUALITY_WORKERS``) resolves; return it."""
    errs = validate_config(cfg)
    try:
        nworkers = worker_count(workers)
    except ValueError as exc:
        errs.append({"field": WORKERS_ENV, "reason": str(exc)})
    if errs:
        raise ConfigError(errs)
    return nworkers


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_market(cfg: dict) -> tuple[HestonParams, TimeGrid]:
    m = cfg["market"]
    params = HestonParams(mu=float(m["mu"]), kappa=float(m["kappa"]),
                          theta=float(m["theta"]), sigma=float(m["sigma"]),
                          v0=float(m["v0"]), rho=float(m.get("rho", 0.0)),
                          horizon=float(m.get("horizon", 1.0)))
    grid = TimeGrid(horizon=params.horizon, steps=int(cfg["steps"]))
    return params, grid


def build_utility(cfg: dict) -> ConjugatePair:
    u = cfg["utility"]
    kind = u.get("kind")
    if kind == "power":
        spec = UtilitySpec.power(float(u.get("p", 0.5)))
    elif kind == "log":
        spec = UtilitySpec.log()
    elif kind == "exponential":
        spec = UtilitySpec.exponential(float(u.get("alpha", 1.0)))
    else:
        raise ValueError(f"unknown utility kind {kind!r}")
    return ConjugatePair(spec)


def build_claim(cfg: dict) -> ClaimSpec:
    c = cfg["claim"]
    kind = c.get("kind")
    if kind == "logistic":
        return logistic_claim(rate=float(c.get("rate", 1.0)),
                              scale=float(c.get("scale", 1.0)))
    if kind == "constant":
        return constant_claim(float(c.get("c", 0.0)))
    if kind == "digital":
        return digital_claim(level=float(c.get("level", 1.0)),
                             at=float(c.get("at", 0.0)))
    if kind == "table":
        return load_claim_table(Path(c["path"]))
    raise ValueError(f"unknown claim kind {kind!r}")


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "nan"
    return f"{f:.17g}"


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_gnuplot(path: Path, comment: str, header: list[str],
                  rows: list[tuple]) -> None:
    """Whitespace-separated data block with a commented header line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """What a run produced and how to reproduce it."""

    kind: str
    seed: int
    config: dict
    outputs: list
    wall_seconds: float
    workers: int
    package_version: str
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"artifact": "mcduality", "package_version": self.package_version,
                "kind": self.kind, "seed": self.seed, "workers": self.workers,
                "config": self.config, "outputs": self.outputs,
                "wall_seconds": self.wall_seconds, "extras": self.extras}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _run_sweep(cfg, out: Path, workers):
    pair = build_utility(cfg)
    claim = build_claim(cfg)
    params, grid = build_market(cfg)
    sw = cfg["sweep"]
    res = pricing.rho_sweep(pair, float(sw["x"]), claim, params, grid,
                            int(cfg["paths"]), int(cfg["seed"]),
                            sw["rho_values"], sw["y_grid"],
                            hedge_buckets=int(sw["hedge_buckets"]),
                            budget=int(sw["budget"]),
                            w_budget=int(sw["w_budget"]), workers=workers)
    rows = []
    dat_rows = []
    for r in res.rows:
        gap, gap_se = (res.price_gap(r.rho) if r.rho != 0.0 else (0.0, 0.0))
        head = r.u_headline
        rows.append((
            r.rho,
            r.u_unconstrained.result.estimate.mean,
            r.u_unconstrained.result.estimate.stderr,
            r.u_unconstrained.result.violations,
            r.u_unconstrained.result.stopped_fraction,
            r.u_constrained.result.estimate.mean,
            r.u_constrained.result.estimate.stderr,
            r.u_constrained.result.stopped_fraction,
            head.estimate.mean, head.estimate.stderr,
            res.cap_value, res.cap_stderr,
            res.cap_value - head.estimate.mean,
            r.price.price, r.price.stderr, r.price.iterations,
            r.price.converged, gap, gap_se,
        ))
        dat_rows.append((r.rho, r.price.price, r.price.stderr,
                         head.estimate.mean, res.cap_value))
    write_csv(out / "sweep.csv",
              ["rho", "u_unc_mean", "u_unc_se", "u_unc_violations",
               "u_unc_stopped_fraction", "u_con_mean", "u_con_se",
               "u_con_stopped_fraction", "u_mean", "u_se", "cap_value",
               "cap_se", "cap_minus_u", "price", "price_se",
               "price_iterations", "price_converged", "price_gap_vs_rho0",
               "price_gap_se"],
              rows)
    write_csv(out / "cap.csv",
              ["y", "mmm_mean", "mmm_se", "cap_at_y"],
              [(y, e.mean, e.stderr, e.mean + res.x * y)
               for y, e in res.cap_table])
    write_gnuplot(out / "prices.dat", "indifference prices across rho",
                  ["rho", "price", "price_se", "u_value", "cap"], dat_rows)
    extras = {"x": res.x, "y_star": res.y_star, "cap_value": res.cap_value}
    return ["sweep.csv", "cap.csv", "prices.dat"], extras


def _run_degenerate(cfg, out: Path, workers):
    dg = cfg["degenerate"]
    grid = build_market(cfg)[1]
    res = pricing.degenerate_example(alpha=float(dg["alpha"]),
                                     x=float(dg["x"]),
                                     n_values=[float(n) for n in dg["n_values"]],
                                     grid=grid, paths=int(cfg["paths"]),
                                     seed=int(cfg["seed"]),
                                     buckets=int(dg["buckets"]),
                                     degree=int(dg["degree"]),
                                     budget=int(dg["budget"]), workers=workers)
    write_csv(out / "bounds.csv",
              ["n", "hedge_price", "hedge_price_se", "hedge_residual_sd",
               "bound_mean", "bound_se", "violations", "stopped_fraction",
               "value_mc", "value_mc_se"],
              [(r.n, r.hedge_price, r.hedge_price_stderr, r.residual_sd,
                r.bound.estimate.mean, r.bound.estimate.stderr,
                r.bound.violations, r.bound.stopped_fraction,
                r.value_mc, r.value_mc_stderr) for r in res.rows])
    gap_mc, gap_mc_se = res.mc_gap
    write_csv(out / "analytic.csv",
              ["quantity", "value", "stderr"],
              [("value_finite_n_exact", res.analytic_value_n, 0.0),
               ("value_limit_exact", res.analytic_value_limit, 0.0),
               ("value_limit_mc", res.limit_bound.mean, res.limit_bound.stderr),
               ("gap_exact", res.analytic_gap, 0.0),
               ("gap_mc", gap_mc, gap_mc_se)])
    extras = {"alpha": res.alpha, "x": res.x,
              "analytic_gap": res.analytic_gap}
    return ["bounds.csv", "analytic.csv"], extras


def _kw_setup(mode: str):
    if mode == "nondegenerate":
        def sigma(n, _t, b):
            out = np.zeros_like(b)
            out[:, 0] = 1.0
            if not math.isinf(n):
                out[:, 1] = 1.0 / n
            return out

        def nu(_t, b):
            out = np.zeros_like(b)
            out[:, 1] = 1.0
            return out

        from .market import GeneralMarketCoeffs
        coeffs = GeneralMarketCoeffs(
            d=2, sigma=sigma, lam=lambda n, t, b: np.zeros(b.shape[0]))
        return coeffs, nu
    # degenerate: volatility shrinks to zero along the shared direction
    coeffs = pricing.degenerate_coeffs()
    return coeffs, lambda _t, b: np.ones_like(b)


def _run_kw(cfg, out: Path, workers):
    kwc = cfg["kw"]
    coeffs, nu = _kw_setup(kwc["mode"])
    grid = build_market(cfg)[1]
    n_values = [float(n) for n in kwc["n_values"]]
    rows = kw.kw_convergence_diag(nu, coeffs, n_values, grid,
                                  int(cfg["paths"]),
                                  RandomStream(int(cfg["seed"])))
    write_csv(out / "energies.csv",
              ["n", "energy_mean", "energy_se", "zero_cell_fraction"],
              [(r.n, r.energy.mean, r.energy.stderr, r.zero_fraction)
               for r in rows])
    return ["energies.csv"], {"mode": kwc["mode"]}


def _run_subreplication(cfg, out: Path, workers):
    sub = cfg["subreplication"]
    claim = build_claim(cfg)
    params, grid = build_market(cfg)
    params = params.with_rho(float(sub["rho"]))
    t_prime = sub.get("t_prime")
    if t_prime is None:
        t_prime = grid.times[-2]
    b = simulate_driver(grid, int(cfg["paths"]),
                        RandomStream(int(cfg["seed"])), workers)
    rep = subreplication_estimate(claim, params, grid, b, float(t_prime),
                                  sub["shifts"])
    write_csv(out / "subreplication.csv",
              ["shift", "mean", "se"],
              [(x, e.mean, e.stderr) for x, e in rep.rows])
    extras = {"t_prime": rep.t_prime, "min_shift": rep.min_shift,
              "min_mean": rep.minimum.mean, "phi_min": claim.phi_min}
    return ["subreplication.csv"], extras


def _run_oracle_check(cfg, out: Path, workers):
    params, grid = build_market(cfg)
    oc = cfg["oracle"]
    paths = int(cfg["paths"])
    # each path block is reduced to V_T and the left-endpoint sum of V,
    # then overwritten by the next, so no (paths, steps+1) array exists
    v_t, int_v = np.empty(paths), np.empty(paths)

    def reduce(lo, hi, v):
        v_t[lo:hi] = v[:, -1]
        np.sum(v[:, :-1], axis=1, out=int_v[lo:hi])

    simulate_cir_blocks(params, grid, paths, RandomStream(int(cfg["seed"])),
                        reduce, workers)
    int_v *= grid.dt
    rows = []
    for a in oc["a_values"]:
        for b in oc["b_values"]:
            try:
                exact = affine.affine_exponential_moment(
                    params, affine.AffineMomentQuery(float(a), float(b),
                                                     grid.horizon))
            except affine.MomentExplosionError:
                rows.append((a, b, math.nan, math.nan, math.nan, math.nan,
                             math.nan))
                continue
            est = mc_estimate(np.exp(float(a) * v_t + float(b) * int_v))
            closed = (affine.cir_bond_price(params, -float(b), grid.horizon)
                      if float(a) == 0.0 and float(b) <= 0.0 else math.nan)
            zscore = ((est.mean - exact) / est.stderr
                      if est.stderr > 0 else math.nan)
            rows.append((a, b, exact, closed, est.mean, est.stderr, zscore))
    write_csv(out / "oracle.csv",
              ["a", "b", "riccati", "closed_form", "mc_mean", "mc_se",
               "z_score"],
              rows)
    return ["oracle.csv"], {}


_RUNNERS = {"sweep": _run_sweep, "degenerate": _run_degenerate,
            "kw": _run_kw, "subreplication": _run_subreplication,
            "oracle-check": _run_oracle_check}


def run_experiment(user_cfg: dict, out_dir, seed: int | None = None,
                   paths: int | None = None, steps: int | None = None,
                   workers: int | None = None) -> RunManifest:
    """Validate, run and report one experiment; returns the manifest.

    ``seed``, ``paths`` and ``steps`` override the config when given.  The
    worker count (``workers`` argument or ``MCDUALITY_WORKERS``) controls
    scheduling only; reported numbers and CSV bytes do not depend on it.
    Invalid input raises :class:`ConfigError` before ``out_dir`` is made.
    """
    cfg = merge_config(user_cfg)
    if seed is not None:
        cfg["seed"] = int(seed)
    if paths is not None:
        cfg["paths"] = int(paths)
    if steps is not None:
        cfg["steps"] = int(steps)
    nworkers = check_config(cfg, workers)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files, extras = _RUNNERS[cfg["kind"]](cfg, out, workers)
    wall = time.perf_counter() - t0

    outputs = [{"file": f, "sha256": _sha256(out / f)} for f in files]
    manifest = RunManifest(kind=cfg["kind"], seed=int(cfg["seed"]), config=cfg,
                           outputs=outputs, wall_seconds=wall,
                           workers=nworkers,
                           package_version=__version__, extras=extras)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
