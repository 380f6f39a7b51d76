"""Config-driven experiments with reproducible on-disk reports.

A single JSON config format (``"version": 1``) drives every experiment
kind: ``sweep``, ``degenerate``, ``kw``, ``subreplication`` and
``oracle-check``.  One table declares each field once: its default, the
type a run reads it as and its check (``utility`` and ``claim`` fields per
kind).  Unspecified fields take their defaults, so ``{"version": 1,
"kind": "degenerate"}`` is a complete config; a key the table does not
declare, in any section, is a violation.

Every run writes CSV reports (UTF-8, comma separated, floats at 17
significant digits) plus a JSON manifest recording the effective config,
seed, package version, output hashes and wall-clock time.  With a fixed
seed the CSV bytes are identical across runs and across worker counts; the
manifest's timing fields are the only nondeterministic output.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, affine, kw, pricing
from .dual import subreplication_estimate
from .estimates import mc_estimate
from .market import (GeneralMarketCoeffs, HestonParams, TimeGrid,
                     simulate_cir_blocks)
from .primal import ConstantFamily, with_claim_floor
from .rng import WORKERS_ENV, RandomStream, worker_count
from .utility import (ClaimSpec, ConjugatePair, UtilitySpec, constant_claim,
                      digital_claim, load_claim_table, logistic_claim)

__all__ = ["CONFIG_VERSION", "KINDS", "ConfigError", "RunManifest",
           "default_config", "merge_config", "validate_config",
           "check_config", "build_market", "build_utility", "build_claim",
           "run_experiment"]

CONFIG_VERSION = 1
KINDS = ("sweep", "degenerate", "kw", "subreplication", "oracle-check")

#: what a builder raises on a malformed or out-of-range section
_BUILD_ERRORS = (ValueError, TypeError, KeyError, AttributeError,
                 OverflowError, OSError)


# ---------------------------------------------------------------------------
# the field table.  A check ``check(value, steps, grid)`` returns the reason
# ``value`` is bad, or None; ``steps`` is the config's, ``grid`` its
# market's time grid (None if the market does not build, reported apart).
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


def _where(ok, reason: str):
    """Check: a number (or numeric text) for which ``ok`` holds."""
    return lambda val, *_: None if ok(_number(val)) else reason


def _all_where(ok, reason: str):
    """Check: a nonempty list of numbers, ``ok`` holding for each; a
    malformed or empty list is checked as ``[nan]``, which ``ok`` fails."""
    return lambda val, *_: (None if all(map(ok, _floats(val) or [math.nan]))
                            else reason)


def _integer(lo, hi, reason: str):
    """Check: a JSON integer in ``[lo, hi)``."""
    return lambda val, *_: None if _count(val) and lo <= val < hi else reason


def _one_of(options: tuple, reason: str):
    """Check: one of ``options``, never ``true`` or ``false``."""
    return lambda val, *_: (None if not isinstance(val, bool)
                            and val in options else reason)


def _finite_positive(v: float) -> bool:
    return 0.0 < v < math.inf


_COUNT = _integer(1, math.inf, "must be a positive integer")
_POSITIVE = _where(_finite_positive, "must be a finite positive number")
_POSITIVES = _all_where(_finite_positive,
                        "must be a nonempty list of finite positive numbers")
_FINITES = _all_where(math.isfinite,
                      "must be a nonempty list of finite numbers")


def _buckets(val, steps, _grid):
    """Check: a positive integer no larger than ``steps``."""
    if _count(val) and _count(steps) and val > steps:
        return "must not exceed steps"
    return _COUNT(val)


def _t_prime(val, _steps, grid: TimeGrid | None):
    """Check: null, or a node of ``grid`` strictly before the horizon."""
    try:
        ok = val is None or (
            isinstance(val, (int, float)) and not isinstance(val, bool)
            and (grid is None or grid.node_index(float(val)) < grid.steps))
    except (ValueError, OverflowError):
        ok = False
    return None if ok else "must be null or a grid node before the horizon"


class _Field(NamedTuple):
    """A config field's default, the type a run reads it as and its check
    (none for ``market``, ``utility`` and ``claim``: building checks them)."""

    default: object
    coerce: Callable = float
    check: Callable | None = None


#: the top-level fields
_TOP = {
    "version": _Field(CONFIG_VERSION, int,
                      _one_of((CONFIG_VERSION,), f"must be {CONFIG_VERSION}")),
    "kind": _Field("degenerate", str,
                   _one_of(KINDS, f"must be one of {KINDS}")),
    "seed": _Field(20240, int,
                   _integer(0, 2**64, "must be an unsigned 64-bit integer")),
    "paths": _Field(20000, int, _COUNT),
    "steps": _Field(96, int, _COUNT),
}

#: the sections' fields.  A kind section's fields are keyword parameters
#: of what runs it; a ``utility`` or ``claim`` kind (the first is the
#: default) maps to its builder and the builder's keyword parameters.
_SECTIONS = {
    "market": {"mu": _Field(0.5), "kappa": _Field(2.0), "theta": _Field(1.0),
               "sigma": _Field(0.7), "v0": _Field(1.0), "horizon": _Field(1.0)},
    "utility": {"power": (UtilitySpec.power, {"p": _Field(0.5)}),
                "log": (UtilitySpec.log, {}),
                "exponential": (UtilitySpec.exponential,
                                {"alpha": _Field(1.0)})},
    "claim": {"logistic": (logistic_claim,
                           {"rate": _Field(-2.0), "scale": _Field(2.0)}),
              "constant": (constant_claim, {"c": _Field(0.0)}),
              "digital": (digital_claim,
                          {"level": _Field(1.0), "at": _Field(0.0)}),
              "table": (load_claim_table, {"path": _Field(None, Path)})},
    "sweep": {
        "x": _Field(0.75, float, _POSITIVE),
        "rho_values": _Field([0.4, 0.2, 0.1, 0.05], _floats, _all_where(
            lambda r: -1.0 < r < 1.0,
            "must be a nonempty list of numbers, each with |rho| < 1")),
        "y_grid": _Field([0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.25, 1.6, 2.0],
                         _floats, _POSITIVES),
        "hedge_buckets": _Field(8, int, _buckets),
        "budget": _Field(120, int, _COUNT),
        "w_budget": _Field(40, int, _COUNT)},
    "degenerate": {
        "alpha": _Field(1.0, float, _POSITIVE),
        "x": _Field(0.0, float, _where(math.isfinite,
                                       "must be a finite number")),
        "n_values": _Field([1, 2, 4, 8], _floats, _POSITIVES),
        "buckets": _Field(12, int, _buckets),
        "degree": _Field(2, int, _one_of((1, 2), "must be 1 or 2")),
        "budget": _Field(60, int, _COUNT)},
    "kw": {
        "mode": _Field("nondegenerate", str, _one_of(
            ("nondegenerate", "degenerate"),
            "must be 'nondegenerate' or 'degenerate'")),
        # Infinity is the limit market, a row of its own
        "n_values": _Field([1, 3, 10, 30, 100], _floats, _all_where(
            lambda n: n > 0, "must be a nonempty list of positive numbers"))},
    "subreplication": {
        "rho": _Field(0.3, float, _where(lambda r: r != 0.0 and -1.0 < r < 1.0,
                                         "requires 0 < |rho| < 1")),
        "t_prime": _Field(None, lambda t: None if t is None else float(t),
                          _t_prime),
        "shifts": _Field([-5.0, -4.0, -3.0, -2.0, -1.0, 0.0,
                          1.0, 2.0, 3.0, 4.0, 5.0], _floats, _FINITES)},
    "oracle": {"a_values": _Field([-0.5, 0.0, 0.4], _floats, _FINITES),
               "b_values": _Field([-1.0, -0.4, 0.0], _floats, _FINITES)},
}
_KEYED = ("utility", "claim")
#: the section of each kind not named after it
_SECTION = {"oracle-check": "oracle"}


def _declared(name: str, sec: dict) -> dict | None:
    """The fields of section ``name``; for ``utility`` and ``claim`` those
    of the kind ``sec`` names, ``kind`` included (None: an unknown kind)."""
    fields, kind = _SECTIONS[name], sec.get("kind")
    if name not in _KEYED:
        return fields
    if not isinstance(kind, str) or kind not in fields:
        return None
    return {"kind": _Field(kind, str), **fields[kind][1]}


def _defaults(fields: dict) -> dict:
    return {key: copy.deepcopy(f.default) for key, f in fields.items()}


def _coerce(sec: dict, fields: dict) -> dict:
    """``sec``'s values of ``fields`` (or defaults) as a run reads them."""
    return {key: f.coerce(sec.get(key, f.default))
            for key, f in fields.items()}


def default_config() -> dict:
    """Every field's default; ``utility`` and ``claim`` of their first kind."""
    return {**_defaults(_TOP), **{
        name: _defaults(_declared(name, {"kind": next(iter(fields))}))
        for name, fields in _SECTIONS.items()}}


def merge_config(user: dict) -> dict:
    """Overlay a user config on the defaults (one level of nesting deep); a
    ``utility`` or ``claim`` naming a kind overlays that kind's defaults."""
    cfg = default_config()
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            if key in _KEYED and "kind" in val:
                cfg[key] = _defaults(_declared(key, val) or {})
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# builders and validation
# ---------------------------------------------------------------------------

def build_market(cfg: dict) -> tuple[HestonParams, TimeGrid]:
    values = _coerce(cfg["market"], _SECTIONS["market"])
    horizon = values.pop("horizon")
    return HestonParams(**values), TimeGrid(
        horizon=horizon, steps=_TOP["steps"].coerce(cfg["steps"]))


def _build_keyed(cfg: dict, name: str):
    """What section ``name`` (``utility`` or ``claim``) of ``cfg`` makes."""
    fields = _declared(name, cfg[name])
    if fields is None:
        raise ValueError(f"unknown {name} kind {cfg[name].get('kind')!r}")
    values = _coerce(cfg[name], fields)
    return _SECTIONS[name][values.pop("kind")][0](**values)


def build_utility(cfg: dict) -> ConjugatePair:
    return ConjugatePair(_build_keyed(cfg, "utility"))


def build_claim(cfg: dict) -> ClaimSpec:
    return _build_keyed(cfg, "claim")


class ConfigError(ValueError):
    """Input a run cannot start from; ``violations`` holds the records."""

    def __init__(self, violations: list[dict]):
        super().__init__("invalid config: " + json.dumps(violations))
        self.violations = violations


def validate_config(cfg: dict) -> list[dict]:
    """Return a list of violation records ``{"field":..., "reason":...}``
    on the top level and the running kind's section field by field, on
    ``market``, ``utility`` and ``claim`` by building them, on every
    section's keys and type (a section is an object, even one the run does
    not read), and on a sweep's ``x`` against its claim's wealth floor."""
    errs: list[dict] = []

    def bad(fieldname, reason):
        errs.append({"field": fieldname, "reason": str(reason)})

    def check(prefix, sec, fields, grid=None):
        for key, f in fields.items():
            reason = f.check(sec.get(key, f.default), steps, grid)
            if reason is not None:
                bad(prefix + key, reason)

    def unknown(prefix, sec, fields):
        for key in sorted(set(sec) - set(fields), key=str):
            bad(prefix + str(key), "unknown field")

    steps = cfg.get("steps", _TOP["steps"].default)
    check("", cfg, _TOP)
    unknown("", cfg, {**_TOP, **_SECTIONS})
    builds = {"market": build_market, "utility": build_utility,
              "claim": build_claim}
    built = {}
    for name, build in builds.items():
        try:
            built[name] = build(cfg)
        except _BUILD_ERRORS as exc:
            bad(name, exc)
    grid = built["market"][1] if "market" in built else None

    kind = cfg.get("kind", _TOP["kind"].default)
    running = _SECTION.get(kind, kind) if kind in KINDS else None
    for name in _SECTIONS:
        sec = cfg.get(name)
        # a built section that is no object, or names an unknown kind, has
        # its build's record
        if not isinstance(sec, dict):
            if name == running or (name in cfg and name not in builds):
                bad(name, "must be an object")
            continue
        fields = _declared(name, sec)
        if fields is None:
            continue
        if name == running:
            check(name + ".", sec, fields, grid)
        unknown(name + ".", sec, fields)

    # a sweep row floors its family by primal's rule, the same for any family
    sweep = cfg.get("sweep")
    x = (_number(sweep.get("x", _SECTIONS["sweep"]["x"].default))
         if isinstance(sweep, dict) else math.nan)
    if running == "sweep" and "claim" in built and _finite_positive(x):
        try:
            with_claim_floor(ConstantFamily(), x, built["claim"])
        except ValueError as exc:
            bad("sweep.x", exc)
    return errs


def check_config(cfg: dict) -> int:
    """Raise :class:`ConfigError` unless ``cfg`` is valid and the worker
    count (``MCDUALITY_WORKERS``) resolves; return it."""
    errs = validate_config(cfg)
    try:
        nworkers = worker_count()
    except ValueError as exc:
        errs.append({"field": WORKERS_ENV, "reason": str(exc)})
    if errs:
        raise ConfigError(errs)
    return nworkers


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
        return {"artifact": "mcduality", **asdict(self)}


# ---------------------------------------------------------------------------
# experiment kinds: a runner reads the top-level fields and its own section
# of a valid config as the field table coerces them
# ---------------------------------------------------------------------------

def _run_sweep(cfg, out: Path):
    params, grid = build_market(cfg)
    res = pricing.rho_sweep(build_utility(cfg), claim=build_claim(cfg),
                            params=params, grid=grid, paths=cfg["paths"],
                            seed=cfg["seed"], **cfg["sweep"])
    rows, dat_rows = [], []
    for r in res.rows:
        gap, gap_se = (res.price_gap(r.rho) if r.rho != 0.0 else (0.0, 0.0))
        head, unc, con = (r.u_headline, r.u_unconstrained.result,
                          r.u_constrained.result)
        rows.append((
            r.rho, unc.estimate.mean, unc.estimate.stderr, unc.violations,
            unc.stopped_fraction, con.estimate.mean, con.estimate.stderr,
            con.stopped_fraction, head.estimate.mean, head.estimate.stderr,
            r.cap_value, r.cap_stderr, r.cap_value - head.estimate.mean,
            r.price.price, r.price.stderr, r.price.iterations,
            r.price.converged, gap, gap_se))
        dat_rows.append((r.rho, r.price.price, r.price.stderr,
                         head.estimate.mean, r.cap_value))
    write_csv(out / "sweep.csv",
              ["rho", "u_unc_mean", "u_unc_se", "u_unc_violations",
               "u_unc_stopped_fraction", "u_con_mean", "u_con_se",
               "u_con_stopped_fraction", "u_mean", "u_se", "cap_value",
               "cap_se", "cap_minus_u", "price", "price_se",
               "price_iterations", "price_converged", "price_gap_vs_rho0",
               "price_gap_se"], rows)
    # the rho = 0 row is always present; cap.csv and the manifest carry its cap
    base = res.row(0.0)
    write_csv(out / "cap.csv", ["y", "mmm_mean", "mmm_se", "cap_at_y"],
              [(y, e.mean, e.stderr, e.mean + res.x * y)
               for y, e in base.cap_table])
    write_gnuplot(out / "prices.dat", "indifference prices across rho",
                  ["rho", "price", "price_se", "u_value", "cap"], dat_rows)
    extras = {"x": res.x, "y_star": base.y_star, "cap_value": base.cap_value,
              "price_diagnosis": {str(r.rho): r.price.diagnosis
                                  for r in res.rows}}
    return ["sweep.csv", "cap.csv", "prices.dat"], extras


def _run_degenerate(cfg, out: Path):
    res = pricing.degenerate_example(grid=build_market(cfg)[1],
                                     paths=cfg["paths"], seed=cfg["seed"],
                                     **cfg["degenerate"])
    write_csv(out / "bounds.csv",
              ["n", "hedge_price", "hedge_price_se", "hedge_residual_sd",
               "bound_mean", "bound_se", "violations", "stopped_fraction",
               "value_mc", "value_mc_se"],
              [(r.n, r.hedge_price, r.hedge_price_stderr, r.residual_sd,
                r.bound.estimate.mean, r.bound.estimate.stderr,
                r.bound.violations, r.bound.stopped_fraction,
                r.value_mc, r.value_mc_stderr) for r in res.rows])
    gap_mc, gap_mc_se = res.mc_gap
    write_csv(out / "analytic.csv", ["quantity", "value", "stderr"],
              [("value_finite_n_exact", res.analytic_value_n, 0.0),
               ("value_limit_exact", res.analytic_value_limit, 0.0),
               ("value_limit_mc", res.limit_bound.mean, res.limit_bound.stderr),
               ("gap_exact", res.analytic_gap, 0.0),
               ("gap_mc", gap_mc, gap_mc_se)])
    return ["bounds.csv", "analytic.csv"], {
        "alpha": res.alpha, "x": res.x, "analytic_gap": res.analytic_gap}


def _kw_setup(mode: str):
    """The kw run's family and its constant integrand vector."""
    if mode == "degenerate":
        # volatility shrinks to zero along the shared direction
        return pricing.degenerate_coeffs(), np.ones(1)
    coeffs = GeneralMarketCoeffs(
        d=2, sigma=lambda n: (1.0, 0.0 if math.isinf(n) else 1.0 / n),
        lam=lambda _n: 0.0)
    return coeffs, np.array([0.0, 1.0])


def _run_kw(cfg, out: Path):
    kwc = cfg["kw"]
    coeffs, nu = _kw_setup(kwc["mode"])
    rows = kw.kw_convergence_diag(nu, coeffs, kwc["n_values"],
                                  build_market(cfg)[1], cfg["paths"])
    write_csv(out / "energies.csv",
              ["n", "energy_mean", "energy_se", "zero_cell_fraction"],
              [(r.n, r.energy.mean, r.energy.stderr, r.zero_fraction)
               for r in rows])
    return ["energies.csv"], {"mode": kwc["mode"]}


def _run_subreplication(cfg, out: Path):
    sub = cfg["subreplication"]
    claim = build_claim(cfg)
    params, grid = build_market(cfg)
    params = params.with_rho(sub["rho"])
    t_prime = grid.times[-2] if sub["t_prime"] is None else sub["t_prime"]
    rep = subreplication_estimate(claim, params, grid, cfg["paths"],
                                  RandomStream(cfg["seed"]), t_prime,
                                  sub["shifts"])
    write_csv(out / "subreplication.csv", ["shift", "mean", "se"],
              [(x, e.mean, e.stderr) for x, e in rep.rows])
    extras = {"t_prime": rep.t_prime, "min_shift": rep.min_shift,
              "min_mean": rep.minimum.mean, "phi_min": claim.phi_min}
    return ["subreplication.csv"], extras


def _run_oracle_check(cfg, out: Path):
    params, grid = build_market(cfg)
    oc = cfg["oracle"]
    paths = cfg["paths"]
    # each path block is reduced to V_T and the left-endpoint sum of V,
    # then overwritten by the next, so no (paths, steps+1) array exists
    v_t, int_v = np.empty(paths), np.empty(paths)

    def reduce(lo, hi, v):
        v_t[lo:hi] = v[:, -1]
        np.sum(v[:, :-1], axis=1, out=int_v[lo:hi])

    simulate_cir_blocks(params, grid, paths, RandomStream(cfg["seed"]),
                        reduce)
    int_v *= grid.dt
    rows = []
    for a in oc["a_values"]:
        for b in oc["b_values"]:
            try:
                exact = affine.affine_exponential_moment(
                    params, affine.AffineMomentQuery(a, b, grid.horizon))
            except affine.MomentExplosionError:
                rows.append((a, b) + (math.nan,) * 5)
                continue
            est = mc_estimate(np.exp(a * v_t + b * int_v))
            closed = (affine.cir_bond_price(params, -b, grid.horizon)
                      if a == 0.0 and b <= 0.0 else math.nan)
            zscore = ((est.mean - exact) / est.stderr
                      if est.stderr > 0 else math.nan)
            rows.append((a, b, exact, closed, est.mean, est.stderr, zscore))
    write_csv(out / "oracle.csv", ["a", "b", "riccati", "closed_form",
                                   "mc_mean", "mc_se", "z_score"], rows)
    return ["oracle.csv"], {}


_RUNNERS = {"sweep": _run_sweep, "degenerate": _run_degenerate,
            "kw": _run_kw, "subreplication": _run_subreplication,
            "oracle-check": _run_oracle_check}


def run_experiment(user_cfg: dict, out_dir, seed: int | None = None,
                   paths: int | None = None,
                   steps: int | None = None) -> RunManifest:
    """Validate, run and report one experiment; returns the manifest.

    ``seed``, ``paths`` and ``steps`` override the config when given.  The
    worker count (``MCDUALITY_WORKERS``, recorded in the manifest) controls
    scheduling only; reported numbers and CSV bytes do not depend on it.
    Invalid input raises :class:`ConfigError` before ``out_dir`` is made.
    """
    cfg = merge_config(user_cfg)
    for key, val in (("seed", seed), ("paths", paths), ("steps", steps)):
        if val is not None:
            cfg[key] = int(val)
    nworkers = check_config(cfg)
    section = _SECTION.get(cfg["kind"], cfg["kind"])
    typed = {**cfg, **_coerce(cfg, _TOP),
             section: _coerce(cfg[section], _SECTIONS[section])}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files, extras = _RUNNERS[cfg["kind"]](typed, out)
    wall = time.perf_counter() - t0

    outputs = [{"file": f,
                "sha256": hashlib.sha256((out / f).read_bytes()).hexdigest()}
               for f in files]
    manifest = RunManifest(kind=cfg["kind"], seed=cfg["seed"], config=cfg,
                           outputs=outputs, wall_seconds=wall,
                           workers=nworkers,
                           package_version=__version__, extras=extras)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
