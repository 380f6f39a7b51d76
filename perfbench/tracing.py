"""Spans around the public functions of each ``mcduality`` module.

``install`` replaces every traced function at every module attribute that
binds it (so ``from .primal import primal_bound`` copies in ``pricing`` are
traced too) and traced methods on their class.  Each call records a span:
name, start, end, parent span and a few attributes read off its arguments
or result.  Spans stay in memory until ``write_jsonl``; ``layer_metrics``
reduces them to the benchmark's per-layer metrics.

The program is never modified: tracing lives entirely in the benchmark and
is installed only in traced runs.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import threading
import time
import tracemalloc

import numpy as np

LAYERS = ("rng", "market", "utility", "affine", "primal", "dual", "kw",
          "pricing", "experiments")

#: spans whose tracemalloc peak is recorded
PEAK_SPANS = {"market.simulate_heston_market", "market.simulate_general_market",
              "market.simulate_cir", "primal.primal_bound",
              "primal.lsmc_hedge", "kw.kw_convergence_diag"}

MIB = float(1 << 20)


def _nbytes(result) -> int:
    """Bytes of the arrays a simulation returns (computed, not measured)."""
    if isinstance(result, np.ndarray):
        return int(result.nbytes)
    return sum(int(a.nbytes) for a in vars(result).values()
               if isinstance(a, np.ndarray))


# attributes recorded per span, read off (args, kwargs, result)
def _normals(args, kwargs, _res):
    paths, cols = args[1], args[2]
    return {"count": int(paths) * int(cols)}


def _paths(_args, _kwargs, res):
    return {"nbytes": _nbytes(res)}


def _bound(_args, _kwargs, res):
    return {"infeasible": res.estimate.mean == -math.inf}


def _search(_args, kwargs, res):
    return {"evaluations": int(res.evaluations),
            "claim_free": kwargs.get("claim") is None}


def _price(_args, _kwargs, res):
    return {"iterations": int(res.iterations), "converged": bool(res.converged)}


def _dual_search(_args, _kwargs, res):
    return {"improved": res.best.label != "mmm"}


ATTRS = {"rng.RandomStream.standard_normals": _normals,
         "market.simulate_heston_market": _paths,
         "market.simulate_general_market": _paths,
         "market.simulate_cir": _paths,
         "primal.primal_bound": _bound,
         "primal.optimize_primal": _search,
         "pricing.indifference_price": _price,
         "dual.minimize_dual": _dual_search}

#: traced attributes per layer module; "Class.method" is wrapped on the class
TARGETS = {
    "rng": ["RandomStream.standard_normals"],
    "market": ["simulate_heston_market", "simulate_general_market",
               "simulate_cir", "minimal_martingale_density",
               "stochastic_exponential", "semimartingale_distance"],
    "utility": ["UtilitySpec.u", "UtilitySpec.marginal", "ConjugatePair.v",
                "constrained_conjugate", "ClaimSpec.__call__"],
    "affine": ["affine_exponential_moment", "cir_bond_price",
               "density_moment"],
    "primal": ["primal_bound", "optimize_primal", "lsmc_hedge",
               "enforce_admissibility", "wealth_process", "hedge_residual"],
    "dual": ["dual_bound_mmm", "dual_bound_perturbed", "minimize_dual",
             "perturbation_exponential", "subreplication_estimate",
             "DualCandidate.integrand"],
    "kw": ["kw_decompose", "kw_convergence_diag", "nondegeneracy_check"],
    "pricing": ["indifference_price", "rho_sweep", "degenerate_example"],
    "experiments": ["run_experiment", "validate_config", "write_csv",
                    "write_gnuplot"],
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._peaks: list[dict] = []    # open tracemalloc frames

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        peak = name in PEAK_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": len(tracer.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None}
            tracer.spans.append(span)
            stack.append(span)
            if peak:
                tracer._peak_open()
            span["start"] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    span.update(attrs(args, kwargs, res))
                return res
            finally:
                span["end"] = time.perf_counter()
                if peak:
                    span["peak_alloc"] = tracer._peak_close()
                stack.pop()

        return traced

    # nested peaks: a frame folds the global peak into its parent before
    # resetting it, so an inner reset never hides an outer peak
    def _peak_open(self) -> None:
        cur, high = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1]["peak"] = max(self._peaks[-1]["peak"], high)
        tracemalloc.reset_peak()
        self._peaks.append({"start": cur, "peak": cur})

    def _peak_close(self) -> int:
        frame = self._peaks.pop()
        frame["peak"] = max(frame["peak"], tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1]["peak"] = max(self._peaks[-1]["peak"],
                                          frame["peak"])
        return frame["peak"] - frame["start"]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install() -> Tracer:
    """Wrap every target in every loaded ``mcduality`` module and start
    tracemalloc, which the peak-allocation metrics read."""
    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "mcduality" or n.startswith("mcduality.")]
    for layer, names in TARGETS.items():
        home = sys.modules[f"mcduality.{layer}"]
        for attr in names:
            owner_name, _, meth = attr.rpartition(".")
            span_name = f"{layer}.{attr}"
            if owner_name:
                owner = getattr(home, owner_name)
                setattr(owner, meth, tracer.wrap(span_name,
                                                 owner.__dict__[meth]))
                continue
            fn = getattr(home, attr)
            wrapped = tracer.wrap(span_name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
    tracemalloc.start()
    return tracer


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _durations(spans) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = _durations(spans)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _outermost(spans, names) -> list[dict]:
    """Spans in ``names`` that have no ancestor in ``names``."""
    inside = {}
    out = []
    for s in spans:   # spans are appended at call time: parents come first
        parent_in = s["parent"] is not None and inside[s["parent"]]
        inside[s["id"]] = parent_in or s["name"] in names
        if s["name"] in names and not parent_in:
            out.append(s)
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from spans, keyed by their ``BENCHMARK.json`` names.

    ``experiments.csv_identical_fraction`` needs the reference table and is
    added by ``run.py``.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[s["id"]] for s in named(name))

    def total_s(names):
        return sum(_durations(_outermost(spans, set(names))))

    def p50_ms(name):
        d = _durations(named(name))
        return 1e3 * statistics.median(d) if d else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    def peak_mb(names):
        peaks = [s.get("peak_alloc", 0) for n in names for s in named(n)]
        return max(peaks, default=0) / MIB

    sims = ["market.simulate_heston_market", "market.simulate_general_market",
            "market.simulate_cir"]
    bounds = named("primal.primal_bound")
    searches = named("primal.optimize_primal")
    prices = named("pricing.indifference_price")
    price_ids = {s["id"] for s in prices}
    dual_searches = named("dual.minimize_dual")
    conj = ["utility.ConjugatePair.v", "utility.constrained_conjugate"]
    m = {
        "rng.normals_s": total_s(["rng.RandomStream.standard_normals"]),
        "rng.normals_count": sum(
            s.get("count", 0) for s in named("rng.RandomStream.standard_normals")),
        "market.simulate_calls": sum(len(named(n)) for n in sims),
        "market.simulate_s": total_s(sims),
        "market.path_mb": sum(s.get("nbytes", 0) for n in sims
                              for s in named(n)) / MIB,
        "market.peak_alloc_mb": peak_mb(sims),
        "primal.bound_calls": len(bounds),
        "primal.bound_self_s": self_s("primal.primal_bound"),
        "primal.bound_ms_p50": p50_ms("primal.primal_bound"),
        "primal.infeasible_fraction": frac(
            sum(s.get("infeasible", False) for s in bounds), len(bounds)),
        "primal.search_calls": len(searches),
        "primal.search_self_s": self_s("primal.optimize_primal"),
        "primal.evals_per_search": frac(
            sum(s.get("evaluations", 0) for s in searches), len(searches)),
        "primal.peak_alloc_mb": peak_mb(["primal.primal_bound",
                                         "primal.lsmc_hedge"]),
        "primal.hedge_calls": len(named("primal.lsmc_hedge")),
        "primal.hedge_s": total_s(["primal.lsmc_hedge"]),
        "dual.perturbed_calls": len(named("dual.dual_bound_perturbed")),
        "dual.perturbed_self_s": self_s("dual.dual_bound_perturbed"),
        "dual.perturbed_ms_p50": p50_ms("dual.dual_bound_perturbed"),
        "dual.search_calls": len(dual_searches),
        "dual.improved_fraction": frac(
            sum(s.get("improved", False) for s in dual_searches),
            len(dual_searches)),
        "dual.mmm_calls": len(named("dual.dual_bound_mmm")),
        "dual.mmm_s": total_s(["dual.dual_bound_mmm"]),
        "dual.subrep_s": total_s(["dual.subreplication_estimate"]),
        "pricing.price_calls": len(prices),
        "pricing.bisection_steps": sum(max(s.get("iterations", 0) - 2, 0)
                                       for s in prices),
        "pricing.claimfree_searches": sum(
            1 for s in searches
            if s.get("claim_free") and s["parent"] in price_ids),
        "pricing.converged_fraction": frac(
            sum(s.get("converged", False) for s in prices), len(prices)),
        "pricing.price_self_s": self_s("pricing.indifference_price"),
        "kw.decompose_calls": len(named("kw.kw_decompose")),
        "kw.decompose_s": total_s(["kw.kw_decompose"]),
        "kw.diag_self_s": self_s("kw.kw_convergence_diag"),
        "kw.peak_alloc_mb": peak_mb(["kw.kw_convergence_diag"]),
        "affine.moment_calls": len(named("affine.affine_exponential_moment")),
        "affine.moment_s": total_s(["affine.affine_exponential_moment"]),
        "affine.explosions": sum(
            s.get("error") == "MomentExplosionError"
            for s in named("affine.affine_exponential_moment")),
        "utility.u_calls": len(named("utility.UtilitySpec.u")),
        "utility.u_s": total_s(["utility.UtilitySpec.u"]),
        "utility.conj_calls": sum(len(named(n)) for n in conj),
        "utility.conj_s": total_s(conj),
        "experiments.run_self_s": self_s("experiments.run_experiment"),
        "experiments.validate_s": total_s(["experiments.validate_config"]),
        "experiments.write_s": total_s(["experiments.write_csv",
                                        "experiments.write_gnuplot"]),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += own[s["id"]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
