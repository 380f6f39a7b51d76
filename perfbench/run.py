"""Benchmark for mcduality: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (``src/mcduality`` must be there)::

    python3 perfbench/run.py --workload rho_sweep --seed 3 --seconds 28
    python3 perfbench/run.py --workload all --seed 3        # all four
    python3 perfbench/run.py --workload dual_search --seed 3 --trace 1
    python3 perfbench/run.py --smoke                         # seconds, tiny sizes
    python3 perfbench/run.py --workload all --holdout-seed 90001
    python3 perfbench/run.py --record-reference   # on an unchanged checkout

Load is a closed loop from one client.  Each iteration runs the workload's
body once, in a fresh interpreter (``worker.py``) started after the
previous one has exited, so no process-global state carries over.  A run
repeats iterations for ``--seconds`` (at least three) and reports medians.
Neither ``workers`` nor ``MCDUALITY_WORKERS`` is set: the program's default
worker count runs and is recorded.  BLAS runs one thread
(``WORKER_THREADS``): a second BLAS thread gains these workloads no wall
time on two cores, but stalls the body whenever the other core is busy.

End-to-end metrics (``--trace 0``), all lower-is-better:

* ``wall_s``: wall time of the timed body, median over iterations.
* ``cpu_s``: user + system CPU of the body, all threads, median.
* ``setup_s``: interpreter start until ``mcduality`` is imported and the
  inputs are built, median.

  These three are scaled to a steady host: the benchmark's machine is a few
  cores of a shared host whose speed drifts by a quarter and more within
  minutes, so each time is multiplied by ``(TICK_NOMINAL_S / tick) **
  TICK_EXPONENT``, where ``tick`` is the mean tick that ``probe.Sampler``
  measured in the same process over the same interval.  They read as
  seconds on a host that runs a tick in ``TICK_NOMINAL_S``; the unscaled
  medians are on the summary line and in the result file.
* ``peak_rss_mb``: ``ru_maxrss`` of the iteration's process, MiB, median.
* ``se_ratio_max``: largest headline standard error over its reference SE.
* ``failed_fraction`` and ``ref_dev_se_max`` (largest |headline - reference|
  in reference SEs) are printed on the summary line.  They are 0 on a
  healthy run, so they are carried by ``correct``/``failed`` and not by the
  bounded metrics.

``--trace 1`` alternates untraced and traced iterations, checks that their
report bytes agree and prints the per-layer metrics of ``tracing.py`` plus
``trace.overhead_s``.  Spans are written to ``perfbench/out`` as JSONL.

Inputs and references: the benchmark's inputs are the program seeds
0..31.  Iteration ``k`` of a run with ``--seed n`` runs program seed
``(n + k) % 32``, so that a run's median spans several inputs: the
optimisers' work differs from seed to seed by several per cent.
``reference.json`` holds each seed's headline numbers, standard errors and
report hashes, recorded from an unchanged checkout, so every iteration is
compared with the reference of its own input: bit-identical output reads
``ref_dev_se_max`` 0 and ``se_ratio_max`` 1.  (Standard errors of optimised
bounds differ between seeds by up to a factor of two, so a reference from
another seed could not guard accuracy.)  ``--holdout-seed h`` runs program
seeds ``h + 32 k`` instead, outside the table, compared with the table's
per-headline medians, so a claim can be re-checked on inputs nobody tuned
against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: program seeds that make up the benchmark's inputs
INPUT_SEEDS = 32
#: smoke sizes record only the first few
SMOKE_SEEDS = 4
MIN_ITERATIONS = 3
#: a run, set-up included, must end well within three minutes
DEADLINE_S = 165.0
#: |headline - reference| beyond this many combined SEs fails the check
REF_TOLERANCE_SE = 6.0
#: a headline whose reference SE is at most this share of its value is exact
EXACT_SE_SHARE = 1e-12
#: exact headlines must agree with the reference to this relative tolerance
EXACT_REL_TOLERANCE = 1e-9
#: times are scaled to a host on which ``probe.tick`` takes this long; it is
#: about the mean tick of a steady phase of the 2-core machine the
#: benchmark was written on
TICK_NOMINAL_S = 6e-4
#: the workloads slow down more than the tick when the host does: across
#: 20 runs of each, log wall time rose 1.11 (rho_sweep), 1.27
#: (vanishing_vol) and 1.33 (dual_search) times as fast as log tick time
TICK_EXPONENT = 1.25
#: each scaled time and the worker's mean tick over the same interval
SCALED = {"wall_s": "tick_body_s", "cpu_s": "tick_body_s",
          "setup_s": "tick_setup_s"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "se_ratio_max": "1"}
#: set in every iteration's environment
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "MCDUALITY_WORKERS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, stale reference)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    """Revision of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "worker_threads": WORKER_THREADS,
            "revision": _git_revision(), "loadavg_start": loadavg}


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

def iterate(workload: str, seed: int, size: str, traced: bool,
            deadline: float) -> dict:
    """Run one iteration in a fresh interpreter and return its record."""
    tag = f"{workload}-{seed}-{'traced' if traced else 'plain'}"
    work = OUT / "work" / tag
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(work)]
    if traced:
        cmd += ["--trace", str(OUT / f"spans-{tag}.jsonl")]
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              env=dict(os.environ, **WORKER_THREADS),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        return {"seed": seed,
                "failures": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode == 3:
        raise SetupError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed,
                "failures": [f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}
    rec = json.loads(lines[-1])
    rec["seed"] = seed
    if rec["failures"]:
        print(f"[{tag}] stderr:\n{proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
    return rec


def scale_to_host(rec: dict) -> None:
    """Add ``<time>_scaled`` for every time in ``SCALED`` the record has."""
    for key, tick in SCALED.items():
        if key in rec and rec.get(tick, 0.0) > 0.0:
            rec[key + "_scaled"] = rec[key] * (TICK_NOMINAL_S
                                               / rec[tick]) ** TICK_EXPONENT


def _headlines(rec: dict) -> dict:
    return {k: (float(v), float(se)) for k, (v, se) in rec["headlines"].items()}


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def load_reference(size: str, workload: str) -> dict:
    """The table ``seed -> {"headlines", "reports"}`` for one workload."""
    try:
        ref = json.loads(REFERENCE.read_text())
    except FileNotFoundError as exc:
        raise SetupError(f"no reference file {REFERENCE}") from exc
    if ref["sizes"].get(size) != json.loads(json.dumps(
            workloads.SIZES[size])):
        raise SetupError(f"{REFERENCE.name} was recorded at other {size} "
                         "sizes; record it again with --record-reference")
    return ref["tables"][size][workload]


def reference_for(table: dict, seed: int) -> dict:
    """The seed's own entry, or per-headline medians across the table."""
    if str(seed) in table:
        return table[str(seed)]
    names = next(iter(table.values()))["headlines"]
    return {"headlines": {
        n: [statistics.median(float(e["headlines"][n][i])
                              for e in table.values()) for i in (0, 1)]
        for n in names}, "reports": {}}


def compare(heads: dict, ref: dict) -> tuple[float, float, list[str]]:
    """``(ref_dev_se_max, se_ratio_max, failures)`` against a reference."""
    dev = ratio = 0.0
    fail = []
    for name, (v_ref, se_ref) in ref["headlines"].items():
        v_ref, se_ref = float(v_ref), float(se_ref)
        if name not in heads:
            fail.append(f"headline {name} is missing")
            continue
        v, se = heads[name]
        if se_ref <= EXACT_SE_SHARE * abs(v_ref):
            # deterministic (the kw energies): the SE is rounding noise, so
            # the value is compared to a relative tolerance and its SE is
            # left out of both ratios
            tol = EXACT_REL_TOLERANCE * abs(v_ref)
        else:
            dev = max(dev, abs(v - v_ref) / se_ref)
            ratio = max(ratio, se / se_ref)
            tol = REF_TOLERANCE_SE * math.hypot(se, se_ref)
        if not abs(v - v_ref) <= tol:
            fail.append(f"{name} = {v} +/- {se} is further than {tol:.3g} "
                        f"from the reference {v_ref} +/- {se_ref}")
    return dev, ratio, fail


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def program_seed(seed: int, k: int, holdout: bool) -> int:
    """The program seed of iteration ``k`` of a run."""
    return seed + k * INPUT_SEEDS if holdout else (seed + k) % INPUT_SEEDS


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str = "full", holdout: bool = False) -> dict:
    """Repeat iterations for ``seconds`` and reduce them to one result."""
    table = load_reference(size, workload)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, tracedrecs = [], []
    while True:
        t0 = time.monotonic()
        s = program_seed(seed, len(plain), holdout)
        plain.append(iterate(workload, s, size, False, deadline))
        if traced:
            tracedrecs.append(iterate(workload, s, size, True, deadline))
        step = time.monotonic() - t0
        done = len(plain) >= (1 if traced else MIN_ITERATIONS)
        if done and time.monotonic() - start + step > seconds:
            break
        if time.monotonic() + step > deadline:
            break

    records = plain + tracedrecs
    ok = [r for r in records if "headlines" in r]
    dev = ratio = 0.0
    same = files = 0
    first = {}
    for r in ok:
        ref = reference_for(table, r["seed"])
        d, q, ref_fail = compare(_headlines(r), ref)
        dev, ratio = max(dev, d), max(ratio, q)
        r["failures"] += ref_fail
        f = first.setdefault(r["seed"], r)
        if (r["headlines"], r["reports"]) != (f["headlines"], f["reports"]):
            r["failures"].append("output differs from an earlier iteration "
                                 "on the same seed")
        same += sum(ref["reports"].get(n) == h for n, h in r["reports"].items())
        files += len(r["reports"])

    failed = sum(1 for r in records if r["failures"])
    for r in records:
        scale_to_host(r)

    def med(recs, key):
        vals = [r[key] for r in recs if key in r]
        return statistics.median(vals) if vals else 0.0

    result = {
        "workload": workload, "seed": seed, "size": size,
        "program_seeds": [r["seed"] for r in plain],
        "reference": "own seed" if str(seed) in table else "table median",
        "attempted": len(records), "failed": failed,
        "correct": failed == 0,
        "failures": sorted({f for r in records for f in r["failures"]}),
        "workers": sorted({r["workers"] for r in ok}),
        "metrics": {"wall_s": med(plain, "wall_s_scaled"),
                    "cpu_s": med(plain, "cpu_s_scaled"),
                    "setup_s": med(plain, "setup_s_scaled"),
                    "peak_rss_mb": med(plain, "peak_rss_mb"),
                    "se_ratio_max": ratio},
        "unscaled": {k: med(plain, k) for k in SCALED},
        "failed_fraction": failed / len(records),
        "ref_dev_se_max": dev,
        "iterations": [{k: r.get(k) for k in (
            "wall_s", "cpu_s", "setup_s", "wall_s_scaled", "cpu_s_scaled",
            "setup_s_scaled", "tick_body_s", "tick_setup_s", "ticks_body",
            "ticks_setup", "peak_rss_mb")} for r in records],
    }
    if traced:
        layered = [r["layers"] for r in tracedrecs if "layers" in r]
        layers = {k: statistics.median(m[k] for m in layered)
                  for k in (layered[0] if layered else {})}
        layers["experiments.csv_identical_fraction"] = (same / files
                                                        if files else 0.0)
        layers["trace.wall_s"] = med(tracedrecs, "wall_s")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - med(plain,
                                                                  "wall_s")
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def summary_line(res: dict) -> str:
    m = res["metrics"]
    parts = [f"{k} {m[k]:.4g} {END_TO_END_UNITS[k]}" for k in m]
    parts.insert(4, f"failed_fraction {res['failed_fraction']:.4g} 1")
    parts.insert(5, f"ref_dev_se_max {res['ref_dev_se_max']:.4g} SE")
    raw = ", ".join(f"{k} {v:.4g} s" for k, v in res["unscaled"].items())
    return (f"{res['workload']} seed {res['seed']} "
            f"({res['attempted']} runs, reference: {res['reference']}): "
            + ", ".join(parts) + f" (unscaled: {raw})")


def layer_units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def emit(results: list[dict], traced: bool, env: dict, tag: str) -> dict:
    for res in results:
        print(summary_line(res))
        for msg in res["failures"]:
            print(f"  FAILED: {msg}")
    print("environment: " + json.dumps(env, sort_keys=True))
    units = layer_units() if traced else END_TO_END_UNITS
    metrics = {}
    for res in results:
        values = res["layers"] if traced else res["metrics"]
        if traced:
            values = {k: values.get(k, 0.0) for k in units}
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
    out = {"correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "results": results, "summary": out},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# recording the reference table
# ---------------------------------------------------------------------------

def record_reference() -> int:
    """Record every input seed; write nothing if any seed fails its checks."""
    tables, failed = {}, 0
    for size, seeds in (("full", range(INPUT_SEEDS)),
                        ("smoke", range(SMOKE_SEEDS))):
        tables[size] = {}
        for wl in workloads.WORKLOADS:
            tables[size][wl] = {}
            for seed in seeds:
                rec = iterate(wl, seed, size, False,
                              time.monotonic() + DEADLINE_S)
                if rec["failures"]:
                    failed += 1
                    print(f"FAILED {size} {wl} seed {seed}: "
                          f"{rec['failures']}", flush=True)
                    continue
                tables[size][wl][str(seed)] = {"headlines": rec["headlines"],
                                               "reports": rec["reports"]}
                print(f"recorded {size} {wl} seed {seed} "
                      f"({rec['wall_s']:.2f} s)", flush=True)
    if failed:
        return 1
    ref = {"revision": _git_revision(), "sizes": workloads.SIZES,
           "tables": tables}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="selects the inputs: iteration k runs program seed "
                         f"(seed + k) mod {INPUT_SEEDS}")
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="run program seeds h, h + 32, ... instead; h must "
                         "lie above the inputs' reference table")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one untraced and one traced iteration "
                         "per workload, all checks")
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference.json for every input seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mcduality" / "__init__.py").is_file():
        print(f"no mcduality sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference()
        seed = args.seed % INPUT_SEEDS
        holdout = args.holdout_seed is not None
        if holdout:
            seed = args.holdout_seed
            if seed < INPUT_SEEDS:
                raise SetupError(f"hold-out seed {seed} is not above the "
                                 f"reference table's seeds 0..{INPUT_SEEDS - 1}")
        env = environment()
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        if args.smoke:
            results = [run_workload(wl, seed, 0.0, True, size="smoke")
                       for wl in names]
        else:
            results = [run_workload(wl, seed, args.seconds, bool(args.trace),
                                    holdout=holdout) for wl in names]
    except SetupError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    for res in results:
        res["holdout"] = holdout
    env["mcduality_workers"] = sorted({w for r in results
                                       for w in r["workers"]})
    tag = (f"{args.workload}-{seed}-trace{args.trace}"
           + ("-smoke" if args.smoke else ""))
    emit(results, bool(args.trace) or args.smoke, env, tag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
