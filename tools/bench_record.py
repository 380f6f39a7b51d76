"""Record the benchmark of one or more checkouts in ``BENCH_<label>.json``.

Run from anywhere; each ``LABEL=DIR`` names a checkout to measure (``DIR``
defaults to this repository)::

    python3 tools/bench_record.py change
    python3 tools/bench_record.py parent=/path/to/parent-checkout change=.

For every workload and seeds 1-10 it runs ``python3 perfbench/run.py
--workload W --seed s --seconds 28`` in each checkout, alternating which checkout runs
first from one seed to the next, and reads the run's
``perfbench/out/result-W-s-trace0.json``.  Each checkout gets a
``BENCH_<label>.json`` at the root of this repository with the environment,
the checkout's git revision, and per workload the median, quartiles and IQR
(over seeds) of the five end-to-end metrics, plus every run's values.  The
three times are scaled to a steady host by ``perfbench/run.py``; each run
record and summary also keeps them unscaled (``unscaled``).  With two
checkouts it also prints, per workload and metric, how many seeds the
second won, and the same for unscaled ``wall_s``.  Record every file that
is compared on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "se_ratio_max")
UNSCALED = ("wall_s", "cpu_s", "setup_s")
WORKLOADS = ("rho_sweep", "vanishing_vol", "dual_search", "bulk_paths")
SECONDS = 28.0
SEEDS = range(1, 11)


def _git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_digest(checkout: Path) -> str:
    """sha256 over the package sources, so a dirty tree is identified too."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    out = checkout / "perfbench" / "out" / f"result-{workload}-{seed}-trace0.json"
    data = json.loads(out.read_text(encoding="utf-8"))
    res = data["results"][0]
    return {"seed": seed, "environment": data["environment"],
            "correct": res["correct"], "iterations": res["attempted"],
            "ref_dev_se_max": res["ref_dev_se_max"],
            "metrics": {m: res["metrics"][m] for m in METRICS},
            "unscaled": {m: res["unscaled"][m] for m in UNSCALED}}


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL[=DIR]")
    args = ap.parse_args(argv)

    sides = []
    for spec in args.checkouts:
        label, _, where = spec.partition("=")
        checkout = Path(where or HERE).resolve()
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"no perfbench/run.py under {checkout}", file=sys.stderr)
            return 2
        sides.append((label, checkout))

    runs = {label: {w: [] for w in WORKLOADS} for label, _ in sides}
    for workload in WORKLOADS:
        for seed in SEEDS:
            order = sides if seed % 2 else sides[::-1]
            for label, checkout in order:
                rec = run_once(checkout, workload, seed, SECONDS)
                runs[label][workload].append(rec)
                print(f"{label} {workload} seed {seed}: " + ", ".join(
                    f"{m} {rec['metrics'][m]:.4g}" for m in METRICS),
                    flush=True)

    for label, checkout in sides:
        first = next(iter(runs[label].values()))[0]
        bench = {
            "label": label,
            "revision": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain",
                               "--untracked-files=no")),
            "source_sha256": source_digest(checkout),
            "environment": first["environment"],
            "command": "python3 perfbench/run.py --workload W --seed s "
                       f"--seconds {SECONDS:g}",
            "seeds": list(SEEDS),
            "workloads": {
                w: {"correct": all(r["correct"] for r in recs),
                    "metrics": {m: summarize([r["metrics"][m] for r in recs])
                                for m in METRICS},
                    "unscaled": {m: summarize([r["unscaled"][m]
                                               for r in recs])
                                 for m in UNSCALED},
                    "runs": [{k: v for k, v in r.items()
                              if k != "environment"} for r in recs]}
                for w, recs in runs[label].items()},
        }
        path = HERE / f"BENCH_{label}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")

    if len(sides) == 2:
        (a, _), (b, _) = sides
        for w in WORKLOADS:
            for kind, m in ([("metrics", m) for m in METRICS]
                            + [("unscaled", "wall_s")]):
                pairs = list(zip(runs[a][w], runs[b][w]))
                wins = sum(rb[kind][m] < ra[kind][m] for ra, rb in pairs)
                ma = statistics.median(r[kind][m] for r in runs[a][w])
                mb = statistics.median(r[kind][m] for r in runs[b][w])
                name = m if kind == "metrics" else f"unscaled {m}"
                print(f"{w} {name}: {a} {ma:.4g} -> {b} {mb:.4g}, "
                      f"{b} lower in {wins}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
