"""Record the benchmark's baseline: two sets of runs per workload, with spread.

    python3 perfbench/baseline.py

Runs ``run.py --trace 0`` once per seed on every workload, for two sets of
ten seeds (1-10, then 11-20), then one ``--trace 1`` run per workload, and
writes ``perfbench/baseline.json``.  For each set and end-to-end metric it
keeps the ten values, their median and the distance between the first and
third quartile as a share of the median (the spread a later change is
judged against), and the second set's median as a share of the first's, so
that the two sets can be checked against the benchmark's bounds.  For each
workload it also keeps the self time of every layer as a share of the
traced run's ``wall_s``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUNS = 10
FIRST_SEEDS = (1, 11)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main() -> int:
    base = {"environment": run.environment(), "workloads": {}}
    for wl in workloads.WORKLOADS:
        sets = []
        for first in FIRST_SEEDS:
            seeds = list(range(first, first + RUNS))
            outs = [bench(wl, s, 0) for s in seeds]
            metrics = {name: spread([o["metrics"][name]["value"]
                                     for o in outs])
                       for name in outs[0]["metrics"]}
            sets.append({"seeds": seeds,
                         "all_correct": all(o["correct"] for o in outs),
                         "end_to_end": metrics})
            for name, m in metrics.items():
                print(f"{wl} seeds {seeds[0]}-{seeds[-1]} {name}: median "
                      f"{m['median']:.4g} spread {m['spread']:.3f}",
                      flush=True)
        traced = bench(wl, FIRST_SEEDS[0], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        first, second = (s["end_to_end"] for s in sets)
        base["workloads"][wl] = {
            "sets": sets,
            "median_shift": {name: (second[name]["median"]
                                    / first[name]["median"] - 1.0)
                             for name in first},
            "traced_correct": traced["correct"],
            "traced_wall_s": layers["trace.wall_s"],
            "trace_overhead_s": layers["trace.overhead_s"],
            "layer_self_share": {
                x: layers[f"{x}.self_s"] / layers["trace.wall_s"]
                for x in tracing.LAYERS},
        }
    (HERE / "baseline.json").write_text(
        json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
