"""One benchmark iteration in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports ``mcduality``
from the checkout's ``src`` directory, builds the workload's inputs, runs
the timed body once and prints one JSON record as its last line of output:
set-up time, wall and CPU time of the body, the mean tick of
``probe.Sampler`` over each of the two (the host's speed meanwhile), peak
RSS, headline numbers, report hashes, failed checks and, when traced, the
per-layer metrics.

Exit codes: 0 with a record (the record says whether the workload failed),
3 when ``mcduality`` cannot be imported from the checkout.
"""

import argparse
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _json_number(x: float):
    """JSON has no inf/nan; keep them readable as strings."""
    return x if math.isfinite(x) else repr(x)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None,
                    help="record spans and write them to this JSONL file")
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import probe
    sampler = probe.Sampler()
    sampler.start()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mcduality
    except ImportError as exc:
        print(f"cannot import mcduality from {src}: {exc}", file=sys.stderr)
        return 3
    if Path(mcduality.__file__).resolve().parent != src / "mcduality":
        print(f"mcduality imported from {mcduality.__file__}, not {src}",
              file=sys.stderr)
        return 3
    import workloads

    body = workloads.BODIES[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = time.monotonic() - args.spawned
    setup_end = time.perf_counter()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    rec = {"setup_s": setup_s, "workers": mcduality.worker_count(),
           "failures": []}
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        heads, facts, reports = body(mcduality, args.seed, size, out)
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        traceback.print_exc()
        rec["failures"].append(f"raised {type(exc).__name__}: {exc}")
        heads, facts, reports = {}, {}, {}
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = _cpu_s() - cpu0
    body_end = time.perf_counter()
    sampler.stop()
    rec["tick_setup_s"], rec["ticks_setup"] = sampler.mean_tick(0.0,
                                                                setup_end)
    rec["tick_body_s"], rec["ticks_body"] = sampler.mean_tick(t0, body_end)
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if heads:
        rec["failures"] += workloads.check(args.workload, heads, facts,
                                           args.size == "full")
    rec["headlines"] = {k: [_json_number(v), _json_number(se)]
                        for k, (v, se) in heads.items()}
    rec["reports"] = reports
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        rec["spans"] = len(tracer.spans)
        rec["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
