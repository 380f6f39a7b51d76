"""Compare the report bytes of two checkouts on a fixed set of small runs.

Each ``LABEL=DIR`` names a checkout (``DIR`` relative to the current
directory); the first is the reference::

    python3 tools/report_bytes.py parent=/path/to/parent-checkout change=.
    python3 tools/report_bytes.py --only oracle-check parent=../p change=.

For each checkout one fresh interpreter, with ``PYTHONPATH=DIR/src``, runs
every config of ``CONFIGS`` (or those named by ``--only``) through
``run_experiment`` in a temporary directory and hashes each report file
the run lists (the manifest, which carries timing, is not a report).  No
run kind reaches the dual search, so the ``dual`` entry calls
``minimize_dual`` itself and hashes a CSV of its results.  The
script prints one line per report file, ``same`` or ``DIFF`` and each
checkout's sha256, and exits 1 if any file differs or is missing on one
side, else 0.  A run that raises is recorded as its exception's name and
counts as a difference.

Both child interpreters inherit the environment, ``MCDUALITY_WORKERS``
included, so ``MCDUALITY_WORKERS=2 python3 tools/report_bytes.py ...``
compares the threaded schedule.  The ``-blocks`` entries run three path
blocks (``rng.BLOCK_SIZE`` is 4096), so they are the ones a worker count
above 1 runs on threads.

Under a ``DIFF`` table (``.csv``, or ``.dat`` with its column names on the
last ``#`` line) of the same shape on both sides, one line per changed
column gives the largest absolute change and the largest change relative
to ``max(|a|, |b|)`` over its rows, or says that a text column changed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: name -> (config, paths, steps): small runs of every kind and mode
CONFIGS = {
    "sweep": ({"version": 1, "kind": "sweep"}, 400, 12),
    "sweep-rho-order": ({"version": 1, "kind": "sweep",
                         "sweep": {"rho_values": [0.4, 0.0, 0.1]}}, 400, 12),
    "sweep-exponential": ({"version": 1, "kind": "sweep",
                           "utility": {"kind": "exponential"}}, 400, 12),
    # the claim floor x + phi_min = 0.25 with phi_min != 0
    "sweep-constant-claim": ({"version": 1, "kind": "sweep",
                              "claim": {"kind": "constant", "c": -0.5}},
                             400, 12),
    "degenerate": ({"version": 1, "kind": "degenerate"}, 400, 16),
    # the other hedge basis a config may select
    "degenerate-degree1": ({"version": 1, "kind": "degenerate",
                            "degenerate": {"degree": 1}}, 400, 16),
    "kw-nondegenerate": ({"version": 1, "kind": "kw"}, 600, 32),
    "kw-degenerate": ({"version": 1, "kind": "kw",
                       "kw": {"mode": "degenerate"}}, 600, 32),
    # the zero-volatility member's row: H = 0, zero fraction 1
    "kw-limit": ({"version": 1, "kind": "kw",
                  "kw": {"mode": "degenerate",
                         "n_values": [1, 4, float("inf")]}}, 600, 32),
    "subreplication": ({"version": 1, "kind": "subreplication"}, 2000, 100),
    "oracle-check": ({"version": 1, "kind": "oracle-check"}, 2000, 32),
    # three path blocks each, so a worker count above 1 runs threads
    "sweep-blocks": ({"version": 1, "kind": "sweep",
                      "sweep": {"rho_values": [0.4]}}, 9000, 8),
    "degenerate-blocks": ({"version": 1, "kind": "degenerate",
                           "degenerate": {"n_values": [2]}}, 9000, 16),
    "oracle-check-blocks": ({"version": 1, "kind": "oracle-check"}, 9000, 8),
    "subreplication-blocks": ({"version": 1, "kind": "subreplication"},
                              9000, 100),
    # not a config: minimize_dual at y in {0.5, 2}, with and without the
    # default claim, buckets 2 and budget 30, on one rho = 0.3 bundle
    "dual": ("minimize_dual", 600, 12),
}

#: report files whose columns a ``DIFF`` line breaks down
_TABLES = (".csv", ".dat")

#: what the fresh interpreter runs: argv[1] is a JSON object of configs,
#: and it prints a JSON object ``"name/file" -> [sha256, text of a table
#: or None]``
_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from mcduality import RandomStream, minimize_dual, simulate_heston_market
from mcduality import experiments as ex
from mcduality.experiments import run_experiment


def dual_search(out, paths, steps):
    cfg = ex.merge_config({"paths": paths, "steps": steps})
    params, grid = ex.build_market(cfg)
    pair, claim = ex.build_utility(cfg), ex.build_claim(cfg)
    bundle = simulate_heston_market(params.with_rho(0.3), grid, paths,
                                    RandomStream(cfg["seed"]))
    lines = ["y,claim,mmm_mean,mmm_se,best_mean,best_se,label,evaluations,"
             "coeffs"]
    for y in (0.5, 2.0):
        for tag, c in (("claim", claim), ("free", None)):
            opt = minimize_dual(pair, y, bundle, c, buckets=2, budget=30)
            base, best = opt.table[0][1], opt.estimate
            coeffs = " ".join(f"{v:.17g}" for v in opt.best.coeffs.ravel())
            lines.append(f"{y:.17g},{tag},{base.mean:.17g},"
                         f"{base.stderr:.17g},{best.mean:.17g},"
                         f"{best.stderr:.17g},{opt.best.label},"
                         f"{opt.evaluations},{coeffs}")
    out.mkdir(parents=True)
    (out / "dual.csv").write_text("\\n".join(lines) + "\\n")
    return [{"file": "dual.csv"}]


reports = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (cfg, paths, steps) in json.loads(sys.argv[1]).items():
        out = Path(tmp) / name
        try:
            if cfg == "minimize_dual":
                outputs = dual_search(out, paths, steps)
            else:
                outputs = run_experiment(cfg, out, paths=paths,
                                         steps=steps).outputs
        except Exception as exc:
            reports[name + "/*"] = ["raised " + type(exc).__name__, None]
            continue
        for rec in outputs:
            data = (out / rec["file"]).read_bytes()
            reports[name + "/" + rec["file"]] = [
                hashlib.sha256(data).hexdigest(),
                data.decode() if rec["file"].endswith(%r) else None]
print(json.dumps(reports))
""" % (_TABLES,)


def report_hashes(checkout: Path, configs: dict) -> dict:
    """``"name/file" -> (sha256, text or None)`` of every report of
    ``configs`` run with the package of ``checkout``; the text is kept for
    tables only."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", _CHILD,
                               json.dumps(configs)], cwd=cwd, env=env,
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: runs failed\n{proc.stderr}")
    return {key: tuple(rec) for key, rec in json.loads(proc.stdout).items()}


def _table(key: str, text: str) -> list:
    """A report table as its columns: ``[(name, cells), ...]``."""
    if key.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text)))
    else:
        comments = [ln for ln in text.splitlines() if ln.startswith("#")]
        header = comments[-1].lstrip("#").split()
        rows = [ln.split() for ln in text.splitlines()
                if ln.strip() and not ln.startswith("#")]
    return [(name, [row[i] for row in rows])
            for i, name in enumerate(header)]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_changes(key: str, ref: str, new: str) -> list[str]:
    """One line per column that differs between the two texts of table
    ``key``: its largest absolute and relative change when every cell is a
    number on both sides, else that its text changed."""
    a, b = _table(key, ref), _table(key, new)
    if [(n, len(c)) for n, c in a] != [(n, len(c)) for n, c in b]:
        return ["     columns or row counts differ"]
    lines = []
    for (name, xs), (_, ys) in zip(a, b):
        if xs == ys:
            continue
        pairs = [(_number(x), _number(y)) for x, y in zip(xs, ys)]
        if any(x is None or y is None for x, y in pairs):
            lines.append(f"     {name}: text changed")
            continue
        diff = [(abs(x - y), max(abs(x), abs(y))) for x, y in pairs
                if not (x == y or (math.isnan(x) and math.isnan(y)))]
        if not diff:
            lines.append(f"     {name}: same numbers, other text")
            continue
        worst = max(d for d, _ in diff)
        rel = max(d / m if m > 0 else math.inf for d, m in diff)
        lines.append(f"     {name}: largest change {worst:.3g} absolute, "
                     f"{rel:.3g} relative ({len(diff)} of {len(xs)} rows)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="LABEL=DIR")
    parser.add_argument("--only", action="append", choices=sorted(CONFIGS),
                        help="run only this config (repeatable)")
    args = parser.parse_args(argv)
    configs = {name: CONFIGS[name] for name in (args.only or CONFIGS)}
    sides = []
    for spec in args.checkouts:
        label, sep, where = spec.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {spec!r}")
        sides.append((label, report_hashes(Path(where).resolve(), configs)))
    (ref_label, ref), (new_label, new) = sides
    print(f"{'':4} {ref_label:64} {new_label:64} report")
    differ = 0
    for key in sorted(set(ref) | set(new)):
        (a, text_a), (b, text_b) = (ref.get(key, ("missing", None)),
                                    new.get(key, ("missing", None)))
        same = a == b and not a.startswith(("missing", "raised"))
        differ += not same
        print(f"{'same' if same else 'DIFF'} {a:64} {b:64} {key}")
        if not same and text_a is not None and text_b is not None:
            for line in column_changes(key, text_a, text_b):
                print(line)
    print(f"{len(ref | new) - differ} same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
