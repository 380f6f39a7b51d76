"""Compare the report bytes of two checkouts on a fixed set of small runs.

Each ``LABEL=DIR`` names a checkout (``DIR`` relative to the current
directory); the first is the reference::

    python3 tools/report_bytes.py parent=/path/to/parent-checkout change=.
    python3 tools/report_bytes.py --only oracle-check parent=../p change=.

For each checkout one fresh interpreter, with ``PYTHONPATH=DIR/src``, runs
every config of ``CONFIGS`` (or those named by ``--only``) through
``run_experiment`` in a temporary directory and hashes each report file
the run lists (the manifest, which carries timing, is not a report).  The
script prints one line per report file, ``same`` or ``DIFF`` and each
checkout's sha256, and exits 1 if any file differs or is missing on one
side, else 0.  A run that raises is recorded as its exception's name and
counts as a difference.
"""

from __future__ import annotations

import argparse
import json
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
    "kw-nondegenerate": ({"version": 1, "kind": "kw"}, 600, 32),
    "kw-degenerate": ({"version": 1, "kind": "kw",
                       "kw": {"mode": "degenerate"}}, 600, 32),
    # the zero-volatility member's row: H = 0, zero fraction 1
    "kw-limit": ({"version": 1, "kind": "kw",
                  "kw": {"mode": "degenerate",
                         "n_values": [1, 4, float("inf")]}}, 600, 32),
    "subreplication": ({"version": 1, "kind": "subreplication"}, 2000, 100),
    "oracle-check": ({"version": 1, "kind": "oracle-check"}, 2000, 32),
}

#: what the fresh interpreter runs: argv[1] is a JSON object of configs,
#: and it prints a JSON object ``"name/file" -> sha256``
_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from mcduality.experiments import run_experiment

hashes = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (cfg, paths, steps) in json.loads(sys.argv[1]).items():
        out = Path(tmp) / name
        try:
            man = run_experiment(cfg, out, paths=paths, steps=steps)
        except Exception as exc:
            hashes[name + "/*"] = "raised " + type(exc).__name__
            continue
        for rec in man.outputs:
            hashes[name + "/" + rec["file"]] = hashlib.sha256(
                (out / rec["file"]).read_bytes()).hexdigest()
print(json.dumps(hashes))
"""


def report_hashes(checkout: Path, configs: dict) -> dict:
    """``"name/file" -> sha256`` of every report of ``configs`` run with the
    package of ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", _CHILD,
                               json.dumps(configs)], cwd=cwd, env=env,
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: runs failed\n{proc.stderr}")
    return json.loads(proc.stdout)


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
        a, b = ref.get(key, "missing"), new.get(key, "missing")
        same = a == b and not a.startswith(("missing", "raised"))
        differ += not same
        print(f"{'same' if same else 'DIFF'} {a:64} {b:64} {key}")
    print(f"{len(ref | new) - differ} same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
