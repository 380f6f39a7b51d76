"""Command-line front end: ``run``, ``validate`` and ``oracle-check``.

Configs are JSON (see :mod:`mcduality.experiments` for the schema and
defaults).  Validation failures are reported as machine-readable JSON on
stderr with exit code 2; runtime failures exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (build_claim, merge_config, run_experiment,
                          validate_config)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_violations(violations) -> None:
    json.dump({"error": "invalid config", "violations": violations},
              sys.stderr, indent=2)
    sys.stderr.write("\n")


def _add_common(p: argparse.ArgumentParser, need_config: bool) -> None:
    p.add_argument("--config", required=need_config,
                   help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (unsigned 64-bit)")
    p.add_argument("--paths", type=int, default=None,
                   help="override the Monte Carlo path count")
    p.add_argument("--steps", type=int, default=None,
                   help="override the time-step count")
    p.add_argument("--out", default="mcduality-out",
                   help="output directory (created if missing)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcduality",
        description="Monte Carlo primal/dual bounds and indifference prices "
                    "in stochastic-volatility markets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config")
    _add_common(p_run, need_config=True)

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("--config", required=True)

    p_oc = sub.add_parser("oracle-check",
                          help="cross-check the moment oracle against Monte "
                               "Carlo (config optional)")
    _add_common(p_oc, need_config=False)

    args = parser.parse_args(argv)

    if args.command == "validate":
        cfg = merge_config(_load_config(args.config))
        violations = validate_config(cfg)
        if violations:
            _emit_violations(violations)
            return 2
        print("OK")
        return 0

    if args.command == "oracle-check":
        user_cfg = _load_config(args.config) if args.config else {}
        user_cfg["kind"] = "oracle-check"
    else:
        user_cfg = _load_config(args.config)
        base = Path(args.config).resolve().parent
        merged = merge_config(user_cfg)
        if merged.get("claim", {}).get("kind") == "table":
            # resolve table paths relative to the config file
            build_claim(merged, base_dir=base)
            path = Path(merged["claim"]["path"])
            if not path.is_absolute():
                merged["claim"]["path"] = str(base / path)
            user_cfg = merged

    cfg = merge_config(user_cfg)
    # overrides first: a grid-dependent field is checked at the run's steps
    for key in ("seed", "paths", "steps"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    violations = validate_config(cfg)
    if violations:
        _emit_violations(violations)
        return 2
    try:
        manifest = run_experiment(cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - surfaced as an error record
        json.dump({"error": "run failed", "reason": str(exc)}, sys.stderr,
                  indent=2)
        sys.stderr.write("\n")
        return 1
    print(f"kind: {manifest.kind}")
    print(f"seed: {manifest.seed}")
    for rec in manifest.outputs:
        print(f"wrote: {Path(args.out) / rec['file']}")
    print(f"wrote: {Path(args.out) / 'manifest.json'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
