"""Command-line front end: ``run``, ``validate`` and ``oracle-check``.

Each subcommand reads its JSON config (see :mod:`mcduality.experiments`
for the schema and defaults) the same way, reading a relative table claim
path against the config file's directory.  Input a run cannot start from
(an unreadable, non-JSON or non-object config, a config violation or a
malformed ``MCDUALITY_WORKERS``) is reported as machine-readable JSON on
stderr with exit code 2; runtime failures exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (ConfigError, check_config, merge_config,
                          run_experiment)


def _load_config(path: str) -> dict:
    """The JSON object in ``path``, with a relative table claim path
    resolved against the directory of ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not JSON or text
        raise ConfigError([{"field": "config", "reason": str(exc)}]) from None
    if not isinstance(user, dict):
        raise ConfigError([{"field": "config",
                            "reason": "must be a JSON object"}])
    claim = user.get("claim")
    if (isinstance(claim, dict) and claim.get("kind") == "table"
            and isinstance(claim.get("path"), str)
            and not Path(claim["path"]).is_absolute()):
        base = Path(path).resolve().parent
        user["claim"] = {**claim, "path": str(base / claim["path"])}
    return user


def _report(record: dict) -> None:
    json.dump(record, sys.stderr, indent=2)
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
    try:
        user = _load_config(args.config) if args.config else {}
        if args.command == "validate":
            check_config(merge_config(user))
            print("OK")
            return 0
        if args.command == "oracle-check":
            user["kind"] = "oracle-check"
        manifest = run_experiment(user, args.out, seed=args.seed,
                                  paths=args.paths, steps=args.steps)
    except ConfigError as exc:
        _report({"error": "invalid config", "violations": exc.violations})
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as an error record
        _report({"error": "run failed", "reason": str(exc)})
        return 1
    print(f"kind: {manifest.kind}")
    print(f"seed: {manifest.seed}")
    for rec in manifest.outputs:
        print(f"wrote: {Path(args.out) / rec['file']}")
    print(f"wrote: {Path(args.out) / 'manifest.json'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
