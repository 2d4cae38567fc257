"""Command line front end.

Every command reads a JSON config naming the mapping and its checks,
runs the selected operation kind (or all of them, for `run`), prints one
verdict line per executed check, and exits 0 only when every executed
check passed.  Exit 1 means a violation or a failed certification; exit 2
means the inputs were unusable.
"""

from __future__ import annotations

import argparse
import sys

from .config import OPERATIONS, ConfigError, check_entries, load_config, run_config
from .derivative import ConvergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracone",
        description="certify or falsify cone-ordered convexity defects from a JSON run config",
    )
    parser.add_argument("command", choices=(*OPERATIONS, "run"), help="the op whose entries to execute, or run for all")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="directory for the manifest and CSV outputs")
    parser.add_argument("--seed", type=int, default=None, help="override the seed of each entry that reads one")
    parser.add_argument("--budget", type=int, default=None, help="override the budget of each entry that reads one")
    parser.add_argument("--tol", type=float, default=None, help="override the tolerance of every executed entry")
    parser.add_argument("--form", choices=("min", "lambda"), default=None, help="override the inequality form")
    return parser


def _summary_line(entry: dict) -> str:
    verdict = "PASS" if entry["pass"] else "FAIL"
    headline = OPERATIONS[entry["op"]].headline
    detail = f" {headline.format_map(entry['report'])}" if headline else ""
    return f"[{entry['op']}] {entry['label']}: {verdict}{detail}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command != "run":
            checks = check_entries(cfg.get("checks"))
            entries = [op for op in checks if isinstance(op, dict) and op.get("op") == args.command]
            if not entries:
                raise ConfigError(f"checks: no entry with op {args.command!r}")
            cfg = {**cfg, "checks": entries}
        overrides = {"seed": args.seed, "budget": args.budget, "tol": args.tol, "form": args.form}
        manifest = run_config(cfg, out_dir=args.out, overrides=overrides)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 1
    for entry in manifest["reports"]:
        print(_summary_line(entry))
    if args.out is not None:
        print(f"manifest written under {args.out} (config {manifest['config_hash'][:12]})")
    return int(manifest["exit_status"])


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
