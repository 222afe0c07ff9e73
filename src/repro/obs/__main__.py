"""``python -m repro.obs`` — report / validate campaign observability.

- ``report --dir DIR [--json]``  — render per-wave / per-shard /
  per-worker tables (or the machine-readable rollup document) for one
  campaign directory; a missing directory or a document that is not
  JSON exits 2;
- ``validate --dir DIR`` (or ``validate --events FILE``) — check an
  event log against the :mod:`repro.obs.schema`; non-zero exit on any
  violation (the CI smoke gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.report import load_rollup, render_report
from repro.obs.schema import validate_file

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Campaign observability: reports and event-log "
        "validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report",
        help="per-wave/per-shard/per-worker tables + rollup JSON",
    )
    report.add_argument("--dir", required=True, help="campaign directory")
    report.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable rollup document instead",
    )

    validate = sub.add_parser(
        "validate", help="validate an event log against the schema"
    )
    target = validate.add_mutually_exclusive_group(required=True)
    target.add_argument("--dir", help="campaign directory")
    target.add_argument("--events", help="an events.jsonl path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "report":
        try:
            rollup = load_rollup(args.dir)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(rollup, indent=2, sort_keys=True))
        else:
            print(render_report(rollup))
        return 0

    if args.command == "validate":
        path = (
            Path(args.dir) / "events.jsonl" if args.dir else args.events
        )
        errors = validate_file(path)
        if errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            print(
                f"{path}: {len(errors)} schema violation(s)",
                file=sys.stderr,
            )
            return 1
        print(f"{path}: event log validates")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `repro.obs report ... | head`
        sys.exit(141)
