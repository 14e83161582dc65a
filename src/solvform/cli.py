"""Command line front end.

Subcommands run the pipeline up to a stage and emit a report; ``verify``
re-derives the claims of a previously written machine-readable report.
Exit codes: 0 success, 1 input problem (unreadable file, unwritable
report path, schema or hypothesis violation, malformed report, failed
verification), 2 broken internal invariant or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, InternalInvariantViolation
from .report import STAGES, build_report, dumps_canonical, render_text, verify_report
from .spectral import load_spec

_STAGE_PREFIXES = {stage: STAGES[: i + 1] for i, stage in enumerate(STAGES)}
_STAGE_PREFIXES["analyze"] = STAGES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvform",
        description="Exact analysis of almost abelian solvmanifold presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGE_PREFIXES:
        cmd = sub.add_parser(name, help=f"run the pipeline through the {name} stage")
        cmd.add_argument("input", help="path to the instance document (JSON)")
        cmd.add_argument("--max-degree", type=int, default=3, metavar="K",
                         help="degree bound for the model and formality check (default 3)")
        cmd.add_argument("--report", metavar="PATH", help="write the report to this path")
        cmd.add_argument("--format", choices=("text", "json"), default="text",
                         help="report format (default text)")
    ver = sub.add_parser("verify", help="re-derive the claims of a machine-readable report")
    ver.add_argument("report", help="path to a JSON report")
    ver.add_argument("input", help="path to the instance document the report is about")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_stage(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other escape is a bug: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _run_stage(args) -> int:
    spec = load_spec(args.input)
    report = build_report(spec, args.max_degree, stages=_STAGE_PREFIXES[args.command])
    payload = dumps_canonical(report) if args.format == "json" else render_text(report)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(payload)
    return 0


def _run_verify(args) -> int:
    spec = load_spec(args.input)
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed report: {exc}") from exc
    if not isinstance(report, dict):
        raise InputError("malformed report: the top level must be a JSON object")
    ok, mismatches = verify_report(report, spec)
    if ok:
        print("report verified: all checkable claims reproduced")
        return 0
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
