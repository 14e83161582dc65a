"""Command line front end.

Subcommands run the pipeline up to a stage and emit a report; ``verify``
re-derives the claims of a previously written machine-readable report.
The two command shapes are fixed (see ``USAGE``), so they are parsed
directly; an option takes its value as ``--opt value`` or ``--opt=value``.
Exit codes: 0 success (``-h``/``--help`` prints the usage), 1 input
problem (usage error, unreadable file, unwritable report path, schema or
hypothesis violation, malformed report, failed verification), 2 broken
internal invariant or any other unexpected error.
"""

from __future__ import annotations

import json
import sys

from .errors import InputError, InternalInvariantViolation
from .report import MAX_DEGREE_DIGITS, STAGES, build_report, dumps_canonical, verify_report
from .scalars import quoted
from .spectral import load_spec

_STAGE_PREFIXES = {stage: STAGES[: i + 1] for i, stage in enumerate(STAGES)}
_STAGE_PREFIXES["analyze"] = STAGES

USAGE = (
    "solvform <stage> INPUT.json [--max-degree K] [--report PATH] [--format text|json]\n"
    "solvform verify REPORT.json INPUT.json\n"
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        command, paths, options = _parse_args(argv)
        if command == "verify":
            return _run_verify(*paths)
        return _run_stage(command, paths[0], options)
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


def _parse_args(argv: list[str]) -> tuple[str, list[str], dict]:
    """``(command, paths, options by name)`` of one of the ``USAGE`` shapes.

    Any usage error is an :class:`InputError`.
    """
    if not argv:
        raise InputError("missing command (see solvform --help)")
    command, rest = argv[0], argv[1:]
    if command != "verify" and command not in _STAGE_PREFIXES:
        names = ", ".join([*_STAGE_PREFIXES, "verify"])
        raise InputError(f"unknown command {command!r} (expected one of {names})")
    paths: list[str] = []
    options = {"--max-degree": "3", "--report": None, "--format": "text"}
    while rest:
        arg = rest.pop(0)
        if not arg.startswith("-") or arg == "-":
            paths.append(arg)
            continue
        name, has_value, value = arg.partition("=")
        if command == "verify" or name not in options:
            raise InputError(f"unknown option {name!r} for {command}")
        if not has_value:
            if not rest:
                raise InputError(f"option {name} needs a value")
            value = rest.pop(0)
        options[name] = value
    expected = "REPORT INPUT" if command == "verify" else "INPUT"
    if len(paths) != len(expected.split()):
        raise InputError(f"{command} expects {expected}, got {len(paths)} path(s)")
    degree = options["--max-degree"]
    # an optional sign and ASCII digits, read with str methods: compiling a regex on first
    # use added about 0.2 ms to every run (2-vCPU x86 VM)
    digits = degree[1:] if degree[:1] in ("+", "-") else degree
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"--max-degree must be an integer, got {quoted(degree)}")
    # every negative value is below 1, so -1 stands for it; of a longer value one digit past
    # MAX_DEGREE_DIGITS is read, enough for Analysis to refuse it as that long
    digits = digits.lstrip("0")[: MAX_DEGREE_DIGITS + 1]
    options["--max-degree"] = -1 if degree[0] == "-" else int(digits or "0")
    if options["--format"] not in ("text", "json"):
        raise InputError(f"--format must be text or json, got {options['--format']!r}")
    return command, paths, options


def _run_stage(command: str, input_path: str, options: dict) -> int:
    spec = load_spec(input_path)
    report = build_report(spec, options["--max-degree"], stages=_STAGE_PREFIXES[command])
    if options["--format"] == "json":
        payload = dumps_canonical(report)
    else:
        from .text import render_text  # a JSON run does not compile the renderer

        payload = render_text(report)
    if options["--report"] is not None:  # an empty path is an unwritable one
        try:
            with open(options["--report"], "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(payload)
    return 0


def _run_verify(report_path: str, input_path: str) -> int:
    spec = load_spec(input_path)
    try:
        with open(report_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        report = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read report: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deeply
        raise InputError(f"malformed report: {exc}") from exc
    if not isinstance(report, dict):
        raise InputError("malformed report: the top level must be a JSON object")
    ok, mismatches = verify_report(report, spec, text)
    if ok:
        print("report verified: all checkable claims reproduced")
        return 0
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
