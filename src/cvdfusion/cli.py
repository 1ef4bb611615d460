"""Command-line interface: validate / measure / fuse / select.

Reports go to stdout as JSON (single line unless --pretty); errors go to
stderr as single-line JSON records.  Exit codes: 0 success, 1 validation
or domain error, 2 I/O error (the input could not be read or the report
could not be written), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from pathlib import Path

from .core import DEFAULT_TOL, _check_tol
from .errors import CvdError
from .formats import (
    build_fuse_report,
    build_measure_report,
    build_select_report,
    build_validate_report,
    parse_raw_document,
    parse_source_file,
    render_report,
)
from .fusion import CredibilityWeights, select_sources

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_USAGE = 3


def _emit_error(code: str, message: str, source: str | None = None) -> None:
    record: dict = {"error": code, "message": message}
    if source is not None:
        record["source"] = source
    print(json.dumps(record), file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("Usage", message)
        raise SystemExit(EXIT_USAGE)


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
        _check_tol(value)
    except CvdError as err:
        raise argparse.ArgumentTypeError(err.message) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    return value


def _weights_arg(text: str) -> CredibilityWeights:
    try:
        return CredibilityWeights(tuple(float(x) for x in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="cvdfusion",
        description=(
            "Quality measures, credibility-weighted fusion and source "
            "selection for complex-valued distribution vectors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--input", required=True, help="source file path, or - for stdin"
        )
        p.add_argument(
            "--tol",
            type=_tol_arg,
            default=DEFAULT_TOL,
            help=f"validation tolerance (default {DEFAULT_TOL})",
        )
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        return p

    command("validate", "per-source validity verdicts")
    command("measure", "per-source quality, pairwise matrices, aggregate quality")
    p = command("fuse", "measure plus credibility weights and the fused distribution")
    p.add_argument(
        "--weights",
        type=_weights_arg,
        default=None,
        help="comma-separated weights overriding the credibility computation",
    )
    p = command("select", "pick the subset maximizing aggregate quality")
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "greedy"),
        default="greedy",
        help="search strategy (default greedy)",
    )
    p.add_argument(
        "--min-size", type=int, default=1, help="minimum subset size (default 1)"
    )

    return parser


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _report(args, data: bytes) -> dict:
    if args.command == "validate":
        return build_validate_report(*parse_raw_document(data), tol=args.tol)
    s = parse_source_file(data, tol=args.tol)
    if args.command == "measure":
        return build_measure_report(s)
    if args.command == "fuse":
        return build_fuse_report(s, args.weights)
    result = select_sources(s, strategy=args.strategy, min_size=args.min_size)
    return build_select_report(s, result)


# Built once per process: parse_args keeps no state between calls, and
# building the parser costs over ten times as much as parsing one argv.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as stop:  # EXIT_OK after --help, EXIT_USAGE from error()
        return stop.code

    try:
        data = _read_input(args.input)
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        _emit_error("IOError", str(err))
        return EXIT_IO

    try:
        report = _report(args, data)
    except CvdError as err:
        _emit_error(err.code, err.message, source=err.source)
        return EXIT_DOMAIN
    try:
        print(render_report(report, args.pretty), flush=True)
    except OSError as err:  # a closed pipe or a full disk
        _emit_error("IOError", f"cannot write the report: {err}")
        # The unwritten bytes stay in sys.stdout's buffer, and the flush at
        # interpreter exit would fail on them again ("Exception ignored",
        # exit 120): point fd 1 at the null device, as the signal module's
        # SIGPIPE note advises.  UnsupportedOperation: no fd behind stdout.
        with suppress(OSError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_IO
    if args.command == "validate" and not report["valid"]:
        bad = [v["name"] for v in report["sources"] if not v["valid"]]
        _emit_error(
            "ValidationFailed",
            f"{len(bad)} of {len(report['sources'])} sources invalid: "
            + ", ".join(bad),
        )
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
