"""Command-line interface: validate / measure / fuse / select.

Reports go to stdout as JSON (single line unless --pretty); errors go to
stderr as single-line JSON records.  Exit codes: 0 success, 1 validation
or domain error, 2 I/O error (the input could not be read or the report
could not be written), 3 usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import suppress

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


def _write(stream, text: str, end: str) -> OSError | None:
    """Print text, then end, to stream and flush; the error if that fails.

    A stream that is None (its fd was closed when the process started) is
    EBADF.  After a failed write the stream's fd points at the null device:
    the unwritten bytes stay in the stream's buffer, and the flush at
    interpreter exit would fail on them again ("Exception ignored", exit
    120); the signal module's SIGPIPE note advises this.  A stream with no
    fd (UnsupportedOperation) is left alone.
    """
    if stream is None:  # print(file=None) would write to sys.stdout
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        # end goes as a second write: a copy of a large report in text + end
        # raised the benchmark's peak RSS by 5 MB
        print(text, end=end, file=stream, flush=True)
    except OSError as err:
        with suppress(OSError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), stream.fileno())
        return err
    return None


def _emit_error(
    exit_code: int, code: str, message: str, source: str | None = None
) -> int:
    """Write one JSON error record to stderr; return exit_code.

    A record that cannot be written returns EXIT_IO instead.
    """
    record: dict = {"error": code, "message": message}
    if source is not None:
        record["source"] = source
    if _write(sys.stderr, json.dumps(record), "\n") is not None:
        return EXIT_IO
    return exit_code


def _write_stdout(text: str, what: str, end: str = "") -> int:
    """Print text to stdout; one IOError record if that fails (a closed
    pipe, a full disk, a stdout closed at start-up)."""
    if (err := _write(sys.stdout, text, end)) is not None:
        return _emit_error(EXIT_IO, "IOError", f"cannot write the {what}: {err}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_emit_error(EXIT_USAGE, "Usage", message))

    def print_help(self, file=None):
        # --help: argparse would drop a failed write silently, so the text
        # takes the report's guarded route and the exit code follows it.
        self.exit(_write_stdout(self.format_help(), "help text"))


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
        if sys.stdin is None:  # fd 0 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return sys.stdin.buffer.read()
    with open(path, "rb") as file:
        return file.read()


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
    except SystemExit as stop:  # from print_help() after --help, or error()
        return stop.code

    try:
        data = _read_input(args.input)
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        return _emit_error(EXIT_IO, "IOError", str(err))

    try:
        report = _report(args, data)
    except CvdError as err:
        return _emit_error(EXIT_DOMAIN, err.code, err.message, source=err.source)
    code = _write_stdout(render_report(report, args.pretty), "report", "\n")
    if code == EXIT_OK and args.command == "validate" and not report["valid"]:
        bad = [v["name"] for v in report["sources"] if not v["valid"]]
        return _emit_error(
            EXIT_DOMAIN,
            "ValidationFailed",
            f"{len(bad)} of {len(report['sources'])} sources invalid: "
            + ", ".join(bad),
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
