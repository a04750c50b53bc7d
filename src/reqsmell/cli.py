"""Command-line entry point: ingest, analyze, flag, render.

Exit codes follow lint-tool convention so CI can tell findings from
failures: 0 clean run, 2 when --fail-on-flagged is set and at least one
requirement is flagged, 1 for usage, IO, or validation errors (reported on
stderr, never as a traceback).
"""

import argparse
import contextlib
import io
import os
import sys
from stat import S_ISDIR, S_ISREG

from . import __version__
from .dictionaries import builtin_dictionaries, load_dictionary_file
from .errors import ReqsmellError
from .ingestion import ColumnMapping, load_requirements
from .metrics import AnalysisConfig
from .reporting import REPORT_FORMATS, build_report, load_threshold_file, printable, write_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqsmell",
        description=(
            "Detect bad smells in natural-language requirements: vague, optional, "
            "subjective, and weak wording, external references, conjunction load, "
            "size, and readability."
        ),
    )
    parser.add_argument("--input", required=True, help="delimited requirements file (UTF-8, header row)")
    parser.add_argument("--id-column", default="ID", help="header name of the id column (default: ID)")
    parser.add_argument("--text-column", default="Text", help="header name of the text column (default: Text)")
    parser.add_argument("--delimiter", default=",", help="field delimiter, single character or \\t (default: ,)")
    parser.add_argument("--dictionaries", help="dictionary override file replacing built-in keyword lists per metric")
    parser.add_argument("--thresholds", help="threshold rules file (METRIC OP LIMIT per line)")
    parser.add_argument("--format", choices=REPORT_FORMATS, default="table", help="report format (default: table)")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--fail-on-flagged", action="store_true",
                        help="exit with code 2 when any requirement is flagged")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


@contextlib.contextmanager
def _through(standard):
    """The binary stream under the text stream ``standard``, flushed at the end."""
    try:
        yield standard.buffer
        standard.buffer.flush()
    except BrokenPipeError:
        # The reader went away. Python flushes the stream again at exit,
        # which would report the same error a second time; let that flush
        # drop the rest of the report instead.
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), standard.fileno())
        os.close(devnull)
        raise


@contextlib.contextmanager
def _destination(output: str | None, sources: list[tuple[str, str | None]]):
    """The report's binary stream, opened before the analysis: a bad --output fails first.

    ``sources`` are the (flag, path) pairs of the files the run read.
    """
    if output is None:
        try:  # fails if stdout is None (fd 1 closed at start), closed, or its descriptor is gone
            os.fstat(sys.stdout.fileno())
        except (AttributeError, ValueError, OSError) as exc:  # or in memory, as a test's capture: usable
            if sys.stdout is None or sys.stdout.closed or not isinstance(exc, io.UnsupportedOperation):
                raise ReqsmellError("stdout is closed: name a report file with --output") from None
        with _through(sys.stdout) as stream:
            yield stream
        return
    # Any failure of a file destination names the path as given, never the temp file.
    try:
        # One stat of the path as given, following links: a link's target is
        # checked, and /dev/stdout is whatever stdout has open.
        try:
            status = os.stat(output)
        except FileNotFoundError:
            if not output:  # "" is no path, not the working directory
                raise
            status = None  # created below, as is a dangling link's target
        if status is not None:
            if S_ISDIR(status.st_mode):
                raise ReqsmellError(f"--output {output} is a directory")
            # A file the run read is never replaced, whatever link names it.
            for flag, path in sources:
                if S_ISREG(status.st_mode) and path is not None and os.path.samestat(status, os.stat(path)):
                    raise ReqsmellError(f"--output {output} is the same file as {flag}")
            # Whatever stdout or stderr has open, of any type, is written
            # through that stream: --output /dev/stdout >> log keeps the
            # shell's append mode, and a socket, which open() refuses, works.
            for standard in (sys.stdout, sys.stderr):
                opened = None
                with contextlib.suppress(AttributeError, ValueError, OSError):  # None, closed or no file
                    opened = os.fstat(standard.fileno())
                if opened and os.path.samestat(status, opened):
                    with _through(standard) as stream:
                        yield stream
                    return
            if not S_ISREG(status.st_mode):  # any other FIFO or device is written into, not replaced
                with open(output, "wb") as handle:
                    yield handle
                return
        # Write via a temp file and rename, so a failed run never leaves a
        # partial report and an existing file survives untouched on error.
        # A symlink stays, and its target gets the report.
        target = os.path.realpath(output)
        tmp_path = os.path.join(os.path.dirname(target), f".reqsmell-{os.urandom(8).hex()}")
        handle = open(tmp_path, "xb")  # a new file, no link followed, the mode a plain open() gives
        try:
            with handle:
                yield handle
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, output) from None


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed help/usage; fold its exit codes into ours
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR

    try:
        delimiter = "\t" if args.delimiter == "\\t" else args.delimiter
        try:
            mapping = ColumnMapping(args.id_column, args.text_column, delimiter)
        except ValueError as exc:
            raise ReqsmellError(str(exc)) from exc

        # An empty path is a path, which fails to open, not an absent flag.
        dictionaries = builtin_dictionaries() if args.dictionaries is None else load_dictionary_file(args.dictionaries)
        rules = () if args.thresholds is None else load_threshold_file(args.thresholds)

        requirements = load_requirements(args.input, mapping)
        if not requirements:
            print("warning: no requirements found (header-only file)", file=sys.stderr)

        sources = [("--input", args.input), ("--dictionaries", args.dictionaries), ("--thresholds", args.thresholds)]
        # build_report takes each requirement off the list, in corpus order,
        # as it reads it: each text dies once it is analysed, not with the list.
        requirements.reverse()
        with _destination(args.output, sources) as stream:
            report = build_report(
                (requirements.pop() for _ in range(len(requirements))),
                config=AnalysisConfig.from_dictionaries(dictionaries),
                rules=rules,
                column_mapping=mapping,
                spans=args.format == "json",
            )
            write_report(report, args.format, stream)
    except (ReqsmellError, OSError) as exc:
        print(f"error: {printable(str(exc))}", file=sys.stderr)
        return EXIT_ERROR

    if args.fail_on_flagged and report.summary.flagged_count > 0:
        return EXIT_FLAGGED
    return EXIT_OK


def main() -> None:
    sys.exit(run())
