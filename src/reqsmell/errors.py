"""Exception types shared across the package, the line reader of the
dictionary and threshold files, and the mixin that makes value types
reject invalid fields.

All expected failure modes derive from :class:`ReqsmellError` so the CLI
can catch one base class and turn it into a diagnostic plus exit code 1.
"""

from __future__ import annotations

import os


class ReqsmellError(Exception):
    """Base class for every expected error raised by this package."""


class MalformedFileError(ReqsmellError):
    """A dictionary or threshold file violates its line format."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MalformedDictionaryError(MalformedFileError):
    """A dictionary override file violates the dictionary file format."""


class MalformedThresholdError(MalformedFileError):
    """A threshold file violates the ``METRIC OP LIMIT`` line format."""


def read_lines(path: str | os.PathLike[str], error: type[MalformedFileError]) -> list[str]:
    """The lines of the UTF-8 file at ``path``, or ``error`` if it is not
    UTF-8.

    Lines are split at "\\n" only, so the lines and their numbers are those
    of iterating the file, whose newline translation already ran; a form
    feed or U+2028 inside a line does not start a new one.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read().split("\n")
        except UnicodeDecodeError as exc:
            raise error(f"file is not valid UTF-8 ({exc.reason})") from exc


class CorpusError(ReqsmellError):
    """A requirement input file failed validation."""


class MissingColumnError(CorpusError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in header")
        self.column = column


class DuplicateIdError(CorpusError):
    def __init__(self, requirement_id: str, first_row: int, second_row: int):
        super().__init__(
            f"duplicate requirement id {requirement_id!r} (rows {first_row} and {second_row})"
        )
        self.requirement_id = requirement_id
        self.rows = (first_row, second_row)


class RowArityError(CorpusError):
    def __init__(self, row: int, expected: int, actual: int):
        super().__init__(f"row {row}: expected {expected} fields, found {actual}")
        self.row = row
        self.expected = expected
        self.actual = actual


class EncodingError(CorpusError):
    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: invalid UTF-8 ({detail})")
        self.row = row


class ValidatedTuple:
    """Mixin for a ``NamedTuple`` subclass whose ``_validate`` raises
    ``ValueError`` on invalid fields.

    Validation runs on every construction path: the constructor and
    ``_make``, which ``_replace`` goes through. Subclasses declare
    ``__slots__ = ()`` so instances stay immutable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._validate()
        return self
