"""Exception types shared across the package, and the mixin that makes
value types reject invalid fields.

All expected failure modes derive from :class:`ReqsmellError` so the CLI
can catch one base class and turn it into a diagnostic plus exit code 1.
"""

from __future__ import annotations


class ReqsmellError(Exception):
    """Base class for every expected error raised by this package."""


class MalformedDictionaryError(ReqsmellError):
    """A dictionary override file violates the dictionary file format."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MalformedThresholdError(ReqsmellError):
    """A threshold file violates the ``METRIC OP LIMIT`` line format."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


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
