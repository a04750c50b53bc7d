"""Exception types shared across the package, the reader of the
dictionary and threshold files, the mixin that makes value types reject
invalid fields, and the memo class that the scanner and the JSON writer use.

All expected failure modes derive from :class:`ReqsmellError` so the CLI
can catch one base class and turn it into a diagnostic plus exit code 1.
"""

import os


class ReqsmellError(Exception):
    """Base class for every expected error raised by this package."""


class MalformedFileError(ReqsmellError):
    """A dictionary or threshold file violates its line format, or is not
    UTF-8; ``.line`` is the number of the line at fault, if there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_file(path: str | os.PathLike[str], parse):
    """``parse`` applied to the lines of the UTF-8 file at ``path``. The
    error for a file that is not UTF-8, and any ``MalformedFileError`` that
    ``parse`` raises, start with ``path``.

    Lines are split at "\\n" only, so the lines and their numbers are those
    of iterating the file, whose newline translation already ran; a form
    feed or U+2028 inside a line does not start a new one.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            lines = handle.read().split("\n")
        except UnicodeDecodeError as exc:
            raise MalformedFileError(f"{path}: file is not valid UTF-8 ({exc.reason})") from exc
    try:
        return parse(lines)
    except MalformedFileError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class CorpusError(ReqsmellError):
    """A requirement input file failed validation."""


class ValidatedTuple:
    """Mixin for a ``namedtuple`` subclass whose ``__new__`` raises
    ``ValueError`` on invalid fields.

    Validation runs on every construction path: the constructor and
    ``_make``, which ``_replace`` goes through. Subclasses declare
    ``__slots__ = ()`` so instances stay immutable.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Memo(dict):
    """``make(key)`` for each key, made on first use and then looked up."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value
