"""Loading requirements from delimited text files.

Input is a UTF-8 (optionally BOM-prefixed) file whose first record is a
header; a :class:`ColumnMapping` names the id and text columns. Standard
quoting applies, so delimiters and newlines inside quoted fields are fine.
Rows are numbered by record: the header is record 1.
"""

import csv
import io
import os
from typing import NamedTuple

from .errors import CorpusError, ValidatedTuple


# The csv module's quote character and the record terminators cannot also
# separate fields.
_RESERVED_DELIMITERS = ('"', "\r", "\n")


class _ColumnMappingFields(NamedTuple):
    id_column: str = "ID"
    text_column: str = "Text"
    delimiter: str = ","


class ColumnMapping(ValidatedTuple, _ColumnMappingFields):
    """Which columns hold the requirement id and text, and the delimiter."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.id_column == self.text_column:
            raise ValueError("id column and text column must differ")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter in _RESERVED_DELIMITERS:
            raise ValueError(
                f"delimiter {self.delimiter!r} is not allowed: it is the quote character or a line break"
            )


class Requirement(NamedTuple):
    """One requirement as read from the input file."""

    id: str
    text: str
    row: int


def _column_index(header: list[str], name: str) -> int:
    hits = [i for i, col in enumerate(header) if col == name]
    if not hits:
        raise CorpusError(f"column {name!r} not found in header")
    if len(hits) > 1:
        raise CorpusError(f"column {name!r} appears {len(hits)} times in header")
    return hits[0]


def _decode_error(path: str | os.PathLike[str], delimiter: str, record: int, reason: str) -> CorpusError:
    """The error for the first invalid UTF-8 sequence in ``path``, naming
    the record that holds it; ``record`` and ``reason``, from the reader's
    error, stand if the file now decodes.

    The text reader decodes ahead of the CSV parser, so the parser's record
    count at a decode error can fall short. This reads the file again and
    counts the records before the bad bytes. It runs on the error path only.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8").removeprefix("\ufeff")
        reason = exc.reason
        # The sentinel joins a record the bad bytes interrupt, and starts a
        # new one where they start a record, so the count includes their record.
        reader = csv.reader(io.StringIO(prefix + "x", newline=""), delimiter=delimiter)
        record = 0
        try:
            for _ in reader:
                record += 1
        except csv.Error as error:
            # A malformed record before the bad bytes is the first fault.
            return CorpusError(f"row {record + 1}: {error}")
    return CorpusError(f"row {record}: invalid UTF-8 ({reason})")


def load_requirements(
    path: str | os.PathLike[str], mapping: ColumnMapping
) -> list[Requirement]:
    """Read one requirement per data row, in file order; columns other than
    the id and text columns are accepted and ignored.

    Raises :class:`CorpusError` on invalid input, naming the row when a row
    is at fault: a missing or repeated column, a wrong field count, an empty
    or duplicate id, invalid UTF-8, or a record the CSV parser rejects (such
    as a field over ``csv.field_size_limit()``); OS-level failures propagate
    as ``OSError``. A file with a header but no data rows returns ``[]``.
    """
    requirements: list[Requirement] = []
    seen_ids: dict[str, int] = {}
    record = 0  # records read so far
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        # strict: an unterminated quote or text after a closing quote is an
        # error, not a field that silently runs on.
        reader = csv.reader(handle, delimiter=mapping.delimiter, strict=True)
        try:
            header = next(reader, None)
            if header is None:
                raise CorpusError("file is empty; a header row is required")
            record = 1
            id_index = _column_index(header, mapping.id_column)
            text_index = _column_index(header, mapping.text_column)
            for row in reader:
                record += 1
                if not row:
                    continue  # blank line, not a data row
                if len(row) != len(header):
                    raise CorpusError(f"row {record}: expected {len(header)} fields, found {len(row)}")
                requirement_id = row[id_index]
                if not requirement_id:
                    raise CorpusError(f"row {record}: empty value in id column")
                if requirement_id in seen_ids:
                    raise CorpusError(
                        f"duplicate requirement id {requirement_id!r} "
                        f"(rows {seen_ids[requirement_id]} and {record})"
                    )
                seen_ids[requirement_id] = record
                requirements.append(Requirement(requirement_id, row[text_index], record))
        except UnicodeDecodeError as exc:
            raise _decode_error(path, mapping.delimiter, record + 1, exc.reason) from exc
        except csv.Error as exc:
            raise CorpusError(f"row {record + 1}: {exc}") from exc
    return requirements
