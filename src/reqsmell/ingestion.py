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


def _decode_error(data: bytes, exc: UnicodeDecodeError, delimiter: str) -> CorpusError:
    """The error for ``exc``, the first invalid UTF-8 sequence in ``data``,
    naming the record that holds it: the records before it are counted."""
    # The sentinel joins a record the bad bytes interrupt, and starts a new
    # one where they start a record, so the count includes their record.
    prefix = data[: exc.start].decode("utf-8-sig")  # without a leading BOM
    reader = csv.reader(io.StringIO(prefix + "x", newline=""), delimiter=delimiter)
    record = 0
    try:
        for _ in reader:
            record += 1
    except csv.Error as error:
        # A malformed record before the bad bytes is the first fault.
        return CorpusError(f"row {record + 1}: {error}")
    return CorpusError(f"row {record}: invalid UTF-8 ({exc.reason})")


def load_requirements(path: str | os.PathLike[str], mapping: ColumnMapping) -> list[Requirement]:
    """Read one requirement per data row, in file order; columns other than
    the id and text columns are accepted and ignored. The file is read once
    and checked to be UTF-8 before any row is, so invalid UTF-8 is reported
    first, unless a field before the bad bytes is over the CSV size limit.

    Raises :class:`CorpusError` on invalid input, naming the row when a row
    is at fault: a missing or repeated column, a wrong field count, an empty
    or duplicate id, invalid UTF-8, or a record the CSV parser rejects (such
    as a field over ``csv.field_size_limit()``); OS-level failures propagate
    as ``OSError``. A file with a header but no data rows returns ``[]``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")  # only checked: the parser decodes as it reads
    except UnicodeDecodeError as exc:
        raise _decode_error(data, exc, mapping.delimiter) from exc
    requirements: list[Requirement] = []
    seen_ids: dict[str, int] = {}
    record = 0  # records read so far
    # BytesIO shares data and the wrapper decodes it chunk by chunk, so no
    # text of the whole file outlives the check. strict: an unterminated quote
    # or text after a closing quote is an error, not a field that runs on.
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(text, delimiter=mapping.delimiter, strict=True)
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
    except csv.Error as exc:
        raise CorpusError(f"row {record + 1}: {exc}") from exc
    return requirements
