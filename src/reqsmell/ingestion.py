"""Loading requirements from delimited text files.

Input is a UTF-8 (optionally BOM-prefixed) file whose first record is a
header; a :class:`ColumnMapping` names the id and text columns. Standard
quoting applies, so delimiters and newlines inside quoted fields are fine.
Rows are numbered by record: the header is record 1.
"""

import io
import os
from collections import namedtuple

from .errors import CorpusError, ValidatedTuple


# The csv module's quote character and the record terminators cannot also
# separate fields.
_RESERVED_DELIMITERS = ('"', "\r", "\n")


class ColumnMapping(ValidatedTuple, namedtuple("ColumnMapping", "id_column text_column delimiter",
                                                defaults=("ID", "Text", ","))):
    """Which columns hold the requirement id and text, and the delimiter."""

    __slots__ = ()

    def __new__(cls, id_column="ID", text_column="Text", delimiter=","):
        if id_column == text_column:
            raise ValueError("id column and text column must differ")
        if len(delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
        if delimiter in _RESERVED_DELIMITERS:
            raise ValueError(f"delimiter {delimiter!r} is not allowed: it is the quote character or a line break")
        return tuple.__new__(cls, (id_column, text_column, delimiter))


class Requirement(namedtuple("Requirement", "id text row")):
    """One requirement as read from the input file: its id, its text and
    its record number."""

    __slots__ = ()


def _column_index(header: list[str], name: str) -> int:
    hits = [i for i, col in enumerate(header) if col == name]
    if not hits:
        raise CorpusError(f"column {name!r} not found in header")
    if len(hits) > 1:
        raise CorpusError(f"column {name!r} appears {len(hits)} times in header")
    return hits[0]


def load_requirements(path: str | os.PathLike[str], mapping: ColumnMapping) -> list[Requirement]:
    """Read one requirement per data row, in file order; columns other than
    the id and text columns are accepted and ignored. The file is read once
    and parsed in one pass that reports its first fault in file order; in a
    record with both a CSV fault and invalid UTF-8, the CSV fault.

    Raises :class:`CorpusError` on invalid input, naming the row when a row
    is at fault: a missing or repeated column, a wrong field count, an empty
    or duplicate id, invalid UTF-8, or a record the CSV parser rejects (such
    as a field over ``csv.field_size_limit()``); OS-level failures propagate
    as ``OSError``. A file with a header but no data rows returns ``[]``.
    """
    import csv  # imported here: only file input needs it
    with open(path, "rb") as handle:
        data = handle.read()
    reason = None  # why the file is not UTF-8, if it is not
    try:
        data.decode("utf-8")  # only checked: the parser decodes as it reads
    except UnicodeDecodeError as exc:
        reason = exc.reason
        import re  # imported here: only a file that is not UTF-8 needs it
    # BytesIO shares data and the wrapper decodes it chunk by chunk, so no
    # text of the whole file outlives the check. Each invalid byte becomes a
    # lone surrogate, which valid UTF-8 never decodes to. The BOM is skipped
    # here, as "utf-8-sig" drops a truncated one at the end of the file.
    raw = io.BytesIO(data)
    raw.seek(3 if data.startswith(b"\xef\xbb\xbf") else 0)
    text = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="")
    # strict: an unterminated quote or text after a closing quote is an
    # error, not a field that runs on.
    reader = csv.reader(text, delimiter=mapping.delimiter, strict=True)
    requirements: list[Requirement] = []
    seen_ids: dict[str, int] = {}
    header = None
    record = 0  # records read so far; the header is record 1
    try:
        for record, row in enumerate(reader, start=1):
            if reason is not None and re.search("[\udc80-\udcff]", "".join(row)):
                raise CorpusError(f"row {record}: invalid UTF-8 ({reason})")
            if header is None:
                header = row
                id_index = _column_index(header, mapping.id_column)
                text_index = _column_index(header, mapping.text_column)
                continue
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
    if header is None:
        raise CorpusError("file is empty; a header row is required")
    return requirements
