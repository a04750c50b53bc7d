"""Unit tests for corpus loading."""

import csv

import pytest

from reqsmell.errors import CorpusError
from reqsmell.ingestion import ColumnMapping, Requirement, load_requirements

DEFAULT = ColumnMapping()


def write(tmp_path, content, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestHappyPath:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path, "ID,Text\nR1,The system shall start.\nR2,It may stop.\n")
        loaded = load_requirements(path, DEFAULT)
        assert loaded == [
            Requirement(id="R1", text="The system shall start.", row=2),
            Requirement(id="R2", text="It may stop.", row=3),
        ]

    def test_custom_columns_and_delimiter(self, tmp_path):
        path = write(tmp_path, "key;body\nA;alpha\nB;beta\n")
        mapping = ColumnMapping(id_column="key", text_column="body", delimiter=";")
        loaded = load_requirements(path, mapping)
        assert [(r.id, r.text) for r in loaded] == [("A", "alpha"), ("B", "beta")]

    def test_tab_delimiter(self, tmp_path):
        path = write(tmp_path, "ID\tText\nR1\thello world\n")
        loaded = load_requirements(path, ColumnMapping(delimiter="\t"))
        assert loaded[0].text == "hello world"

    def test_quoted_field_with_delimiter_and_newline(self, tmp_path):
        path = write(tmp_path, 'ID,Text\nR1,"first, then\nsecond"\n')
        loaded = load_requirements(path, DEFAULT)
        assert loaded[0].text == "first, then\nsecond"
        assert loaded[0].row == 2

    def test_bom_is_stripped_from_header(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes("﻿ID,Text\nR1,x\n".encode("utf-8"))
        assert load_requirements(path, DEFAULT)[0].id == "R1"

    def test_blank_lines_are_skipped_but_numbering_advances(self, tmp_path):
        path = write(tmp_path, "ID,Text\n\nR1,x\n\nR2,y\n")
        loaded = load_requirements(path, DEFAULT)
        assert [(r.id, r.row) for r in loaded] == [("R1", 3), ("R2", 5)]

    def test_extra_columns_pass_through(self, tmp_path):
        # Columns besides id and text are accepted and ignored.
        path = write(tmp_path, "ID,Component,Text,Priority\nR1,UI,hello,high\nR2,DB,bye,low\n")
        loaded = load_requirements(path, DEFAULT)
        assert loaded == [Requirement("R1", "hello", 2), Requirement("R2", "bye", 3)]

    def test_whitespace_in_text_is_preserved(self, tmp_path):
        path = write(tmp_path, "ID,Text\nR1,  padded  \n")
        assert load_requirements(path, DEFAULT)[0].text == "  padded  "


class TestErrors:
    def test_missing_id_column(self, tmp_path):
        path = write(tmp_path, "key,Text\nA,x\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "column 'ID' not found in header"

    def test_missing_text_column(self, tmp_path):
        path = write(tmp_path, "ID,Body\nA,x\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "column 'Text' not found in header"

    def test_ambiguous_header(self, tmp_path):
        path = write(tmp_path, "ID,Text,Text\nA,x,y\n")
        with pytest.raises(CorpusError, match="appears 2 times"):
            load_requirements(path, DEFAULT)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(CorpusError, match="header"):
            load_requirements(path, DEFAULT)

    def test_short_row(self, tmp_path):
        path = write(tmp_path, "ID,Text\nR1\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 2: expected 2 fields, found 1"

    def test_long_row(self, tmp_path):
        path = write(tmp_path, "ID,Text\nR1,x\nR2,y,z\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 3: expected 2 fields, found 3"

    def test_empty_id(self, tmp_path):
        path = write(tmp_path, "ID,Text\n,x\n")
        with pytest.raises(CorpusError, match="row 2"):
            load_requirements(path, DEFAULT)

    def test_duplicate_id_reports_both_rows(self, tmp_path):
        path = write(tmp_path, "ID,Text\nR1,x\nR2,y\nR1,z\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "duplicate requirement id 'R1' (rows 2 and 4)"

    def test_field_over_parser_limit_names_the_record(self, tmp_path):
        oversized = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, f"ID,Text\nR1,short\nR2,{oversized}\n")
        with pytest.raises(CorpusError, match="row 3"):
            load_requirements(path, DEFAULT)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(b"ID,Text\nR1,caf\xe9\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 2: invalid UTF-8 (invalid continuation byte)"

    def test_invalid_utf8_names_its_record(self, tmp_path):
        # The decoder reads ahead of the parser; the row must still be the
        # record holding the bad byte, here in a quoted multi-line field.
        rows = [f'R{i},"requirement {i} text,\nsecond line"' for i in range(2, 602)]
        rows[449] = 'R451,"caf\udce9 crème"'  # \udce9 is written as the bare byte 0xE9
        path = tmp_path / "corpus.csv"
        path.write_bytes(("ID,Text\n" + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 451: invalid UTF-8 (invalid continuation byte)"

    @pytest.mark.parametrize(
        "content, row",
        [
            (b"\xff\xfeID,Text\nR1,x\n", 1),
            (b"\xef\xbb\xbfID,Text\nR1,x\n\xe9R2,y\n", 3),
            (b"ID,Text\r\nR1,x\r\n\xe9", 3),
            (b"ID,Text\nR1,\"open\n\nstill open \xe9\"\n", 2),
        ],
    )
    def test_invalid_utf8_row_at_record_edges(self, tmp_path, content, row):
        path = tmp_path / "corpus.csv"
        path.write_bytes(content)
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        # The message ends with the decoder's own reason for the first bad byte.
        reason = pytest.raises(UnicodeDecodeError, content.decode, "utf-8").value.reason
        assert str(info.value) == f"row {row}: invalid UTF-8 ({reason})"

    def test_an_earlier_duplicate_id_is_reported_before_invalid_utf8(self, tmp_path):
        # The first fault in file order is reported, whether or not the bad
        # byte falls in the decoder's first 8 KiB chunk.
        for filler in (0, 400):
            rows = ["R1,a", "R1,b", *(f"X{i},{'x' * 40}" for i in range(filler)), "R9,caf\xe9"]
            path = tmp_path / "corpus.csv"
            path.write_bytes(("ID,Text\n" + "\n".join(rows) + "\n").encode("latin-1"))
            assert (filler == 0) == (path.read_bytes().index(b"\xe9") < 8192)
            with pytest.raises(CorpusError) as info:
                load_requirements(path, DEFAULT)
            assert str(info.value) == "duplicate requirement id 'R1' (rows 2 and 3)"

    def test_an_earlier_malformed_record_is_reported_before_invalid_utf8(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(b'ID,Text\nR1,"ab"c\nR2,\xe9\n')
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 2: ',' expected after '\"'"

    def test_a_csv_fault_wins_over_invalid_utf8_in_its_own_record(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(b'ID,Text\nR1,"ab\xe9\n')
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 2: unexpected end of data"

    def test_an_earlier_field_over_parser_limit_is_reported_before_invalid_utf8(self, tmp_path):
        oversized = b"x" * (csv.field_size_limit() + 1)
        path = tmp_path / "corpus.csv"
        path.write_bytes(b"ID,Text\nR1,short\nR2," + oversized + b"\nR3,caf\xe9\n")
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == f"row 3: field larger than field limit ({csv.field_size_limit()})"

    @pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb"])
    def test_a_truncated_bom_is_invalid_utf8_in_row_1(self, tmp_path, content):
        path = tmp_path / "corpus.csv"
        path.write_bytes(content)
        with pytest.raises(CorpusError) as info:
            load_requirements(path, DEFAULT)
        assert str(info.value) == "row 1: invalid UTF-8 (unexpected end of data)"

    def test_unterminated_quote(self, tmp_path):
        path = write(tmp_path, 'ID,Text\nR1,"unterminated\nR2,second row\nR3,third\n')
        with pytest.raises(CorpusError, match="row 2: unexpected end of data"):
            load_requirements(path, DEFAULT)

    def test_text_after_closing_quote(self, tmp_path):
        path = write(tmp_path, 'ID,Text\nR1,ok\nR2,"ab"c\n')
        with pytest.raises(CorpusError, match="row 3"):
            load_requirements(path, DEFAULT)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_requirements(tmp_path / "absent.csv", DEFAULT)


class TestColumnMapping:
    def test_rejects_identical_columns(self):
        with pytest.raises(ValueError):
            ColumnMapping(id_column="Text", text_column="Text")

    def test_rejects_multichar_delimiter(self):
        with pytest.raises(ValueError):
            ColumnMapping(delimiter="::")

    def test_rejects_empty_delimiter(self):
        with pytest.raises(ValueError):
            ColumnMapping(delimiter="")

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_rejects_quote_and_line_break_delimiters(self, delimiter):
        with pytest.raises(ValueError, match="quote character or a line break"):
            ColumnMapping(delimiter=delimiter)

    def test_make_and_replace_validate(self):
        with pytest.raises(ValueError):
            ColumnMapping._make(("ID", "Text", "::"))
        with pytest.raises(ValueError):
            DEFAULT._replace(text_column="ID")
        assert DEFAULT._replace(delimiter=";") == ColumnMapping(delimiter=";")


class TestEmptyCorpus:
    def test_header_only_returns_empty_without_warning(self, tmp_path, recwarn):
        # The diagnostic for an empty corpus is the CLI's; the library only
        # returns the empty list.
        path = write(tmp_path, "ID,Text\n")
        assert load_requirements(path, DEFAULT) == []
        assert not recwarn.list

    def test_rows_do_not_warn(self, tmp_path, recwarn):
        path = write(tmp_path, "ID,Text\nR1,x\n")
        load_requirements(path, DEFAULT)
        assert not recwarn.list


class TestRoundTrip:
    def test_reemitted_corpus_loads_identically(self, tmp_path):
        texts = [
            "plain text",
            "comma, inside",
            'quoted "word" here',
            "line\nbreak",
            "trailing space ",
        ]
        original = tmp_path / "a.csv"
        with open(original, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["ID", "Text"])
            for i, text in enumerate(texts):
                writer.writerow([f"R{i}", text])
        first = load_requirements(original, DEFAULT)

        copy = tmp_path / "b.csv"
        with open(copy, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["ID", "Text"])
            for req in first:
                writer.writerow([req.id, req.text])
        second = load_requirements(copy, DEFAULT)

        assert [(r.id, r.text) for r in second] == [(r.id, r.text) for r in first]
        assert [r.text for r in first] == texts
