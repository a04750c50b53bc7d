"""Unit tests for thresholds, summaries, and the three report renderers."""

import copy
import csv
import io
import json
import pickle
import re
import tracemalloc
from pathlib import Path

import pytest

from reqsmell import __version__, reporting
from reqsmell.dictionaries import BUILTIN, DICTIONARY_METRICS, Dictionary, PhrasePattern
from reqsmell.errors import MalformedFileError
from reqsmell.ingestion import ColumnMapping, Requirement, load_requirements
from reqsmell.metrics import ALL_METRICS, AnalysisConfig, MetricVector, analyze_text
from reqsmell.reporting import (
    REPORT_FORMATS,
    AnalysisReport,
    MetricSummary,
    ReportSummary,
    RequirementEntry,
    ThresholdRule,
    build_report,
    load_threshold_file,
    parse_threshold_rules,
    render,
    write_report,
)

CONFIG = AnalysisConfig.default()

CORPUS = [
    Requirement(id="R1", text="the system may fail based on some conditions", row=2),
    Requirement(id="R2", text="", row=3),
    Requirement(id="R3", text="see reference 2 and see document 3.", row=4),
]

RULES = parse_threshold_rules(["V >= 2", "NR1 >= 1", "NW > 40"])


def make_report(**kwargs):
    defaults = dict(requirements=CORPUS, config=CONFIG, rules=RULES)
    defaults.update(kwargs)
    return build_report(**defaults)


def flags_of(text, rules):
    """The flags ``build_report`` gives a one-requirement corpus."""
    return list(build_report([Requirement("R1", text, 2)], CONFIG, rules).entries[0].flags)


class TestThresholdRule:
    def test_strict_comparator_excludes_boundary(self):
        assert analyze_text("the cat sat.", CONFIG).value("ARI") == 30.0
        assert flags_of("the cat sat.", [ThresholdRule("ARI", ">", 30)]) == []
        assert flags_of("the cat sat.", [ThresholdRule("ARI", ">=", 30)]) == ["ARI"]

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            ThresholdRule("Q", ">", 1)

    def test_rejects_unknown_comparator(self):
        with pytest.raises(ValueError, match="unknown comparator '<'"):
            ThresholdRule("V", "<", 1)

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            ThresholdRule("V", ">", -1)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf")])
    def test_rejects_non_finite_limit(self, limit):
        with pytest.raises(ValueError, match=f"limit must be a finite number, got {limit}"):
            ThresholdRule("V", ">=", limit)

    @pytest.mark.parametrize("limit", ["3", None, True, False])
    def test_rejects_non_numeric_limit(self, limit):
        with pytest.raises(ValueError, match=f"limit must be a finite number, got {limit!r}"):
            ThresholdRule("V", ">=", limit)

    def test_make_and_replace_validate(self):
        with pytest.raises(ValueError):
            ThresholdRule._make(("V", ">", -1))
        with pytest.raises(ValueError, match="finite"):
            ThresholdRule("V", ">", 1)._replace(limit=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            ThresholdRule("V", ">", 1)._replace(limit=True)
        with pytest.raises(AttributeError):
            ThresholdRule("V", ">", 1).limit = 2


class TestParseThresholdRules:
    def test_basic_parse(self):
        rules = parse_threshold_rules(["NW > 40", "V >= 2"])
        assert [(r.metric_id, r.comparator, r.limit) for r in rules] == [
            ("V", ">=", 2.0),
            ("NW", ">", 40.0),
        ]

    def test_comments_and_blank_lines(self):
        rules = parse_threshold_rules(["# corpus limits", "", "V >= 2  # vague", "   "])
        assert len(rules) == 1

    def test_rules_come_back_in_metric_order(self):
        rules = parse_threshold_rules(["ARI >= 10", "V >= 1", "O >= 1"])
        assert [r.metric_id for r in rules] == ["V", "O", "ARI"]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("V >=", "expected"),
            ("V >= 2 3", "expected"),
            ("Q >= 1", "unknown metric"),
            ("V == 1", "unknown comparator"),
            ("V >= lots", "invalid limit"),
            ("V >= -1", "non-negative"),
            ("V >= nan", "finite"),
            ("NW > inf", "finite"),
        ],
    )
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(MalformedFileError, match=fragment) as info:
            parse_threshold_rules([line])
        assert info.value.line == 1

    def test_negative_zero_limit_loads_as_zero(self):
        (rule,) = parse_threshold_rules(["V >= -0"])
        assert str(rule.limit) == "0.0"
        report = build_report(CORPUS, CONFIG, [rule])
        assert b'"limit": 0.0' in render(report, "json")

    def test_duplicate_metric_rejected(self):
        with pytest.raises(MalformedFileError) as info:
            parse_threshold_rules(["V >= 1", "V > 3"])
        assert info.value.line == 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "thresholds.txt"
        path.write_text("# limits\nNW > 40\n", encoding="utf-8")
        (rule,) = load_threshold_file(path)
        assert (rule.metric_id, rule.comparator, rule.limit) == ("NW", ">", 40.0)

    def test_load_rejects_invalid_utf8(self, tmp_path):
        path = tmp_path / "thresholds.txt"
        path.write_bytes(b"NW > 40\nV >= \xff\n")
        with pytest.raises(MalformedFileError) as info:
            load_threshold_file(path)
        assert str(info.value) == f"{path}: file is not valid UTF-8 (invalid start byte)"
        assert info.value.line is None

    def test_load_names_the_file_and_keeps_the_line(self, tmp_path):
        path = tmp_path / "thresholds.txt"
        path.write_text("NW > 40\nFOO >= 2\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_threshold_file(path)
        assert str(info.value) == f"{path}: line 2: unknown metric 'FOO'"
        assert info.value.line == 2
        # Parsing lines alone names no file.
        with pytest.raises(MalformedFileError) as info:
            parse_threshold_rules(["NW > 40", "FOO >= 2"])
        assert str(info.value) == "line 2: unknown metric 'FOO'"

    def test_file_line_numbers_count_only_line_breaks(self, tmp_path):
        # A form feed or a line separator inside a comment does not start
        # a new line, as when the file is read line by line.
        path = tmp_path / "thresholds.txt"
        path.write_text("# a\x0cb\u2028c\r\nV ~= 2\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_threshold_file(path)
        assert info.value.line == 2


class TestApplyThresholds:
    """How build_report applies threshold rules to each requirement."""

    def test_no_rules_no_flags(self):
        assert flags_of("may may may", []) == []

    def test_flags_in_metric_order_not_rule_order(self):
        rules = parse_threshold_rules(["ARI >= 10", "O >= 1", "V >= 1"])
        assert flags_of("the system may fail based on some conditions", rules) == ["V", "O", "ARI"]

    def test_duplicate_rule_for_a_metric_rejected(self):
        # Otherwise both rules would be listed in the report's config while
        # only the last one is applied.
        rules = [ThresholdRule("V", ">=", 1), ThresholdRule("V", ">=", 5)]
        with pytest.raises(ValueError, match="duplicate rule for metric V"):
            build_report([Requirement("R1", "may may may", 2)], CONFIG, rules)


class TestSummarize:
    def test_empty_corpus(self):
        summary = build_report([], CONFIG).summary
        assert summary.requirement_count == 0
        assert summary.flagged_count == 0
        assert summary.degenerate_count == 0
        assert summary.metrics["ARI"] == (0, 0.0, 0)

    def test_degenerate_entries_excluded_from_stats(self):
        report = make_report()
        summary = report.summary
        assert summary.requirement_count == 3
        assert summary.degenerate_count == 1
        # stats over R1 (V=3, NW=8) and R3 (V=0, NW=7) only
        assert summary.metrics["V"] == (0, 1.5, 3)
        assert summary.metrics["NW"] == (7, 7.5, 8)

    def test_flagged_count(self):
        assert make_report().summary.flagged_count == 2

    def test_mean_is_rounded_once(self):
        # Ten 0.1s add up to 0.9999999999999999 with sum() before Python
        # 3.12, which made the mean, and the JSON report, depend on the
        # interpreter version.
        vector = MetricVector((0,) * 8 + (0.1,), False, ())
        entries = [RequirementEntry(f"R{i}", vector, ()) for i in range(10)]
        assert reporting._summarize(entries).metrics["ARI"] == (0.1, 0.1, 0.1)

    def test_only_degenerate_entries_zero_the_stats(self):
        report = build_report([Requirement(id="R1", text="", row=2)], CONFIG)
        summary = report.summary
        assert summary.degenerate_count == 1
        assert summary.requirement_count == 1
        assert all(stat == (0, 0.0, 0) for stat in summary.metrics.values())


class TestBuildReport:
    def test_corpus_order_and_flags(self):
        report = make_report()
        assert [entry.id for entry in report.entries] == ["R1", "R2", "R3"]
        assert report.entries[0].flags == ("V",)
        assert report.entries[1].flags == ()
        assert report.entries[2].flags == ("NR1",)

    def test_degenerate_entry_carries_warning(self):
        report = make_report()
        assert [entry.vector.degenerate for entry in report.entries] == [False, True, False]
        warnings = [entry["warnings"] for entry in json.loads(render(report, "json"))["requirements"]]
        assert warnings == [[], ["requirement text contains no words"], []]

    def test_report_carries_the_package_version(self):
        payload = json.loads(render(make_report(), "json"))
        assert (payload["tool"], payload["version"]) == ("reqsmell", __version__)

    def test_config_snapshot(self):
        mapping = ColumnMapping(id_column="Key")
        report = make_report(column_mapping=mapping)
        assert report.column_mapping is mapping
        assert report.rules == RULES
        # The report holds the analysis's own config, its dictionaries in
        # report order.
        assert report.config is CONFIG
        assert list(report.config.dictionaries) == list(DICTIONARY_METRICS)
        info = report.config.dictionaries["O"]
        assert info.origin == BUILTIN
        assert len(info.patterns) == 3

    def test_rules_from_an_iterator_are_applied_and_listed(self):
        report = make_report(rules=iter(RULES))
        assert report.rules == RULES
        assert [entry.flags for entry in report.entries] == [("V",), (), ("NR1",)]


class TestRenderJson:
    def test_top_level_key_order(self):
        payload = json.loads(render(make_report(), "json"))
        assert list(payload) == ["tool", "version", "config", "summary", "requirements"]

    def test_entry_shape(self):
        payload = json.loads(render(make_report(), "json"))
        entry = payload["requirements"][0]
        assert list(entry) == ["id", "metrics", "spans", "flags", "warnings"]
        assert entry["id"] == "R1"
        assert entry["metrics"]["V"] == 3
        assert entry["metrics"]["ARI"] == pytest.approx(49.625)
        assert {"metric": "V", "phrase": "based on", "start": 4, "end": 6} in entry["spans"]
        assert entry["flags"] == ["V"]

    def test_byte_determinism(self):
        assert render(make_report(), "json") == render(make_report(), "json")

    def test_non_ascii_survives(self):
        corpus = [Requirement(id="Ä1", text="systemet kan må bra", row=2)]
        raw = render(build_report(corpus, CONFIG), "json")
        assert "Ä1".encode("utf-8") in raw
        assert json.loads(raw)["requirements"][0]["id"] == "Ä1"


def _reference_json(report):
    """The report through json.dumps, which the JSON writer must equal."""
    mapping = report.column_mapping
    config_payload = {
        "column_mapping": None if mapping is None else {
            "id_column": mapping.id_column,
            "text_column": mapping.text_column,
            "delimiter": mapping.delimiter,
        },
        "dictionaries": {
            metric: {"origin": info.origin, "pattern_count": len(info.patterns)}
            for metric, info in report.config.dictionaries.items()
        },
        "thresholds": [
            {"metric": rule.metric_id, "comparator": rule.comparator, "limit": rule.limit}
            for rule in report.rules
        ],
    }
    summary = report.summary
    payload = {
        "tool": "reqsmell",
        "version": __version__,
        "config": config_payload,
        "summary": {
            "requirement_count": summary.requirement_count,
            "flagged_count": summary.flagged_count,
            "degenerate_count": summary.degenerate_count,
            "metrics": {
                metric: {"min": stat.minimum, "mean": stat.mean, "max": stat.maximum}
                for metric, stat in summary.metrics.items()
            },
        },
        "requirements": [
            {
                "id": entry.id,
                "metrics": entry.vector.as_dict(),
                "spans": [
                    {"metric": metric, "phrase": phrase, "start": start, "end": end}
                    for metric, phrase, start, end in entry.vector.spans
                ],
                "flags": list(entry.flags),
                "warnings": ["requirement text contains no words"] if entry.vector.degenerate else [],
            }
            for entry in report.entries
        ],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


class TestRenderJsonEncoding:
    # Quote, backslash, control, non-ASCII and astral characters.
    AWKWARD = 'q"uote back\\slash tab\t nl\n bell\x07 del\x7f ä€ \u2028 \U0001F600'

    def _awkward_report(self, **kwargs):
        report = make_report(
            requirements=CORPUS + [Requirement(id=self.AWKWARD, text="may; may", row=5)],
            **kwargs,
        )
        vector = report.entries[-1].vector
        spans = tuple(
            (metric, phrase + self.AWKWARD, start, end) for metric, phrase, start, end in vector.spans
        )
        spans += (("V", self.AWKWARD, 0, 1),)
        entry = RequirementEntry(
            id=self.AWKWARD,
            vector=vector._replace(spans=spans),
            flags=("V", "ARI"),
        )
        return report._replace(entries=report.entries + (entry,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"column_mapping": ColumnMapping("Key", "Body", "\t")},
            {"column_mapping": None},
            {"rules": ()},
        ],
    )
    def test_equals_json_dumps_reference(self, kwargs):
        report = self._awkward_report(**kwargs)
        assert any(not entry.flags for entry in report.entries)
        assert any(entry.vector.degenerate for entry in report.entries)
        assert render(report, "json") == _reference_json(report)

    def test_empty_corpus_equals_reference(self):
        report = make_report(requirements=[])
        assert render(report, "json") == _reference_json(report)
        assert json.loads(render(report, "json"))["requirements"] == []


class TestRenderCsv:
    def test_header(self):
        first_line = render(make_report(), "csv").decode("utf-8").splitlines()[0]
        assert first_line == "id,V,NR1,NR2,O,S,W,NC,NW,ARI,flags"

    def test_values_and_flags(self):
        rows = list(csv.DictReader(io.StringIO(render(make_report(), "csv").decode("utf-8"))))
        assert rows[0]["id"] == "R1"
        assert rows[0]["V"] == "3"
        assert rows[0]["ARI"] == "49.625"
        assert rows[0]["flags"] == "V"
        assert rows[1]["ARI"] == "0.0"
        assert rows[2]["flags"] == "NR1"

    def test_multiple_flags_joined_with_semicolon(self):
        rules = parse_threshold_rules(["V >= 1", "O >= 1"])
        report = build_report(CORPUS, CONFIG, rules=rules)
        rows = list(csv.DictReader(io.StringIO(render(report, "csv").decode("utf-8"))))
        assert rows[0]["flags"] == "V;O"

    def test_float_cells_round_trip_exactly(self):
        report = make_report()
        rows = list(csv.DictReader(io.StringIO(render(report, "csv").decode("utf-8"))))
        for row, entry in zip(rows, report.entries):
            assert float(row["ARI"]) == entry.vector.value("ARI")

    def test_unix_line_endings(self):
        raw = render(make_report(), "csv")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_byte_determinism(self):
        assert render(make_report(), "csv") == render(make_report(), "csv")


class TestRenderTable:
    def test_structure(self):
        lines = render(make_report(), "table").decode("utf-8").splitlines()
        assert lines[0].split() == ["id", *ALL_METRICS, "flags"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("R1")
        assert "49.62" in lines[2]

    def test_summary_block(self):
        text = render(make_report(), "table").decode("utf-8")
        assert "requirements: 3  flagged: 2  degenerate: 1" in text
        assert "metric     min    mean     max" in text
        assert "V         0.00    1.50    3.00" in text

    def test_byte_determinism(self):
        assert render(make_report(), "table") == render(make_report(), "table")

    def test_non_printable_id_characters_are_escaped(self):
        ids = ["R\n1", "R\r\n2", "R\x853", "R\u20284", "R\t5", "R\x006", "Ré 7"]
        report = make_report(
            requirements=[Requirement(id=i, text="may", row=n) for n, i in enumerate(ids, 2)]
        )
        lines = render(report, "table").decode("utf-8").splitlines()
        rows = lines[2:len(ids) + 2]
        assert lines[len(ids) + 2] == ""
        width = len(lines[1].split()[0])
        assert [row[:width].rstrip() for row in rows] == [
            "R\\n1", "R\\r\\n2", "R\\x853", "R\\u20284", "R\\t5", "R\\x006", "Ré 7",
        ]
        # Same values in every row, so equal lengths mean aligned columns.
        assert len({len(row) for row in rows}) == 1

    def test_wide_and_combining_id_characters_keep_columns_aligned(self):
        # Each id with its terminal columns minus its code points: CJK
        # ideographs take two columns, a combining accent none.
        ids = {"你好你好": 4, "R1": 0, "Re\u0301": -1}
        report = make_report(
            requirements=[Requirement(id=i, text="may", row=n) for n, i in enumerate(ids, 2)]
        )
        lines = render(report, "table").decode("utf-8").splitlines()
        nw = 1 + ALL_METRICS.index("NW")
        ends = [
            [m.end() for m in re.finditer(r"\S+", line)][nw] + extra
            for line, extra in zip(lines, [0, 0, *ids.values()])
        ]
        assert ends == [ends[0]] * 5


class TestFormatAgreement:
    def test_csv_and_json_report_the_same_metric_values(self):
        report = make_report()
        entries = json.loads(render(report, "json"))["requirements"]
        rows = list(csv.DictReader(io.StringIO(render(report, "csv").decode("utf-8"))))
        assert len(entries) == len(rows)
        for entry, row in zip(entries, rows):
            assert entry["id"] == row["id"]
            assert entry["flags"] == (row["flags"].split(";") if row["flags"] else [])
            for metric in ALL_METRICS:
                parsed = float(row[metric])
                assert parsed == entry["metrics"][metric]
                assert parsed == int(parsed) or metric == "ARI"


class TestValueColumns:
    # Nine distinct values, so a value read from the wrong column changes
    # every view below.
    VALUES = (2, 3, 5, 7, 11, 13, 17, 19, 23.5)

    def test_each_value_lands_in_its_column_everywhere(self, monkeypatch):
        vector = MetricVector(values=self.VALUES, degenerate=False, spans=())
        expected = dict(zip(ALL_METRICS, self.VALUES))
        assert {metric: vector.value(metric) for metric in ALL_METRICS} == expected
        assert vector.as_dict() == expected
        assert vector.counts == dict(zip(DICTIONARY_METRICS, self.VALUES))

        monkeypatch.setattr(reporting, "analyze_text", lambda text, config, spans: vector)
        # Each rule fires only on its own value or a larger one; any other
        # reading order puts a smaller value under some metric.
        rules = [ThresholdRule(metric, ">=", value) for metric, value in expected.items()]
        report = build_report([Requirement("R1", "text", 2)], CONFIG, rules)
        assert report.entries[0].flags == ALL_METRICS
        assert {m: tuple(s) for m, s in report.summary.metrics.items()} == {
            metric: (value, value, value) for metric, value in expected.items()
        }

        assert json.loads(render(report, "json"))["requirements"][0]["metrics"] == expected
        (row,) = csv.DictReader(io.StringIO(render(report, "csv").decode("utf-8")))
        assert {metric: row[metric] for metric in ALL_METRICS} == {
            metric: str(value) for metric, value in expected.items()
        }
        header, _, line = render(report, "table").decode("utf-8").splitlines()[:3]
        assert dict(zip(header.split(), line.split())) == {
            "id": "R1",
            **{metric: str(value) for metric, value in expected.items() if metric != "ARI"},
            "ARI": "23.50",
            "flags": ";".join(ALL_METRICS),
        }


class TestRenderJsonMemory:
    def test_peak_allocation_below_twice_the_report(self):
        sample = load_requirements(Path(__file__).parent / "data" / "sample_corpus.csv", ColumnMapping())
        requirements = [
            Requirement(f"R{index}", sample[index % len(sample)].text, index + 2)
            for index in range(300)
        ]
        report = build_report(requirements, CONFIG, RULES)
        render(report, "json")  # the first call imports json
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            size = len(render(report, "json"))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert size > 100_000
        assert peak < 2 * size


def _keyword_dense_requirements(rows=200):
    """Requirements of 40 built-in phrases each, slot patterns filled in."""
    phrases = sorted(
        " ".join(p.tokens) + (" implemented" if p.participle_slot else "")
        for dictionary in CONFIG.dictionaries.values()
        for p in dictionary.patterns
    )
    return [
        Requirement(f"K{i}", ", ".join(phrases[(i + j) % len(phrases)] for j in range(40)) + ".", i + 2)
        for i in range(rows)
    ]


class TestReportWithoutSpans:
    """``build_report(..., spans=False)`` only counts the matches."""

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("corpus", ["golden", "keyword-dense"])
    def test_csv_and_table_bytes_do_not_depend_on_spans(self, corpus):
        if corpus == "golden":
            requirements = load_requirements(self.DATA / "sample_corpus.csv", ColumnMapping())
            rules = load_threshold_file(self.DATA / "thresholds.txt")
        else:
            requirements, rules = _keyword_dense_requirements(), RULES
        spanned = build_report(requirements, CONFIG, rules)
        counted = build_report(requirements, CONFIG, rules, spans=False)
        assert spanned.with_spans and not counted.with_spans
        assert sum(len(entry.vector.spans) for entry in spanned.entries) > len(requirements)
        assert all(entry.vector.spans == () for entry in counted.entries)
        for fmt in ("csv", "table"):
            assert render(counted, fmt) == render(spanned, fmt)
        if corpus == "golden":
            assert render(counted, "csv") == (self.DATA / "golden_report.csv").read_bytes()

    def test_json_of_a_report_without_spans_is_an_error(self):
        report = make_report(spans=False)
        stream = io.BytesIO()
        with pytest.raises(ValueError, match="without spans"):
            write_report(report, "json", stream)
        assert stream.getvalue() == b""
        with pytest.raises(ValueError, match="without spans"):
            render(report, "json")


class TestSharedTuples:
    """A report keeps one tuple per distinct span and per distinct flag set."""

    def test_equal_spans_and_flags_are_one_object(self):
        report = build_report(_keyword_dense_requirements(), CONFIG, RULES)
        spans = [span for entry in report.entries for span in entry.vector.spans]
        assert len(spans) > 2 * len(set(spans))  # the corpus repeats its spans
        assert len(set(map(id, spans))) == len(set(spans))
        flags = [entry.flags for entry in report.entries]
        assert len(set(map(id, flags))) == len(set(flags)) < len(flags)

    def test_report_heap_of_keyword_dense_rows(self):
        requirements = _keyword_dense_requirements(2000)
        build_report(requirements[:1], CONFIG)  # the first call fills caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = build_report(requirements, CONFIG)
            heap = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        span_count = sum(len(entry.vector.spans) for entry in report.entries)
        assert span_count > 90_000
        # A span held by reference costs 8 bytes of its row's tuple; a span
        # tuple of its own costs about 80 more.
        assert heap < 32 * span_count


class TestRenderDispatch:
    def test_dispatch_matches_direct_calls(self, tmp_path):
        # write_report into a file, which is what the CLI does, writes the
        # bytes render returns, and leaves the stream open.
        report = make_report(requirements=CORPUS + [Requirement("Ä4", "may ä €", 5)])
        assert REPORT_FORMATS == ("json", "csv", "table")
        for fmt in REPORT_FORMATS:
            path = tmp_path / f"report.{fmt}"
            with open(path, "wb") as handle:
                write_report(report, fmt, handle)
                assert not handle.closed
            assert path.read_bytes() == render(report, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(make_report(), "xml")
        stream = io.BytesIO()
        with pytest.raises(ValueError):
            write_report(make_report(), "xml", stream)
        assert stream.getvalue() == b""


_PATTERN = PhrasePattern(("should", "have"), True)
_DICTIONARY = Dictionary("O", frozenset({PhrasePattern(("can",))}), "user-file")
_VECTOR = MetricVector((1, 0, 0, 0, 0, 0, 0, 3, 4.5), False, (("V", "may", 0, 1),))
_RULE = ThresholdRule("NW", ">", 40.0)
_ENTRY = RequirementEntry("R1", _VECTOR, ("V",))
_STAT = MetricSummary(0, 1.5, 3)
_SUMMARY = ReportSummary(1, 1, 0, {"NW": _STAT})
_STUB_CONFIG = AnalysisConfig({"O": _DICTIONARY}, None)

# Each value type with one value of it, its field names, its defaults and
# its repr. A field of AnalysisConfig or AnalysisReport holds a small stand-in
# here: the types do not check their fields.
VALUE_TYPES = [
    (_PATTERN, ("tokens", "participle_slot"), {"participle_slot": False},
     "PhrasePattern(tokens=('should', 'have'), participle_slot=True)"),
    (_DICTIONARY, ("metric_id", "patterns", "origin"), {"origin": "builtin"},
     "Dictionary(metric_id='O', patterns=frozenset({PhrasePattern(tokens=('can',), participle_slot=False)}), "
     "origin='user-file')"),
    (ColumnMapping(), ("id_column", "text_column", "delimiter"),
     {"id_column": "ID", "text_column": "Text", "delimiter": ","},
     "ColumnMapping(id_column='ID', text_column='Text', delimiter=',')"),
    (_RULE, ("metric_id", "comparator", "limit"), {},
     "ThresholdRule(metric_id='NW', comparator='>', limit=40.0)"),
    (Requirement("R1", "It runs.", 2), ("id", "text", "row"), {},
     "Requirement(id='R1', text='It runs.', row=2)"),
    (_VECTOR, ("values", "degenerate", "spans"), {},
     "MetricVector(values=(1, 0, 0, 0, 0, 0, 0, 3, 4.5), degenerate=False, spans=(('V', 'may', 0, 1),))"),
    (_STUB_CONFIG, ("dictionaries", "matcher"), {},
     f"AnalysisConfig(dictionaries={{'O': {_DICTIONARY!r}}}, matcher=None)"),
    (_ENTRY, ("id", "vector", "flags"), {},
     f"RequirementEntry(id='R1', vector={_VECTOR!r}, flags=('V',))"),
    (_STAT, ("minimum", "mean", "maximum"), {}, "MetricSummary(minimum=0, mean=1.5, maximum=3)"),
    (_SUMMARY, ("requirement_count", "flagged_count", "degenerate_count", "metrics"), {},
     "ReportSummary(requirement_count=1, flagged_count=1, degenerate_count=0, "
     "metrics={'NW': MetricSummary(minimum=0, mean=1.5, maximum=3)})"),
    (AnalysisReport(_STUB_CONFIG, (_RULE,), None, (_ENTRY,), _SUMMARY),
     ("config", "rules", "column_mapping", "entries", "summary", "with_spans"),
     {"with_spans": True},
     f"AnalysisReport(config={_STUB_CONFIG!r}, rules=({_RULE!r},), column_mapping=None, "
     f"entries=({_ENTRY!r},), summary={_SUMMARY!r}, with_spans=True)"),
]


class TestValueTypes:
    """The tuple contract of every value type the package builds."""

    @pytest.mark.parametrize("value, fields, defaults, text", VALUE_TYPES)
    def test_fields_defaults_and_repr(self, value, fields, defaults, text):
        assert isinstance(value, tuple)
        assert type(value)._fields == fields
        assert type(value)._field_defaults == defaults
        assert repr(value) == text

    @pytest.mark.parametrize("value", [case[0] for case in VALUE_TYPES])
    def test_no_attribute_can_be_set(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.note = "new attribute"

    @pytest.mark.parametrize("value", [case[0] for case in VALUE_TYPES])
    def test_pickle_and_copy_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert type(twin) is type(value)
            assert twin == value
