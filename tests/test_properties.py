"""Property-based tests for the analysis invariants.

Texts here are built three ways: arbitrary unicode and mostly-ASCII text for
the text-core properties, and keyword splices (dictionary phrases mixed with
filler) for the matcher properties, so the interesting code paths actually
fire. One command-line property draws CSV bytes and flag sets; another, in
each report format, draws well-formed corpora with valid flags.
"""

import contextlib
import csv
import io
import json
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from reqsmell.dictionaries import (
    DICTIONARY_METRICS,
    USER_FILE,
    Dictionary,
    PhrasePattern,
    builtin_dictionaries,
    load_dictionary_file,
)
from reqsmell.cli import run
from reqsmell.errors import MalformedFileError
from reqsmell.ingestion import Requirement
from reqsmell.metrics import ALL_METRICS, AnalysisConfig, analyze_text
from reqsmell.reporting import REPORT_FORMATS, ThresholdRule, build_report
from reqsmell.text import normalize, scan

from oracle import naive_metric_spans, split_sentences, tokenize

CONFIG = AnalysisConfig.default()

_BUILTINS = builtin_dictionaries()
_LITERAL_PHRASES = sorted(
    {p.phrase for d in _BUILTINS.values() for p in d.patterns if not p.participle_slot}
)
_SLOT_PHRASES = sorted(
    {" ".join(p.tokens) + " implemented" for d in _BUILTINS.values() for p in d.patterns if p.participle_slot}
)
_FILLER = ["system", "shall", "respond", "quickly", "robot", "värde", "x9", "it"]

words = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=0,
    max_size=12,
)

pieces = st.lists(
    st.tuples(
        st.sampled_from(_LITERAL_PHRASES + _SLOT_PHRASES + _FILLER),
        st.sampled_from([" ", ". ", "! ", "? ", "; ", ", "]),
    ),
    min_size=0,
    max_size=15,
)


def splice(parts):
    return "".join(phrase + sep for phrase, sep in parts)


class TestTextCore:
    @given(st.text())
    def test_normalize_is_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text())
    def test_normalize_is_nfc_of_casefold(self, text):
        assert normalize(text) == unicodedata.normalize("NFC", text.casefold())

    @given(st.text())
    def test_sentences_partition_tokens(self, text):
        words, ends, _ = scan(normalize(text))
        assert all(start < end for start, end in zip([0] + ends, ends))
        assert ends[-1:] == ([len(words)] if words else [])

    @given(pieces)
    def test_token_texts_ignore_case(self, parts):
        text = splice(parts)
        plain = scan(normalize(text))[0]
        upper = scan(normalize(text.upper()))[0]
        assert plain == upper

    @given(st.text())
    def test_token_offsets_point_into_text(self, text):
        normalized = normalize(text)
        for token in tokenize(normalized):
            assert normalized[token.start:token.end] == token.text
            assert token.letter_count <= len(token.text)


# Characters at the edges of the token and letter rules: combining marks,
# numerics that are not decimal digits, the underscore, both apostrophes,
# the hyphen, every terminator, lone surrogates (which st.characters() never
# draws) and non-ASCII separators that scan blanks before it encodes.
_EDGE_CHARACTERS = "a\u0301\u0308²½_'’-.!?; x9ßİﬃ\ud800\udfff°“–\u3000。"


# Mostly-ASCII texts: joiners alone, doubled, at word edges and inside
# words, the underscore, terminator runs, tabs, control characters, digits
# and mixed case, with an occasional non-ASCII letter, joiner, separator or
# lone surrogate, which scan must blank or keep without changing the rest.
_ASCII_PIECES = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=6),
    st.text(alphabet="aZ09'-_.!?; \t\x00\x0b\x1f\x7f", min_size=1, max_size=8),
    st.sampled_from(
        ["don't", "re-use", "a--b", "'x'", "-y-", "o''k", "3.14", "e.g.", "...", "?!", ";;", "a_b", "x\ty"]
    ),
)


def _with_one_character(parts, character, at):
    text = "".join(parts)
    at %= len(text) + 1
    return text[:at] + character + text[at:]


_ascii_heavy = st.builds(
    _with_one_character,
    st.lists(_ASCII_PIECES, max_size=20),
    st.sampled_from(["", "", "", "", "", "’", "é", "\ud800", "\udfff", "°", "“", "–", "\u3000", "。"]),
    st.integers(min_value=0),
)


class TestSinglePassScan:
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_EDGE_CHARACTERS))))
    # A "’" next to a stray ASCII joiner, an underscore, another "’" or a
    # combining mark: it joins only between two alphanumerics.
    @example("a’-b")
    @example("a-’b")
    @example("’a’")
    @example("a’’b")
    @example("a’_b")
    @example("x\u0301’b")
    @example("can’t re-use")
    def test_scan_equals_tokenize_split_and_letter_sums(self, text):
        normalized = normalize(text)
        tokens = tokenize(normalized)
        words, ends, letters = scan(normalized)
        assert words == [token.text for token in tokens]
        assert ends == [sentence.end for sentence in split_sentences(normalized, tokens)]
        assert letters == sum(token.letter_count for token in tokens)

    @given(_ascii_heavy)
    def test_ascii_path_equals_tokenize_split_and_letter_sums(self, text):
        tokens = tokenize(text)
        words, ends, letters = scan(text)
        assert words == [token.text for token in tokens]
        assert ends == [sentence.end for sentence in split_sentences(text, tokens)]
        assert letters == sum(token.letter_count for token in tokens)


# A user glossary that stresses the merged trie: phrases shared by several
# metrics, one metric's phrase a prefix of another's or of its own, a slot
# that extends a literal of the same metric, a literal that ties with a slot
# of the same metric, and slots after prefixes that other metrics extend.
_GLOSSARY_SPEC = {
    "V": ["may", "as soon as possible", "should", "should have <PP>", "should have done"],
    "NR1": ["see", "see the", "see the reference", "may be"],
    "NR2": ["as soon", "figure", "have done"],
    "O": ["may", "may be", "should have", "can"],
    "S": ["as", "as soon as", "be <PP>"],
    "W": ["be able", "be able to", "able to be <PP>", "should have done"],
    "NC": ["and", "or", "have <PP>"],
}


def _glossary():
    dictionaries = {}
    for metric, lines in _GLOSSARY_SPEC.items():
        patterns = set()
        for line in lines:
            slot = line.endswith(" <PP>")
            tokens = tuple(line.removesuffix(" <PP>").split())
            patterns.add(PhrasePattern(tokens, slot))
        dictionaries[metric] = Dictionary(metric, frozenset(patterns), USER_FILE)
    return dictionaries


_GLOSSARY = _glossary()
_GLOSSARY_CONFIG = AnalysisConfig.from_dictionaries(_GLOSSARY)
_GLOSSARY_PIECES = sorted(
    {line.replace("<PP>", participle)
     for lines in _GLOSSARY_SPEC.values()
     for line in lines
     for participle in ("done", "built")}
) + ["tested", "reference", "the", "system", "to"]


class TestMergedMatcher:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_GLOSSARY_PIECES),
                st.sampled_from([" ", " ", " ", ". ", "; ", ", "]),
            ),
            max_size=30,
        )
    )
    def test_user_glossary_agrees_with_brute_force_oracle(self, parts):
        text = splice(parts)
        vector = analyze_text(text, _GLOSSARY_CONFIG)
        for metric, dictionary in _GLOSSARY.items():
            observed = [
                (start, end, phrase) for m, phrase, start, end in vector.spans if m == metric
            ]
            assert observed == naive_metric_spans(text, dictionary)
            assert vector.value(metric) == len(observed)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_GLOSSARY_PIECES),
                st.sampled_from([" ", " ", ". ", "; ", ", "]),
            ),
            max_size=30,
        )
    )
    def test_one_call_per_text_equals_calls_per_sentence(self, parts):
        words, ends, _ = scan(normalize(splice(parts)))
        matcher = _GLOSSARY_CONFIG.matcher
        expected = [[] for _ in DICTIONARY_METRICS]
        for first, last in zip([0] + ends, ends):
            found = matcher.find_matches(words[first:last], [last - first])
            for merged, matches in zip(expected, found):
                merged += [(m, phrase, first + a, first + b) for m, phrase, a, b in matches]
        assert matcher.find_matches(words, ends) == expected

    @given(
        st.one_of(
            pieces.map(lambda parts: (CONFIG, splice(parts))),
            st.lists(
                st.tuples(
                    st.sampled_from(_GLOSSARY_PIECES),
                    st.sampled_from([" ", " ", ". ", "; ", ", "]),
                ),
                max_size=30,
            ).map(lambda parts: (_GLOSSARY_CONFIG, splice(parts))),
        )
    )
    def test_counting_without_spans_gives_the_same_values(self, case):
        # On the built-ins and on the <PP> glossary alike.
        config, text = case
        counted = analyze_text(text, config, spans=False)
        assert counted.values == analyze_text(text, config).values
        assert list(map(type, counted.values)) == [int] * 8 + [float]
        assert counted.spans == ()

    def test_spans_are_metric_major_then_positional(self):
        text = "and may be able to see the reference; may be done as in figure 2"
        vector = analyze_text(text, _GLOSSARY_CONFIG)
        keys = [(DICTIONARY_METRICS.index(metric), start) for metric, _, start, _ in vector.spans]
        assert keys == sorted(keys)
        assert {metric for metric, *_ in vector.spans} == set(DICTIONARY_METRICS)


class TestVectorInvariants:
    @given(pieces)
    def test_case_insensitivity(self, parts):
        text = splice(parts)
        lower = analyze_text(text, CONFIG)
        upper = analyze_text(text.upper(), CONFIG)
        assert lower.as_dict() == upper.as_dict()

    @given(pieces)
    def test_counts_match_span_totals_and_spans_stay_disjoint(self, parts):
        vector = analyze_text(splice(parts), CONFIG)
        for metric in DICTIONARY_METRICS:
            spans = [span for span in vector.spans if span[0] == metric]
            assert vector.value(metric) == len(spans)
            claimed: set[int] = set()
            for _, _, start, end in spans:
                assert 0 <= start < end <= vector.value("NW")
                indices = set(range(start, end))
                assert not indices & claimed
                claimed |= indices

    @given(pieces, pieces)
    def test_terminated_texts_are_additive(self, left, right):
        a = splice(left) + "."
        b = splice(right) + "."
        combined = analyze_text(a + " " + b, CONFIG)
        first = analyze_text(a, CONFIG)
        second = analyze_text(b, CONFIG)
        for metric in DICTIONARY_METRICS + ("NW",):
            assert combined.value(metric) == first.value(metric) + second.value(metric)

    @given(pieces)
    def test_matcher_agrees_with_brute_force_oracle(self, parts):
        text = splice(parts)
        vector = analyze_text(text, CONFIG)
        for metric, dictionary in _BUILTINS.items():
            observed = [
                (start, end, phrase) for m, phrase, start, end in vector.spans if m == metric
            ]
            assert observed == naive_metric_spans(text, dictionary)

    @given(
        words,
        st.sampled_from(DICTIONARY_METRICS),
        st.data(),
    )
    def test_appending_a_keyword_increases_its_count(self, body, metric, data):
        phrase = data.draw(
            st.sampled_from(
                sorted(
                    p.phrase if not p.participle_slot else " ".join(p.tokens) + " implemented"
                    for p in _BUILTINS[metric].patterns
                )
            )
        )
        base_text = " ".join(body)
        before = analyze_text(base_text, CONFIG).value(metric)
        after = analyze_text(base_text + ". " + phrase, CONFIG).value(metric)
        assert after >= before + 1

    @given(st.lists(st.permutations(["the", "big", "dog", "may", "run", "far"]), min_size=1, max_size=4))
    def test_ari_ignores_word_order_within_sentences(self, sentences):
        shuffled = ". ".join(" ".join(s) for s in sentences) + "."
        ordered = ". ".join(" ".join(sorted(s)) for s in sentences) + "."
        assert analyze_text(shuffled, CONFIG).value("ARI") == analyze_text(
            ordered, CONFIG
        ).value("ARI")


threshold_rules = st.lists(
    st.builds(
        ThresholdRule,
        st.sampled_from(ALL_METRICS),
        st.sampled_from([">", ">="]),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=6,
    unique_by=lambda rule: rule.metric_id,
)


def violated(vector, rules):
    """The metrics whose rule ``vector`` violates, in report order."""
    expected = []
    for metric in ALL_METRICS:
        for rule in rules:
            if rule.metric_id != metric:
                continue
            value = vector.value(metric)
            hit = value > rule.limit if rule.comparator == ">" else value >= rule.limit
            if hit:
                expected.append(metric)
    return expected


class TestFlagSoundness:
    @given(pieces, threshold_rules)
    def test_flags_are_exactly_the_violated_rules(self, parts, rules):
        (entry,) = build_report([Requirement("R1", splice(parts), 2)], CONFIG, rules).entries
        assert list(entry.flags) == violated(entry.vector, rules)


class TestReportEntries:
    @given(st.lists(pieces, max_size=5), threshold_rules, st.booleans())
    def test_entries_equal_analyze_text_of_their_rows(self, rows, rules, spans):
        # Every text occurs twice, so the report meets equal spans and flags
        # in different rows.
        texts = [splice(parts) for parts in rows] * 2
        requirements = [Requirement(f"R{i}", text, i + 2) for i, text in enumerate(texts)]
        report = build_report(requirements, CONFIG, rules, spans=spans)
        assert [entry.id for entry in report.entries] == [r.id for r in requirements]
        for text, entry in zip(texts, report.entries):
            vector = analyze_text(text, CONFIG, spans=spans)
            assert entry.vector == vector  # values, degenerate and spans, by value
            assert list(entry.flags) == violated(vector, rules)


def _own_text(phrase: str, slot: bool) -> str:
    """A requirement text made of the phrase itself, a slot filled in."""
    return phrase + " done" if slot else phrase


class TestLoadedPatternsMatch:
    """Every pattern that loads matches its own text at least once. The
    loader builds its patterns without the constructor's check, so each one
    must also equal its rebuild through that check."""

    def test_builtin_patterns(self):
        for metric, dictionary in _BUILTINS.items():
            for pattern in dictionary.patterns:
                assert type(pattern) is PhrasePattern and pattern == PhrasePattern(*pattern), pattern
                text = _own_text(" ".join(pattern.tokens), pattern.participle_slot)
                assert analyze_text(text, CONFIG).value(metric) >= 1, (metric, text)

    def test_generated_patterns(self):
        loaded = []

        # One phrase per file, so a file that loads is that phrase's verdict.
        @settings(max_examples=150, deadline=None)
        @given(
            st.sampled_from(DICTIONARY_METRICS),
            st.text(alphabet="abAé '-,.!?;", min_size=1, max_size=10),
            st.booleans(),
        )
        def check(metric, phrase, slot):
            source = f"[{metric}]\n{phrase}{' <PP>' if slot else ''}\n"
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "dict.txt"
                path.write_text(source, encoding="utf-8")
                try:
                    config = AnalysisConfig.from_dictionaries(load_dictionary_file(path))
                except MalformedFileError:
                    reject()
            (pattern,) = config.dictionaries[metric].patterns
            assert type(pattern) is PhrasePattern and pattern == PhrasePattern(*pattern), source
            loaded.append((phrase, slot))
            text = _own_text(phrase, slot)
            assert analyze_text(text, config).value(metric) >= 1, (source, text)

        check()
        # The property holds only for files that load: enough drawn phrases
        # must, of each kind a loader could wrongly refuse.
        assert len(loaded) >= 100
        assert sum(len(scan(normalize(phrase))[0]) > 1 for phrase, _ in loaded) >= 5
        assert sum(any(t in phrase for t in ".!?;") for phrase, _ in loaded) >= 20
        assert sum(slot for _, slot in loaded) >= 20


# Pieces of one phrase line. Plain pieces are alphanumeric or whitespace;
# the others are joiners, an underscore, a combining mark after a space and
# line-separator whitespace; terminators come apart. NFC maps U+2000 to
# U+2002, and U+2028 and U+0085 stay inside a line of a dictionary file.
_PLAIN_PIECES = ["a", "Zq", "b7", "09", "\u00c9", "\u00df", "\u00b2", "\u0663", " ", " ", "\t", "\xa0", "\u2000"]
_OTHER_PIECES = ["_", "'", "-", "\u2019", " \u0301", "\u2028", "\x85"]
_TERMINATORS = [".", ";", "!", "?"]
_MARKERS = ["", "", "", " <PP>", " <pp>", "\t<Pp>", "<PP>", " <PP> x"]


def _reference_pattern(line: str) -> PhrasePattern | None:
    """The pattern that a phrase line (comment already cut) must load as,
    or None if it must be refused: the oracle's tokens of the normalized
    fields, a final ``<PP>`` field as a slot, and no phrase that the
    oracle cuts into two sentences."""
    fields = line.split()
    slot = bool(fields) and fields[-1].upper() == "<PP>"
    if slot:
        fields.pop()
    if any("<PP>" in field.upper() for field in fields):
        return None
    text = normalize(" ".join(fields))
    tokens = tuple(token.text for token in tokenize(text))
    whole = normalize(line)
    if not tokens or len(split_sentences(whole, tokenize(whole))) > 1:
        return None
    return PhrasePattern(tokens, slot)


class TestLoaderTokenization:
    """A phrase line loads as the tokens requirement text would give it."""

    def test_loaded_pattern_equals_the_reference(self):
        seen = {"plain": 0, "regex": 0, "slot": 0, "refused": 0}

        # One phrase per file, so a file that loads is that phrase's verdict.
        @settings(max_examples=300, deadline=None)
        @given(
            st.sampled_from(DICTIONARY_METRICS),
            st.one_of(
                st.lists(st.sampled_from(_PLAIN_PIECES), min_size=1, max_size=8),
                st.lists(st.sampled_from(_PLAIN_PIECES + _OTHER_PIECES), min_size=1, max_size=8),
                st.lists(st.sampled_from(_PLAIN_PIECES + _OTHER_PIECES + _TERMINATORS), min_size=1, max_size=8),
            ),
            st.sampled_from(_MARKERS),
            st.sampled_from(["", "#", " # <PP>; note", "#x.y"]),
        )
        def check(metric, pieces, marker, comment):
            line = "".join(pieces) + marker
            path.write_text(f"[{metric}]\n{line}{comment}\n", encoding="utf-8")
            expected = _reference_pattern(line)
            try:
                loaded = load_dictionary_file(path)[metric].patterns
            except MalformedFileError:
                loaded = None
            assert loaded == (None if expected is None else frozenset({expected})), repr(line)
            if expected is None:
                seen["refused"] += 1
            else:
                fields = line.split()[:-1] if expected.participle_slot else line.split()
                plain = "".join(normalize(" ".join(fields)).split()).isalnum()
                seen["plain" if plain else "regex"] += 1
                seen["slot"] += expected.participle_slot

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dict.txt"
            check()
        # Enough drawn lines must take each path of the loader, and be refused.
        assert min(seen.values()) >= 20, seen

    def test_loaded_tokens_are_those_of_scan(self):
        seen = {"loaded": 0, "slot": 0, "refused": 0}

        # One phrase per file, so a file that loads is that phrase's verdict.
        @settings(max_examples=200, deadline=None)
        @given(
            # A blank line is no phrase line at all.
            st.text(alphabet=list("abZ -'\u2019.;!?,/\u00e9\u0301\u00df\u00b0_9"), max_size=12).filter(str.strip),
            st.booleans(),
        )
        def check(text, slot):
            marker = " <PP>" if slot else ""
            path.write_text(f"[V]\n{text}{marker}\n", encoding="utf-8")
            words, sentences, _ = scan(normalize(text + marker))
            try:
                loaded = load_dictionary_file(path)["V"].patterns
            except MalformedFileError as exc:
                assert len(sentences) > 1 or words == (["pp"] if slot else []), repr(text)
                assert ("sentence boundary" if len(sentences) > 1 else "empty phrase") in str(exc)
                seen["refused"] += 1
                return
            assert len(sentences) == 1, repr(text)
            assert loaded == {PhrasePattern(tuple(scan(normalize(text))[0]), slot)}, repr(text)
            seen["loaded"] += 1
            seen["slot"] += slot

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dict.txt"
            check()
        assert min(seen.values()) >= 20, seen


# Inputs for the command line: CSV bytes from a few header shapes and a body
# of delimiters, quotes, line breaks, a NUL, non-ASCII and an invalid UTF-8
# byte, well-formed rows whose ids are any text, or plain random bytes; flag
# values that are valid, invalid, or point at files with good, malformed or
# undecodable content.
_CSV_HEADERS = [
    b"", b"ID,Text\n", b"ID;Text\r\n", b"\xef\xbb\xbfID,Text\n", b"Key\tBody\n", b"ID,Text,Extra\n", b"ID,ID\n",
]
_CSV_PIECES = [
    b"R1", b"R2", b"may", b"shall be done", b",", b";", b"\t", b'"', b'""', b"\n", b"\r\n", b" ", b"\x00",
    "\u00e9".encode(), b"\xff",
]


def _csv_rows(rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows([("ID", "Text"), *rows])
    return buffer.getvalue().encode("utf-8")


_csv_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(
        st.tuples(st.text(min_size=1, max_size=6), st.sampled_from(["may", "shall be done", ""])),
        max_size=5,
        unique_by=lambda row: row[0],
    ).map(_csv_rows),
    st.builds(
        bytes.__add__,
        st.sampled_from(_CSV_HEADERS),
        st.lists(st.sampled_from(_CSV_PIECES), max_size=30).map(b"".join),
    ),
)
_FILE_CONTENTS = [
    b"V >= 1\nNW > 3\n", b"V ~= 2\n", b"NW > nan\n", b"[V]\nmay\n", b"[V]\nmay <PP>\n[X]\n", b"\xff\xfe", b"",
]
# Each flag is present or not; a switch has the value None. --timestamp is
# no option, so it covers argparse's usage error.
_FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "--format": st.sampled_from(["json", "csv", "table", "xml"]),
        "--delimiter": st.sampled_from([",", ",", ";", "\\t", "\t", "|", '"', "\n", "ab"]),
        "--id-column": st.sampled_from(["ID", "Key", "Text", ""]),
        "--text-column": st.sampled_from(["Text", "Body", "ID"]),
        "--thresholds": st.sampled_from([*range(len(_FILE_CONTENTS)), ""]),
        "--dictionaries": st.sampled_from([*range(len(_FILE_CONTENTS)), ""]),
        "--output": st.sampled_from(["report.out", ".", "missing/report.out", "new\nline.out", "out\ndir", ""]),
        "--fail-on-flagged": st.none(),
        "--timestamp": st.none(),
    },
)


# Runs that ingestion accepts: a well-formed corpus of keyword texts and
# only valid flags, all but --format, so every run reaches the analysis.
_well_formed_run = st.tuples(
    st.lists(
        st.tuples(st.text(alphabet="R0123456789-é", min_size=1, max_size=6), pieces.map(splice)),
        max_size=8,
        unique_by=lambda row: row[0],
    ).map(_csv_rows),
    st.fixed_dictionaries(
        {},
        optional={
            "--thresholds": st.just(0),
            "--dictionaries": st.just(3),
            "--output": st.just("report.out"),
            "--fail-on-flagged": st.none(),
        },
    ),
    st.sampled_from(["", "line\nbreak "]),
)


def _check_report(fmt, report):
    if fmt == "table":
        # One line per requirement between the dashes and the first blank
        # line, whatever the ids hold.
        lines = report.decode("utf-8").splitlines()
        blank = lines.index("")
        assert set(lines[1]) <= {"-", " "}
        assert lines[blank + 1].startswith(f"requirements: {blank - 2} ")
    elif fmt == "json":
        # The JSON report holds every match's span.
        for entry in json.loads(report)["requirements"]:
            assert len(entry["spans"]) == sum(entry["metrics"][m] for m in DICTIONARY_METRICS)


class TestCommandLineRobustness:
    def test_every_input_ends_with_an_exit_code_and_one_diagnostic(self):
        @settings(max_examples=100, deadline=None)
        @given(_csv_bytes, _FLAGS, st.sampled_from([True, True, True, False]), st.sampled_from(["", "line\nbreak "]))
        def check(data, flags, with_input, prefix):
            code, report, diagnostics = _run_cli(data, flags, with_input, prefix)
            assert code in (0, 1, 2)
            if "" in (flags.get("--thresholds"), flags.get("--dictionaries"), flags.get("--output")):
                assert code == 1  # an empty path fails to open
            assert sum("error:" in line for line in diagnostics) <= 1
            if not any(line.startswith("usage:") for line in diagnostics):
                # Whatever the paths hold, each diagnostic is one line.
                assert all(line.startswith(("error: ", "warning: ")) for line in diagnostics)
            if code != 1:
                _check_report(flags.get("--format", "table"), report)

        check()

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_every_well_formed_run_is_analysed(self, fmt):
        @settings(max_examples=35, deadline=None)
        @given(_well_formed_run)
        def check(case):
            data, flags, prefix = case
            code, report, diagnostics = _run_cli(data, {"--format": fmt, **flags}, True, prefix)
            assert code in (0, 2), diagnostics
            assert all(line.startswith("warning: ") for line in diagnostics)
            _check_report(fmt, report)

        check()


def _run_cli(data, flags, with_input, prefix):
    """Run the CLI on ``data`` with ``flags`` in a fresh directory; return
    its exit code, its report bytes and its stderr lines."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "input.csv").write_bytes(data)
        (root / "out\ndir").mkdir()
        for index, content in enumerate(_FILE_CONTENTS):
            (root / f"{prefix}file{index}.txt").write_bytes(content)
        argv = ["--input", str(root / "input.csv")] if with_input else []
        for flag, value in flags.items():
            if value == "":
                pass  # an empty path is passed as it is
            elif flag in ("--thresholds", "--dictionaries"):
                value = root / f"{prefix}file{value}.txt"
            elif flag == "--output":
                value = root / value
            argv += [flag] if value is None else [flag, str(value)]
        if not flags:
            # Cover argparse's usage error with an unknown flag.
            argv.append("--bogus")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        report = stdout.buffer.getvalue()
        if code != 1 and "--output" in flags:
            report = (root / flags["--output"]).read_bytes()
    return code, report, stderr.getvalue().splitlines()
