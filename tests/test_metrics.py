"""Unit tests for the metric engine: counting, readability, full vectors."""

import gc

import pytest

from reqsmell.dictionaries import DICTIONARY_METRICS, builtin_dictionaries
from reqsmell.ingestion import Requirement
from reqsmell.metrics import ALL_METRICS, AnalysisConfig, analyze_text
from reqsmell.text import normalize, scan

from oracle import naive_metric_spans

CONFIG = AnalysisConfig.default()


def _stats(text):
    """(words, sentences, letters, ARI) of ``text``, ARI from analyze_text."""
    words, sentences, letters = scan(normalize(text))
    return len(words), len(sentences), letters, analyze_text(text, CONFIG).value("ARI")


def _count(metric, text):
    spans = [span for span in analyze_text(text, CONFIG).spans if span[0] == metric]
    return len(spans), spans


class TestCountMatches:
    """Per-metric counting through analyze_text over the merged matcher."""

    def test_vagueness_scan(self):
        count, spans = _count("V", "the system may fail based on some conditions")
        assert count == 3
        assert [(phrase, start, end) for _, phrase, start, end in spans] == [
            ("may", 2, 3),
            ("based on", 4, 6),
            ("some", 6, 7),
        ]

    def test_empty_text(self):
        for metric in ("V", "NR1", "NR2", "O", "S", "W", "NC"):
            assert _count(metric, "") == (0, [])

    def test_longest_match_suppresses_nested_phrase(self):
        count, spans = _count("NR1", "see reference 5 and see document 2")
        assert count == 2
        assert [phrase for _, phrase, _, _ in spans] == ["see reference", "see document"]

    def test_participle_slot_records_concrete_token(self):
        count, spans = _count("V", "should have implemented")
        assert count == 1
        assert spans[0] == ("V", "should have implemented", 0, 3)

    def test_match_never_crosses_sentence_boundary(self):
        assert _count("V", "be able to run")[0] == 1
        assert _count("V", "be able. to run")[0] == 0

    def test_span_offsets_in_later_sentences(self):
        count, spans = _count("NR1", "may stop. see reference 2.")
        assert count == 1
        assert spans == [("NR1", "see reference", 2, 4)]

    def test_spans_disjoint_within_metric(self):
        _, spans = _count("V", "may be able to fail, based on some appropriate data")
        claimed = set()
        for _, _, start, end in spans:
            indices = set(range(start, end))
            assert not indices & claimed
            claimed |= indices

    def test_agrees_with_brute_force_scan(self):
        text = "the system may fail based on some conditions. see reference 2."
        _, spans = _count("V", text)
        expected = naive_metric_spans(text, builtin_dictionaries()["V"])
        assert [(start, end, phrase) for _, phrase, start, end in spans] == expected


class TestComputeReadability:
    """ARI = words / sentences + 9 * letters / words, as analyze_text
    computes it."""

    def test_single_sentence(self):
        # 3 words per sentence, 3 letters per word
        assert _stats("the cat sat.") == (3, 1, 9, 30.0)

    def test_two_sentences(self):
        # 2 words per sentence, 2 letters per word
        assert _stats("aa bb. cc dd.") == (4, 2, 8, 20.0)

    def test_empty_text(self):
        assert _stats("") == (0, 0, 0, 0.0)

    def test_digits_do_not_count_as_letters(self):
        assert _stats("ab1 cd.") == (2, 1, 4, 2.0 + 9.0 * 2.0)

    def test_fractional_average(self):
        # 8 words, 37 letters, one sentence: 8 + 9 * 37/8
        *_, ari = _stats("the system may fail based on some conditions")
        assert ari == pytest.approx(49.625, abs=1e-9)


class TestAnalyzeText:
    def test_optionality_counts_all_three(self):
        vector = analyze_text("can may optionally", CONFIG)
        assert vector.value("O") == 3

    def test_cross_metric_overlap_is_independent(self):
        vector = analyze_text("can may optionally", CONFIG)
        assert vector.value("V") == 1  # "may" sits on the vagueness list too
        assert vector.value("O") == 3

    def test_shared_phrase_counted_by_both_lists(self):
        vector = analyze_text("the function shall be able to run", CONFIG)
        assert vector.value("V") >= 1
        assert vector.value("W") >= 1

    def test_full_vector_for_vague_requirement(self):
        vector = analyze_text("the system may fail based on some conditions", CONFIG)
        assert vector.value("V") == 3
        assert vector.value("O") == 1
        assert vector.value("NW") == 8
        assert vector.value("ARI") == pytest.approx(49.625, abs=1e-9)
        assert not vector.degenerate

    def test_empty_text_is_degenerate(self):
        vector = analyze_text("", CONFIG)
        assert vector.degenerate
        assert vector.spans == ()
        assert vector.as_dict() == {metric: 0 for metric in ALL_METRICS}

    def test_punctuation_only_text_is_degenerate(self):
        assert analyze_text("... !!! ;;", CONFIG).degenerate

    def test_counts_equal_spans_per_metric(self):
        vector = analyze_text(
            "the user may optionally see reference 4 and note that tables are easy to read.",
            CONFIG,
        )
        for metric in ("V", "NR1", "NR2", "O", "S", "W", "NC"):
            observed = sum(1 for span in vector.spans if span[0] == metric)
            assert vector.value(metric) == observed

    def test_case_insensitive(self):
        text = "The System MAY respond Based On SOME conditions."
        upper = analyze_text(text.upper(), CONFIG)
        lower = analyze_text(text.lower(), CONFIG)
        assert upper.as_dict() == lower.as_dict()
        assert upper.spans == lower.spans

    def test_spans_are_untracked_after_collection(self):
        # A collection untracks an exact tuple whose items are all untracked;
        # a tuple subclass is never untracked, and every full collection
        # would walk every span of every report. Each collection untracks
        # one level of nesting: the spans, then the tuple holding them.
        vector = analyze_text("the user may see reference 4 and note the table.", CONFIG)
        assert len(vector.spans) >= 4
        gc.collect()
        assert not any(map(gc.is_tracked, vector.spans))
        gc.collect()
        assert not gc.is_tracked(vector.spans)

    def test_determinism(self):
        text = "see reference 2 and be able to have an effective, timely answer."
        assert analyze_text(text, CONFIG) == analyze_text(text, CONFIG)

    def test_as_dict_key_order(self):
        vector = analyze_text("words", CONFIG)
        assert tuple(vector.as_dict()) == ALL_METRICS

    def test_value_rejects_unknown_metric(self):
        vector = analyze_text("words", CONFIG)
        with pytest.raises(KeyError):
            vector.value("XYZ")


class TestAnalyzeRequirement:
    def test_analyzes_requirement_text(self):
        requirement = Requirement(id="R1", text="can may optionally", row=2)
        assert analyze_text(requirement.text, CONFIG).counts["O"] == 3


class TestAnalysisConfig:
    def test_default_covers_every_dictionary_metric(self):
        for metric in ("V", "NR1", "NR2", "O", "S", "W", "NC"):
            assert metric in CONFIG.dictionaries
        words = "see reference and may be able to".split()
        found = CONFIG.matcher.find_matches(words, [len(words)])
        hit = {metric for metric, matches in zip(DICTIONARY_METRICS, found) if matches}
        assert hit == {"NR1", "NC", "V", "O", "W"}

    def test_from_dictionaries_requires_full_set(self):
        partial = {"O": builtin_dictionaries()["O"]}
        with pytest.raises(ValueError):
            AnalysisConfig.from_dictionaries(partial)
