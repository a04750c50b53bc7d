"""Unit tests for normalization and the one-pass scan.

Per-token detail (letter counts, character offsets) exists only in the
reference tokenizer of ``oracle.py``; those cases check it there.
"""

import re
import tracemalloc

from reqsmell import text as text_module
from reqsmell.text import normalize, scan

from oracle import tokenize


def _words(text):
    return scan(text)[0]


def _sentences_of(text):
    words, ends, _ = scan(normalize(text))
    return words, ends


def _lengths(ends):
    return [end - start for start, end in zip([0] + ends, ends)]


class TestNormalize:
    def test_case_folds(self):
        assert normalize("Be Able TO") == "be able to"
        assert normalize("MAY") == "may"

    def test_empty(self):
        assert normalize("") == ""

    def test_idempotent(self):
        for text in ["Be Able TO", "straße", "CAFÉ", "İstanbul", "ﬃ"]:
            once = normalize(text)
            assert normalize(once) == once

    def test_composes_nfc(self):
        # "é" precomposed vs "e" + combining acute normalize identically
        assert normalize("caf\u00e9") == normalize("cafe\u0301")

    def test_casefold_that_ends_ascii_skips_nfc(self):
        # normalize tests for ASCII after casefolding, so text that folds
        # into ASCII (sharp s, Kelvin sign, ligature) takes the ASCII path.
        cases = {"STRASSE": "strasse", "straße": "strasse", "\u212a": "k", "\ufb01": "fi"}
        for text, folded in cases.items():
            assert normalize(text) == folded
            assert normalize(text).isascii()

    def test_casefold_that_stays_non_ascii_is_composed(self):
        # "İ" folds to "i" plus a combining dot, which has no composed form.
        assert normalize("\u0130") == "i\u0307"
        assert normalize("café") == "caf\u00e9"
        assert normalize("CAFE\u0301") == "caf\u00e9"


class TestPatterns:
    def test_patterns_compile_without_a_large_table(self):
        # re builds a 64 KB table for a character class holding a character
        # above U+00FF. scan compiles its patterns on first use, in the
        # middle of a run, where those temporaries raised peak RSS.
        for pattern in (text_module._STRAY, text_module._NON_ASCII, text_module._BLANK):
            re.purge()
            tracemalloc.start()
            try:
                re.compile(pattern)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32_000, pattern


class TestTokenize:
    def test_simple_words(self):
        words, _, letters = scan(normalize("the cat sat."))
        assert words == ["the", "cat", "sat"]
        assert letters == 9
        assert [tok.letter_count for tok in tokenize(normalize("the cat sat."))] == [3, 3, 3]

    def test_internal_apostrophe_and_hyphen(self):
        assert _words("don't re-use") == ["don't", "re-use"]

    def test_empty(self):
        assert scan("") == ([], [], 0)
        assert tokenize("") == []

    def test_digits_count_as_token_but_not_letters(self):
        words, _, letters = scan("3rd item 42")
        assert words == ["3rd", "item", "42"]
        assert letters == 6
        assert [tok.letter_count for tok in tokenize("3rd item 42")] == [2, 4, 0]

    def test_leading_trailing_punctuation_dropped(self):
        assert _words("'quoted' (word) -dash- a--b") == [
            "quoted", "word", "dash", "a", "b",
        ]

    def test_underscore_separates(self):
        assert _words("a_b") == ["a", "b"]

    def test_lone_surrogate_separates(self):
        # A scan that encodes before blanking raises UnicodeEncodeError here.
        assert scan(normalize("the pump may stop \ud800 or not")) == (
            ["the", "pump", "may", "stop", "or", "not"], [6], 19,
        )

    def test_offsets_point_into_source(self):
        text = normalize("see Figure 3.")
        for tok in tokenize(text):
            assert text[tok.start:tok.end] == tok.text


class TestSplitSentences:
    def test_three_terminators(self):
        _, ends = _sentences_of("a b. c d? e!")
        assert _lengths(ends) == [2, 2, 1]
        assert ends == [2, 4, 5]

    def test_no_terminator_is_one_sentence(self):
        _, ends = _sentences_of("no terminator here")
        assert ends == [3]

    def test_empty_text_has_no_sentences(self):
        _, sentences = _sentences_of("")
        assert sentences == []

    def test_semicolon_is_a_boundary(self):
        _, ends = _sentences_of("first part; second part")
        assert _lengths(ends) == [2, 2]

    def test_terminator_run_is_one_boundary(self):
        _, ends = _sentences_of("wait... then go?!")
        assert _lengths(ends) == [1, 2]

    def test_punctuation_only_text(self):
        _, sentences = _sentences_of("?! ...")
        assert sentences == []

    def test_partition_covers_all_tokens(self):
        words, ends = _sentences_of("a b. c; d e f! g")
        assert ends == [2, 3, 6, 7]
        assert all(length > 0 for length in _lengths(ends))
        assert ends[-1] == len(words)
