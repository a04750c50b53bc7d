"""Unit tests for the built-in dictionaries, the override loader, and the matcher."""

import pytest

from reqsmell import dictionaries
from reqsmell.dictionaries import (
    BUILTIN,
    DICTIONARY_METRICS,
    USER_FILE,
    Dictionary,
    PhraseMatcher,
    PhrasePattern,
    builtin_dictionaries,
    is_participle,
    load_dictionary_file,
)
from reqsmell.errors import MalformedFileError
from reqsmell.text import normalize

from oracle import naive_scan, tokenize


def _phrases(dictionary):
    return {p.phrase for p in dictionary.patterns}


class TestBuiltins:
    def test_metric_coverage(self):
        dictionaries = builtin_dictionaries()
        assert tuple(dictionaries) == DICTIONARY_METRICS
        for metric, dictionary in dictionaries.items():
            assert dictionary.metric_id == metric
            assert dictionary.origin == BUILTIN

    def test_optionality_exact(self):
        assert _phrases(builtin_dictionaries()["O"]) == {"can", "may", "optionally"}

    def test_weakness_has_12_entries_including_easy_to(self):
        weakness = _phrases(builtin_dictionaries()["W"])
        assert "easy to" in weakness
        assert "timely" in weakness
        assert len(weakness) == 12

    def test_document_references_include_see_variants(self):
        phrases = _phrases(builtin_dictionaries()["NR1"])
        assert "see document" in phrases
        assert "see" in phrases
        assert len(phrases) == 15

    def test_vagueness_split_between_literals_and_participles(self):
        vagueness = builtin_dictionaries()["V"]
        literals = {p for p in vagueness.patterns if not p.participle_slot}
        slots = {p for p in vagueness.patterns if p.participle_slot}
        assert len(literals) == 24
        assert {p.phrase for p in slots} == {"should have <PP>", "must have <PP>"}

    def test_conjunctions_cover_coordinating_set(self):
        conjunctions = _phrases(builtin_dictionaries()["NC"])
        assert {"and", "or", "but", "nor", "yet", "so", "for"} <= conjunctions
        assert len(conjunctions) == 21


class TestPatternTypes:
    def test_pattern_rejects_empty_tokens(self):
        with pytest.raises(ValueError):
            PhrasePattern(())
        with pytest.raises(ValueError):
            PhrasePattern(("ok", ""))

    def test_dictionary_rejects_empty_pattern_set(self):
        with pytest.raises(ValueError):
            Dictionary("O", frozenset())

    def test_dictionary_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            Dictionary("Q", frozenset({PhrasePattern(("can",))}))

    def test_dictionary_rejects_duplicate_token_lists(self):
        patterns = frozenset({
            PhrasePattern(("should", "have")),
            PhrasePattern(("should", "have"), participle_slot=True),
        })
        with pytest.raises(ValueError):
            Dictionary("V", patterns)

    def test_make_and_replace_validate(self):
        pattern = PhrasePattern(("may",))
        with pytest.raises(ValueError):
            PhrasePattern._make(((), False))
        with pytest.raises(ValueError):
            pattern._replace(tokens=("ok", ""))
        dictionary = Dictionary("O", frozenset({pattern}))
        with pytest.raises(ValueError):
            Dictionary._make(("Q", frozenset({pattern}), USER_FILE))
        with pytest.raises(ValueError):
            dictionary._replace(patterns=frozenset())
        assert dictionary._replace(origin=USER_FILE) == Dictionary("O", frozenset({pattern}), USER_FILE)

    def test_types_are_immutable(self):
        pattern = PhrasePattern(("may",))
        with pytest.raises(AttributeError):
            pattern.participle_slot = True
        with pytest.raises(AttributeError):
            pattern.note = "new attribute"


class TestParticipleHeuristic:
    def test_suffix_forms(self):
        assert is_participle("implemented")
        assert is_participle("taken")

    def test_irregular_forms(self):
        assert is_participle("done")
        assert is_participle("built")
        assert is_participle("understood")

    def test_non_participles(self):
        assert not is_participle("value")
        assert not is_participle("run2")


class TestLoader:
    def test_section_replaces_only_that_metric(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[O]\ncan\n", encoding="utf-8")
        loaded = load_dictionary_file(path)
        assert _phrases(loaded["O"]) == {"can"}
        assert loaded["O"].origin == USER_FILE
        builtins = builtin_dictionaries()
        for metric in ("V", "NR1", "NR2", "S", "W", "NC"):
            assert loaded[metric].patterns == builtins[metric].patterns
            assert loaded[metric].origin == BUILTIN

    @pytest.mark.parametrize("sections, built", [(DICTIONARY_METRICS, 0), (("NC",), 6)])
    def test_builds_only_the_built_ins_the_file_leaves_out(
        self, tmp_path, monkeypatch, sections, built
    ):
        calls = []
        real = dictionaries._builtin
        monkeypatch.setattr(
            dictionaries, "_builtin", lambda metric, phrases: calls.append(metric) or real(metric, phrases)
        )
        path = tmp_path / "dict.txt"
        # Sections in reverse report order: the result is still in report order.
        path.write_text("".join(f"[{m}]\nzzz\n" for m in reversed(sections)), encoding="utf-8")
        loaded = load_dictionary_file(path)
        assert len(calls) == built
        assert list(loaded) == list(DICTIONARY_METRICS)
        assert [m for m in DICTIONARY_METRICS if loaded[m].origin == USER_FILE] == list(sections)

    def test_unknown_metric_rejected_with_line(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[X]\nwhatever\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 1
        assert "unknown metric" in str(info.value)

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\nmay\n[FOO]\nbar\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert str(info.value) == f"{path}: line 3: unknown metric 'FOO'"
        assert info.value.line == 3
        path.write_bytes(b"[V]\nm\xe9\n")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert str(info.value) == f"{path}: file is not valid UTF-8 (invalid continuation byte)"
        assert info.value.line is None

    def test_participle_placeholder_parsed(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\nshould have <PP>\n", encoding="utf-8")
        loaded = load_dictionary_file(path)
        (pattern,) = loaded["V"].patterns
        assert pattern.tokens == ("should", "have")
        assert pattern.participle_slot

    def test_placeholder_must_be_trailing(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\nshould <PP> have\n", encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_dictionary_file(path)

    @pytest.mark.parametrize(
        "phrase", ["should have<PP>", "should <pp>have", "<PP><PP>", "should have<PP> <PP>"]
    )
    def test_placeholder_glued_to_a_word_rejected(self, tmp_path, phrase):
        # Otherwise "should have<PP>" loads as the literal "should have pp".
        path = tmp_path / "dict.txt"
        path.write_text(f"[V]\nmay\n{phrase}\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3
        assert "as its own word" in str(info.value)

    def test_bare_placeholder_is_empty_phrase(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\n<PP>\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert "empty phrase" in str(info.value)

    def test_empty_section_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\n# only a comment\n[O]\ncan\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 1

    def test_trailing_empty_section_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[O]\ncan\n[V]\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3

    def test_duplicate_phrase_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[O]\ncan\nCAN\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3

    def test_a_phrase_repeats_only_within_its_own_section(self, tmp_path):
        # Duplicates are per section: one phrase may serve several metrics,
        # while a repeat inside one section fails at its own line.
        path = tmp_path / "dict.txt"
        path.write_text("[V]\nmay\n[O]\nmay\n", encoding="utf-8")
        loaded = load_dictionary_file(path)
        assert loaded["V"].patterns == loaded["O"].patterns == frozenset({PhrasePattern(("may",))})
        path.write_text("[V]\nmay\n[O]\nmay\ncan\nmay\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 6

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[O]\ncan\n[O]\nmay\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3

    def test_phrase_before_section_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("can\n[O]\nmay\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 1

    def test_phrases_are_normalized(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[S]\nAs Possible  # inline comment\n", encoding="utf-8")
        loaded = load_dictionary_file(path)
        (pattern,) = loaded["S"].patterns
        assert pattern.tokens == ("as", "possible")

    def test_bom_and_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_bytes("\ufeff\n[O]\n\ncan\n\n".encode("utf-8"))
        assert _phrases(load_dictionary_file(path)["O"]) == {"can"}

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dictionary_file(tmp_path / "nope.txt")

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, tmp_path, separator):
        # str.splitlines() would also break at these; a comment holding one
        # must stay a comment, and later line numbers must stay right.
        path = tmp_path / "dict.txt"
        path.write_bytes(f"# a{separator}b\n[V]\nmay\n".encode("utf-8"))
        assert _phrases(load_dictionary_file(path)["V"]) == {"may"}
        path.write_bytes(f"# a{separator}b\n[V]\nmay\n[XX]\n".encode("utf-8"))
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 4

    @pytest.mark.parametrize(
        "phrase",
        [
            "e.g.", "i.e.", "see ref. 3", "stop! now", "a; b", "should have. <PP>", "must have ; <PP>",
            # U+037E GREEK QUESTION MARK normalizes to ";".
            "a\u037eb", "must have \u037e <PP>",
        ],
    )
    def test_phrase_cut_into_sentences_rejected_with_line(self, tmp_path, phrase):
        path = tmp_path / "dict.txt"
        path.write_text(f"[NR2]\nfigure\n{phrase}\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3
        assert "sentence boundary" in str(info.value)

    def test_terminator_that_cuts_no_sentence_loads(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[NR2]\nsee note.\n...as such?!\n;must have <PP>\n", encoding="utf-8")
        assert _phrases(load_dictionary_file(path)["NR2"]) == {"see note", "as such", "must have <PP>"}


class TestPhraseParsing:
    def test_loaded_phrases_equal_tokenize_parse(self, tmp_path):
        # Slots, hyphens, apostrophes, terminators and non-ASCII letters.
        lines = [
            "Should-Have <PP>", "must have <pp>", "don't ever", "re-use as such;",
            "see ref 3!", "it’s  Café", "up-to-date?", "x_y z",
        ]
        path = tmp_path / "dict.txt"
        path.write_text("[V]\n" + "\n".join(lines) + "\n", encoding="utf-8")
        expected = set()
        for line in lines:
            fields = line.split()
            slot = fields[-1].upper() == "<PP>"
            text = normalize(" ".join(fields[:-1] if slot else fields))
            expected.add(PhrasePattern(tuple(tok.text for tok in tokenize(text)), slot))
        assert load_dictionary_file(path)["V"].patterns == frozenset(expected)

    def test_mixed_case_placeholder_inside_phrase_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("[V]\nmay\nshould <pP> have <PP>\n", encoding="utf-8")
        with pytest.raises(MalformedFileError) as info:
            load_dictionary_file(path)
        assert info.value.line == 3
        assert "<PP> is only allowed at the end of a phrase" in str(info.value)


class TestMatcher:
    def _matcher(self, *phrases, slots=()):
        patterns = {PhrasePattern(tuple(p.split()), False) for p in phrases}
        patterns |= {PhrasePattern(tuple(p.split()), True) for p in slots}
        return PhraseMatcher({"V": Dictionary("V", frozenset(patterns), USER_FILE)})

    @staticmethod
    def _one_sentence(matcher, words):
        return matcher.find_matches(words, [len(words)])

    def test_longest_match_wins(self):
        # expected span verified against the brute-force scan below
        matcher = self._matcher("see", "see reference")
        words = ["see", "reference", "5"]
        assert self._one_sentence(matcher, words) == [[("V", "see reference", 0, 2)]]
        assert naive_scan(words, [(("see",), False), (("see", "reference"), False)]) == [
            (0, 2, "see reference")
        ]

    def test_adjacent_occurrences_both_count(self):
        matcher = PhraseMatcher({"O": builtin_dictionaries()["O"]})
        assert self._one_sentence(matcher, ["can", "can"]) == [[
            ("O", "can", 0, 1),
            ("O", "can", 1, 2),
        ]]

    def test_consumed_tokens_do_not_rematch(self):
        matcher = self._matcher("a b", "b c")
        assert self._one_sentence(matcher, ["a", "b", "c"]) == [[("V", "a b", 0, 2)]]

    def test_slot_requires_participle(self):
        matcher = self._matcher(slots=["should have"])
        assert self._one_sentence(matcher, ["should", "have", "tested"]) == [[
            ("V", "should have tested", 0, 3)
        ]]
        assert self._one_sentence(matcher, ["should", "have", "tests"]) == [[]]

    def test_literal_beats_slot_of_equal_length(self):
        matcher = self._matcher("should have done", slots=["should have"])
        assert self._one_sentence(matcher, ["should", "have", "done"]) == [[
            ("V", "should have done", 0, 3)
        ]]

    def test_longer_literal_beats_shorter_slot(self):
        matcher = self._matcher("must have stopped fully", slots=["must have"])
        assert self._one_sentence(matcher, ["must", "have", "stopped", "fully"]) == [[
            ("V", "must have stopped fully", 0, 4)
        ]]

    def test_no_matches_on_empty_input(self):
        matcher = PhraseMatcher(builtin_dictionaries())
        assert matcher.find_matches([], []) == [[] for _ in DICTIONARY_METRICS]

    @pytest.mark.parametrize(
        "words, ends",
        [(["be", "able"], []), (["may", "may"], [1]), (["be", "able"], [5])],
        ids=["no-ends", "short", "past-the-words"],
    )
    def test_ends_that_do_not_end_at_the_word_count_are_refused(self, words, ends):
        matcher = PhraseMatcher(builtin_dictionaries())
        for spans in (True, False):
            with pytest.raises(ValueError, match=r"ends must rise to len\(words\)"):
                matcher.find_matches(words, ends, spans)

    def test_slot_does_not_take_participle_from_next_sentence(self):
        matcher = self._matcher("should", slots=["should have"])
        words = ["should", "have", "tested"]
        assert matcher.find_matches(words, [2, 3]) == [[("V", "should", 0, 1)]]
        assert matcher.find_matches(words, [3]) == [[("V", "should have tested", 0, 3)]]

    def test_literal_does_not_cross_sentence_break(self):
        matcher = self._matcher("see", "see reference")
        words = ["see", "reference", "see", "reference"]
        assert matcher.find_matches(words, [1, 3, 4]) == [[
            ("V", "see", 0, 1),
            ("V", "see", 2, 3),
        ]]

    def test_one_list_per_metric_in_dictionary_order(self):
        dictionaries = builtin_dictionaries()
        matcher = PhraseMatcher({"O": dictionaries["O"], "V": dictionaries["V"]})
        words = ["may", "be", "able", "to"]
        assert matcher.find_matches(words, [4]) == [
            [("O", "may", 0, 1)],
            [("V", "may", 0, 1), ("V", "be able to", 1, 4)],
        ]
