"""Naive reference tokenizer and scanner used to cross-check the package.

The tokenizer builds one :class:`Token` per regex match and cuts sentences
by comparing token offsets with terminator runs; it shares no code with
``reqsmell.text.scan``. The scanner tries every pattern at every position
and resolves winners by explicit comparison, sharing no code with the trie
implementation. Same documented semantics: longest match wins, a literal
pattern beats a participle-slot pattern of the same length, matched tokens
are consumed, and matches never cross sentence boundaries.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from reqsmell.dictionaries import IRREGULAR_PARTICIPLES, Dictionary
from reqsmell.text import normalize

# A token is a maximal run of alphanumeric characters; apostrophes and
# hyphens are kept when they sit between alphanumerics ("don't", "re-use").
# [^\W_] is "word character minus underscore", i.e. Unicode alphanumeric.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

# A sentence boundary is a run of terminator characters.
_TERMINATOR_RE = re.compile(r"[.!?;]+")


class Token(NamedTuple):
    """One word of normalized text with its character span."""

    text: str
    letter_count: int
    start: int
    end: int


class Sentence(NamedTuple):
    """Half-open range [start, end) of token indices forming one sentence."""

    start: int
    end: int

    @property
    def token_count(self) -> int:
        return self.end - self.start


def tokenize(text: str) -> list[Token]:
    """Split normalized text into word tokens.

    Tokens are maximal alphanumeric runs; internal apostrophes and hyphens
    stay inside the token. ``letter_count`` counts alphabetic characters
    only, so digits and the joining punctuation are excluded.
    """
    return [
        Token(
            text=m.group(),
            letter_count=sum(1 for ch in m.group() if ch.isalpha()),
            start=m.start(),
            end=m.end(),
        )
        for m in _TOKEN_RE.finditer(text)
    ]


def split_sentences(text: str, tokens: list[Token]) -> list[Sentence]:
    """Group ``tokens`` into sentences of the normalized ``text``.

    A boundary occurs after each run of '.', '!', '?' or ';'. Text with
    tokens but no terminator forms exactly one sentence; tokenless text
    yields no sentences. Every token belongs to exactly one sentence.
    """
    sentences: list[Sentence] = []
    first = 0
    total = len(tokens)
    for match in _TERMINATOR_RE.finditer(text):
        cut = match.end()
        last = first
        while last < total and tokens[last].start < cut:
            last += 1
        if last > first:
            sentences.append(Sentence(first, last))
            first = last
    if first < total:
        sentences.append(Sentence(first, total))
    return sentences


def naive_is_participle(word: str) -> bool:
    return word.endswith("ed") or word.endswith("en") or word in IRREGULAR_PARTICIPLES


def _matches_at(words, i, tokens, slot) -> bool:
    end = i + len(tokens) + (1 if slot else 0)
    if end > len(words):
        return False
    for offset, expected in enumerate(tokens):
        if words[i + offset] != expected:
            return False
    if slot and not naive_is_participle(words[i + len(tokens)]):
        return False
    return True


def naive_scan(words, patterns) -> list[tuple[int, int, str]]:
    """Brute-force longest-match scan over one sentence's words.

    ``patterns`` is an iterable of (tokens, participle_slot) pairs.
    """
    pattern_list = sorted(patterns)
    spans: list[tuple[int, int, str]] = []
    i = 0
    while i < len(words):
        best_key = None
        best_span = None
        for tokens, slot in pattern_list:
            if not _matches_at(words, i, tokens, slot):
                continue
            length = len(tokens) + (1 if slot else 0)
            key = (length, 0 if slot else 1)
            if best_key is None or key > best_key:
                phrase = " ".join(words[i:i + length]) if slot else " ".join(tokens)
                best_key = key
                best_span = (i, i + length, phrase)
        if best_span is None:
            i += 1
        else:
            spans.append(best_span)
            i = best_span[1]
    return spans


def naive_metric_spans(text: str, dictionary: Dictionary) -> list[tuple[int, int, str]]:
    """Full naive pipeline for one metric: normalize, tokenize, scan per sentence."""
    normalized = normalize(text)
    tokens = tokenize(normalized)
    sentences = split_sentences(normalized, tokens)
    words = [tok.text for tok in tokens]
    patterns = [(p.tokens, p.participle_slot) for p in dictionary.patterns]
    spans: list[tuple[int, int, str]] = []
    for sentence in sentences:
        for start, end, phrase in naive_scan(words[sentence.start:sentence.end], patterns):
            spans.append((sentence.start + start, sentence.start + end, phrase))
    return spans
