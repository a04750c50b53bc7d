"""Deterministic text normalization, tokenization, and sentence splitting.

Every metric in the package consumes the output of these functions, so all
of them are pure and produce identical results for identical inputs.
"""

import re
import unicodedata
from functools import partial
from itertools import accumulate, chain
from typing import NamedTuple

# A token is a maximal run of alphanumeric characters; apostrophes and
# hyphens are kept when they sit between alphanumerics ("don't", "re-use").
# [^\W_] is "word character minus underscore", i.e. Unicode alphanumeric.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

# A sentence boundary is a run of terminator characters.
_TERMINATOR_RE = re.compile(r"[.!?;]+")

# Characters outside ASCII, one match each, for the letter count.
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")

_ASCII_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

# For ASCII text: every terminator becomes ".", every other character that
# is neither alphanumeric nor a joiner (apostrophe, hyphen) becomes a space.
# Sentences are then the "."-separated segments and, in a segment without
# joiners, words are its whitespace-separated runs.
_ASCII_SCAN = {
    ord(c): "." if c in ".!?;" else c if c.isalnum() or c in "'-" else " "
    for c in map(chr, range(128))
}


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


# Sentence from a (start, end) pair, without a Python-level __new__ call.
_sentence = partial(tuple.__new__, Sentence)


def normalize(text: str) -> str:
    """Case-fold and canonically compose (NFC) the given text.

    Idempotent, so dictionaries and requirement text normalized separately
    still compare equal token-by-token.
    """
    return unicodedata.normalize("NFC", text.casefold())


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


def scan(text: str) -> tuple[list[str], list[Sentence], int]:
    """Words, sentences and letter total of normalized ``text`` in one pass.

    Equal to the token texts of :func:`tokenize`, the ranges of
    :func:`split_sentences` and the sum of the tokens' ``letter_count``,
    without building :class:`Token` objects. Splitting at terminator runs
    first is exact because no token contains a terminator, and the letters
    can be counted over the whole text because every alphabetic character
    lies inside some token.
    """
    raw = text.encode("ascii", "ignore")
    # ASCII letters are the only alphabetic ASCII characters, so bytes count
    # them about ten times faster than str.isalpha; only the other
    # characters need the Unicode test.
    letters = len(raw) - len(raw.translate(None, _ASCII_LETTERS))
    if text.isascii():
        # One translate and two C-level splits; only a segment with a joiner
        # needs the token regex, to keep "don't" whole and drop a stray "-".
        cut = text.translate(_ASCII_SCAN)
        split = _ascii_words if "'" in cut or "-" in cut else str.split
        segments = list(filter(None, map(split, cut.split("."))))
    else:
        # Outside ASCII, str.translate leaves its fast path and measured
        # slower than the regex.
        segments = list(filter(None, map(_TOKEN_RE.findall, _TERMINATOR_RE.split(text))))
        letters += sum(map(str.isalpha, _NON_ASCII_RE.findall(text)))
    ends = list(accumulate(map(len, segments)))
    sentences = list(map(_sentence, zip([0] + ends, ends)))
    return list(chain.from_iterable(segments)), sentences, letters


def _ascii_words(segment: str) -> list[str]:
    """Words of one translated ASCII segment (see :data:`_ASCII_SCAN`)."""
    if "'" in segment or "-" in segment:
        return _TOKEN_RE.findall(segment)
    return segment.split()
