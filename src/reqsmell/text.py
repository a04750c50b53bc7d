"""Deterministic text normalization, tokenization, and sentence splitting.

Every metric in the package consumes the output of these functions, so all
of them are pure and produce identical results for identical inputs.
"""

import re
import unicodedata
from itertools import accumulate, chain

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


def normalize(text: str) -> str:
    """Case-fold and canonically compose (NFC) the given text.

    Idempotent, so dictionaries and requirement text normalized separately
    still compare equal token-by-token.
    """
    return unicodedata.normalize("NFC", text.casefold())


def scan(text: str) -> tuple[list[str], list[tuple[int, int]], int]:
    """Words, sentences and letter total of normalized ``text`` in one pass.

    Words are maximal alphanumeric runs; internal apostrophes and hyphens
    stay inside the word ("don't", "re-use"). A sentence boundary follows
    each run of '.', '!', '?' or ';', and each sentence is a half-open
    ``(start, end)`` range of word indices; sentences partition the words
    in order, and text without words has none. The letter total counts
    alphabetic characters only, so digits and joiners are excluded.

    Splitting at terminator runs first is exact because no word contains a
    terminator, and the letters can be counted over the whole text because
    every alphabetic character lies inside some word.
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
    return list(chain.from_iterable(segments)), list(zip([0] + ends, ends)), letters


def _ascii_words(segment: str) -> list[str]:
    """Words of one translated ASCII segment (see :data:`_ASCII_SCAN`)."""
    if "'" in segment or "-" in segment:
        return _TOKEN_RE.findall(segment)
    return segment.split()
