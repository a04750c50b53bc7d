"""Deterministic text normalization, tokenization, and sentence splitting.

Every metric in the package consumes the output of these functions, so all
of them are pure and produce identical results for identical inputs.
"""

from itertools import accumulate, chain

from .errors import _Memo


def _compile(pattern: str):
    import re  # imported here: ASCII text without joiners compiles no pattern
    return re.compile(pattern)


# Each pattern below, compiled on first use; a later use is one C-level dict
# lookup. No class holds "’": one with a character above U+00FF costs 128 KB
# of temporaries to compile, which raised peak RSS when done mid-run.
_regex = _Memo(_compile)

# Characters outside ASCII, one match each, for the letter count.
_NON_ASCII = r"[^\x00-\x7f]"

# Characters outside ASCII that are not alphanumeric ([^\W_]), bar a "’"
# between two alphanumerics ("can’t"). scan blanks them with one linear sub
# on the str, before encoding, so a lone surrogate stays a separator.
_BLANK = r"[^\x00-\x7f\w](?:(?<!’)|(?<![^\W_]’)|(?![^\W_]))"

# An ASCII joiner (' or -) that does not sit between two alphanumerics. It
# starts with its class: one that starts with a lookaround or \B is tried
# at every position, and took six times as long on engineering prose.
_STRAY = r"['-](?:(?<![^\W_].)|(?![^\W_]))"

_ASCII_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

# For the UTF-8 of blanked text: terminators become ".", other ASCII bytes
# that are neither alphanumeric nor a joiner (' and -) become spaces, and
# bytes >= 0x80 stay, so it still decodes. Sentences are then the "."-cut
# segments, and words their whitespace runs once stray joiners are blanked.
_SCAN_TABLE = "".join(
    "." if c in ".!?;" else c if c.isalnum() or c in "'-" or c > "\x7f" else " "
    for c in map(chr, range(256))
).encode("latin-1")


def normalize(text: str) -> str:
    """Case-fold and canonically compose (NFC) the given text.

    Idempotent, so dictionaries and requirement text normalized separately
    still compare equal token-by-token.
    """
    text = text.casefold()
    if text.isascii():  # NFC leaves ASCII unchanged
        return text
    import unicodedata  # imported here: only non-ASCII text needs it
    return unicodedata.normalize("NFC", text)


def scan(text: str) -> tuple[list[str], list[int], int]:
    """Words, sentence ends and letter total of normalized ``text`` in one pass.

    Words are maximal alphanumeric runs; internal apostrophes and hyphens
    stay inside the word ("don't", "re-use"). A sentence ends after each run
    of '.', '!', '?' or ';', and its end is the index one past its last word:
    the ends rise strictly to ``len(words)``, and text without words has none.
    The letter total counts alphabetic characters only, not digits or joiners.

    One path for every text: one ``sub`` blanks the non-ASCII separators,
    one ``bytes.translate`` maps the UTF-8, one ``sub`` blanks the stray
    ASCII joiners if there are any, and two C-level splits cut it. Cutting
    at terminators is exact as no word holds one, and every alphabetic
    character lies inside some word.
    """
    letters = 0
    if not text.isascii():
        text = _regex[_BLANK].sub(" ", text)
        letters = sum(map(str.isalpha, _regex[_NON_ASCII].findall(text)))
    raw = text.encode()
    # Bytes count the ASCII letters ten times faster than str.isalpha.
    letters += len(raw) - len(raw.translate(None, _ASCII_LETTERS))
    cut = raw.translate(_SCAN_TABLE).decode()
    if "'" in cut or "-" in cut:
        cut = _regex[_STRAY].sub(" ", cut)
    segments = list(filter(None, map(str.split, cut.split("."))))
    return list(chain.from_iterable(segments)), list(accumulate(map(len, segments))), letters

