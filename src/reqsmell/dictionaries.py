"""Keyword dictionaries for the smell metrics, plus the phrase matcher.

Each metric with a keyword list gets one :class:`Dictionary` of compiled
:class:`PhrasePattern` entries; one :class:`PhraseMatcher` serves all of
them with a single trie walk per token position. The built-in lists ship
with the package; a user-supplied override file can replace any of them
per metric.

Matching semantics (shared by the matcher and all its tests): scan a token
sequence left to right; at each position the longest matching pattern wins
and its tokens are consumed, so patterns of one metric never overlap. A
literal pattern beats a participle-slot pattern of the same length.
"""

import os
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import MalformedDictionaryError, ValidatedTuple
from .text import _TOKEN_RE, normalize

# Metric identifiers, in report order. These are part of the file-format and
# report contracts (section headers, CSV columns), not abbreviations of ours.
DICTIONARY_METRICS = ("V", "NR1", "NR2", "O", "S", "W", "NC")

BUILTIN = "builtin"
USER_FILE = "user-file"

# Marker for "one past-participle token follows" at the end of a phrase line.
PARTICIPLE_MARKER = "<PP>"

# V: words and phrases that admit several readings.
_VAGUENESS_PHRASES = (
    "may", "could", "has to", "have to", "might", "will",
    "all the other", "all other", "based on", "some", "appropriate",
    "as a", "as an", "a minimum", "up to", "adequate", "as applicable",
    "be able to", "be capable", "but not limited to", "capability of",
    "capability to", "effective", "normal",
)
# V, continued: "should have"/"must have" followed by a past participle.
_VAGUENESS_PARTICIPLE_PREFIXES = ("should have", "must have")

# NR1: phrases that point the reader at another document.
_DOCUMENT_REFERENCE_PHRASES = (
    "defined in reference", "defined in the reference",
    "specified in reference", "specified in the reference",
    "specified by reference", "specified by the reference",
    "see reference", "see the reference",
    "refer to reference", "refer to the reference",
    "further reference", "follow reference", "follow the reference",
    "see document",
    "see",
)

# NR2: pointers to figures, tables, notes, examples.
_NOTATION_REFERENCE_PHRASES = ("for example", "figure", "table", "note")

# O: words that leave implementers latitude.
_OPTIONALITY_PHRASES = ("can", "may", "optionally")

# S: personal opinion or relative judgment.
_SUBJECTIVITY_PHRASES = (
    "similar", "better", "similarly", "worse",
    "having in mind", "take into account", "take into consideration",
    "as possible",
)

# W: phrases that weaken a statement by leaving room for interpretation.
_WEAKNESS_PHRASES = (
    "adequate", "as appropriate", "be able to", "be capable of",
    "capability of", "capability to", "effective", "as required",
    "normal", "provide for", "timely", "easy to",
)

# NC: default conjunction list; coordinating plus common subordinating.
# Replaceable through a dictionary override file.
_CONJUNCTION_PHRASES = (
    "and", "or", "but", "nor", "yet", "so", "for",
    "although", "because", "since", "unless", "until", "while", "whereas",
    "if", "when", "whenever", "after", "before", "once", "though",
)

# Irregular past participles that the ed/en suffix check misses. Used by the
# participle-slot heuristic; redundant -ed/-en forms are harmless here.
IRREGULAR_PARTICIPLES = frozenset({
    "done", "made", "given", "taken", "set", "put", "built", "written",
    "shown", "begun", "bent", "bet", "bound", "bought", "brought", "burnt",
    "burst", "cast", "caught", "come", "cost", "cut", "dealt", "drawn",
    "drunk", "dug", "fed", "felt", "flown", "fought", "found", "gone",
    "got", "grown", "had", "heard", "held", "hit", "hung", "hurt", "kept",
    "known", "laid", "lain", "learnt", "led", "left", "lent", "let", "lit",
    "lost", "meant", "met", "paid", "read", "run", "said", "sat", "sent",
    "shot", "shut", "slept", "sold", "spent", "split", "spread", "spun",
    "stood", "struck", "sung", "sunk", "swum", "taught", "thought",
    "thrown", "told", "understood", "won", "worn", "wound",
})


def is_participle(word: str) -> bool:
    """Heuristic past-participle test: -ed/-en suffix or known irregular."""
    return word.endswith(("ed", "en")) or word in IRREGULAR_PARTICIPLES


class _PhrasePatternFields(NamedTuple):
    tokens: tuple[str, ...]
    participle_slot: bool = False


class PhrasePattern(ValidatedTuple, _PhrasePatternFields):
    """One dictionary entry: literal tokens, optionally ending in a
    past-participle slot that matches exactly one additional token."""

    __slots__ = ()

    def _validate(self) -> None:
        if not self.tokens or any(not tok for tok in self.tokens):
            raise ValueError("pattern tokens must be non-empty")

    @property
    def length(self) -> int:
        """Number of tokens a match consumes, slot included."""
        return len(self.tokens) + (1 if self.participle_slot else 0)

    @property
    def phrase(self) -> str:
        suffix = f" {PARTICIPLE_MARKER}" if self.participle_slot else ""
        return " ".join(self.tokens) + suffix


class _DictionaryFields(NamedTuple):
    metric_id: str
    patterns: frozenset[PhrasePattern]
    origin: str = BUILTIN


class Dictionary(ValidatedTuple, _DictionaryFields):
    """A named metric's pattern set and where it came from."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.metric_id not in DICTIONARY_METRICS:
            raise ValueError(f"unknown metric id {self.metric_id!r}")
        if not self.patterns:
            raise ValueError(f"dictionary {self.metric_id} has no patterns")
        token_lists = [p.tokens for p in self.patterns]
        if len(set(token_lists)) != len(token_lists):
            raise ValueError(f"dictionary {self.metric_id} has duplicate token lists")


def _phrase_pattern(phrase: str, participle_slot: bool = False) -> PhrasePattern:
    return PhrasePattern(tuple(_TOKEN_RE.findall(normalize(phrase))), participle_slot)


def _builtin(metric_id: str, phrases: Iterable[str],
             participle_prefixes: Iterable[str] = ()) -> Dictionary:
    patterns = {_phrase_pattern(p) for p in phrases}
    patterns |= {_phrase_pattern(p, participle_slot=True) for p in participle_prefixes}
    return Dictionary(metric_id, frozenset(patterns), origin=BUILTIN)


def builtin_dictionaries() -> dict[str, Dictionary]:
    """The seven shipped dictionaries, keyed by metric id in report order."""
    return {
        "V": _builtin("V", _VAGUENESS_PHRASES, _VAGUENESS_PARTICIPLE_PREFIXES),
        "NR1": _builtin("NR1", _DOCUMENT_REFERENCE_PHRASES),
        "NR2": _builtin("NR2", _NOTATION_REFERENCE_PHRASES),
        "O": _builtin("O", _OPTIONALITY_PHRASES),
        "S": _builtin("S", _SUBJECTIVITY_PHRASES),
        "W": _builtin("W", _WEAKNESS_PHRASES),
        "NC": _builtin("NC", _CONJUNCTION_PHRASES),
    }


class _TrieNode:
    """One token position in the merged trie.

    ``literals`` and ``slots`` hold (metric, text) pairs for the patterns of
    each metric that end here: the literal's phrase, or the slot pattern's
    phrase prefix including the space before the participle.
    """

    __slots__ = ("children", "literals", "slots")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.literals: tuple[tuple[str, str], ...] = ()
        self.slots: tuple[tuple[str, str], ...] = ()


class PhraseMatcher:
    """One token trie over several dictionaries, scanned once per sentence.

    ``find_matches`` applies the scan described in the module docstring to
    every metric at once and returns (metric, start, end, phrase) tuples
    with half-open token ranges, ordered by start. For a participle-slot
    match the phrase includes the concrete participle token.
    """

    def __init__(self, dictionaries: Mapping[str, Dictionary]):
        self._root = _TrieNode()
        for metric, dictionary in dictionaries.items():
            for pattern in dictionary.patterns:
                node = self._root
                for token in pattern.tokens:
                    child = node.children.get(token)
                    if child is None:
                        child = node.children[token] = _TrieNode()
                    node = child
                if pattern.participle_slot:
                    node.slots += ((metric, " ".join(pattern.tokens) + " "),)
                else:
                    node.literals += ((metric, pattern.phrase),)

    def find_matches(self, words: Sequence[str]) -> list[tuple[str, int, int, str]]:
        matches: list[tuple[str, int, int, str]] = []
        first_nodes = self._root.children
        total = len(words)
        resume: dict[str, int] = {}  # per metric, the first unconsumed position
        for i, word in enumerate(words):
            node = first_nodes.get(word)
            if node is None:
                continue
            # Walk once, keeping each metric's latest candidate. Candidate
            # ends never decrease along the walk and a literal ending at j
            # comes after a slot ending at j, so the last one seen is the
            # longest, and the literal on a tie.
            best: dict[str, tuple[int, str]] = {}
            j = i + 1
            while True:
                for metric, phrase in node.literals:
                    best[metric] = (j, phrase)
                if node.slots and j < total and is_participle(words[j]):
                    for metric, prefix in node.slots:
                        best[metric] = (j + 1, prefix + words[j])
                if j == total:
                    break
                node = node.children.get(words[j])
                if node is None:
                    break
                j += 1
            for metric, (end, phrase) in best.items():
                if resume.get(metric, 0) <= i:
                    matches.append((metric, i, end, phrase))
                    resume[metric] = end
        return matches


def _parse_phrase_line(line: str, lineno: int) -> PhrasePattern:
    fields = line.split()
    slot = fields[-1].upper() == PARTICIPLE_MARKER
    literal_fields = fields[:-1] if slot else fields
    if any(f.upper() == PARTICIPLE_MARKER for f in literal_fields):
        raise MalformedDictionaryError(
            f"{PARTICIPLE_MARKER} is only allowed at the end of a phrase", lineno
        )
    tokens = tuple(_TOKEN_RE.findall(normalize(" ".join(literal_fields))))
    if not tokens:
        raise MalformedDictionaryError("empty phrase", lineno)
    return PhrasePattern(tokens, slot)


def load_dictionary_file(path: str | os.PathLike[str]) -> dict[str, Dictionary]:
    """Load dictionary overrides and merge them over the built-ins.

    Returns all seven dictionaries: a ``[METRIC]`` section in the file fully
    replaces that metric's built-in list; absent metrics keep theirs. Lines
    are normalized like requirement text, ``#`` starts a comment, and a
    trailing ``<PP>`` marks a participle slot.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            raw_lines = handle.read().splitlines()
        except UnicodeDecodeError as exc:
            raise MalformedDictionaryError(f"file is not valid UTF-8 ({exc.reason})") from exc

    sections: dict[str, list[PhrasePattern]] = {}
    current: str | None = None
    current_header_line = 0
    seen_tokens: set[tuple[str, ...]] = set()

    def close_section() -> None:
        if current is not None and not sections[current]:
            raise MalformedDictionaryError(
                f"section [{current}] has no phrases", current_header_line
            )

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            metric = line[1:-1].strip().upper()
            if metric not in DICTIONARY_METRICS:
                raise MalformedDictionaryError(f"unknown metric {metric!r}", lineno)
            if metric in sections:
                raise MalformedDictionaryError(f"duplicate section [{metric}]", lineno)
            sections[metric] = []
            current = metric
            current_header_line = lineno
            seen_tokens = set()
            continue
        if current is None:
            raise MalformedDictionaryError("phrase appears before any [METRIC] section", lineno)
        pattern = _parse_phrase_line(line, lineno)
        if pattern.tokens in seen_tokens:
            raise MalformedDictionaryError(f"duplicate phrase {pattern.phrase!r}", lineno)
        seen_tokens.add(pattern.tokens)
        sections[current].append(pattern)
    close_section()

    merged = builtin_dictionaries()
    for metric, patterns in sections.items():
        merged[metric] = Dictionary(metric, frozenset(patterns), origin=USER_FILE)
    return merged


def format_dictionary_file(dictionaries: dict[str, Dictionary]) -> str:
    """Serialize dictionaries back to the override file format.

    Inverse of :func:`load_dictionary_file` up to comments and ordering:
    loading the output reproduces the same pattern sets.
    """
    blocks: list[str] = []
    for metric in DICTIONARY_METRICS:
        if metric not in dictionaries:
            continue
        patterns = sorted(
            dictionaries[metric].patterns, key=lambda p: (p.tokens, p.participle_slot)
        )
        lines = [f"[{metric}]"] + [p.phrase for p in patterns]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
