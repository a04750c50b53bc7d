"""Keyword dictionaries for the smell metrics, plus the phrase matcher.

Each metric with a keyword list gets one :class:`Dictionary` of compiled
:class:`PhrasePattern` entries; one :class:`PhraseMatcher` serves all of
them with one call per text and one trie walk per position where a phrase
can start. The built-in lists ship with the package; a user-supplied
override file can replace any of them per metric.

Matching semantics (shared by the matcher and all its tests): scan a token
sequence left to right; at each position the longest matching pattern wins
and its tokens are consumed, so patterns of one metric never overlap. A
literal pattern beats a participle-slot pattern of the same length.
"""

import os
from collections import namedtuple
from operator import itemgetter

from .errors import MalformedFileError, ValidatedTuple, parse_file
from .text import normalize, scan

# Metric identifiers, in report order. These are part of the file-format and
# report contracts (section headers, CSV columns), not abbreviations of ours.
DICTIONARY_METRICS = ("V", "NR1", "NR2", "O", "S", "W", "NC")

BUILTIN = "builtin"
USER_FILE = "user-file"

# Marker for "one past-participle token follows" at the end of a phrase line.
PARTICIPLE_MARKER = "<PP>"

# The built-in keyword list of each metric, in report order.
_BUILTIN_PHRASES = {
    # V: words and phrases that admit several readings, and "should have"/
    # "must have" followed by a past participle.
    "V": (
        "may", "could", "has to", "have to", "might", "will",
        "all the other", "all other", "based on", "some", "appropriate",
        "as a", "as an", "a minimum", "up to", "adequate", "as applicable",
        "be able to", "be capable", "but not limited to", "capability of",
        "capability to", "effective", "normal",
        "should have <PP>", "must have <PP>",
    ),
    # NR1: phrases that point the reader at another document.
    "NR1": (
        "defined in reference", "defined in the reference",
        "specified in reference", "specified in the reference",
        "specified by reference", "specified by the reference",
        "see reference", "see the reference",
        "refer to reference", "refer to the reference",
        "further reference", "follow reference", "follow the reference",
        "see document",
        "see",
    ),
    # NR2: pointers to figures, tables, notes, examples.
    "NR2": ("for example", "figure", "table", "note"),
    # O: words that leave implementers latitude.
    "O": ("can", "may", "optionally"),
    # S: personal opinion or relative judgment.
    "S": (
        "similar", "better", "similarly", "worse",
        "having in mind", "take into account", "take into consideration",
        "as possible",
    ),
    # W: phrases that weaken a statement by leaving room for interpretation.
    "W": (
        "adequate", "as appropriate", "be able to", "be capable of",
        "capability of", "capability to", "effective", "as required",
        "normal", "provide for", "timely", "easy to",
    ),
    # NC: default conjunction list; coordinating plus common subordinating.
    # Replaceable through a dictionary override file.
    "NC": (
        "and", "or", "but", "nor", "yet", "so", "for",
        "although", "because", "since", "unless", "until", "while", "whereas",
        "if", "when", "whenever", "after", "before", "once", "though",
    ),
}

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


class PhrasePattern(ValidatedTuple, namedtuple("PhrasePattern", "tokens participle_slot", defaults=(False,))):
    """One dictionary entry: literal tokens (a tuple of str), optionally
    ending in a past-participle slot that matches exactly one additional
    token."""

    __slots__ = ()

    def __new__(cls, tokens, participle_slot=False):
        if not tokens or "" in tokens:
            raise ValueError("pattern tokens must be non-empty")
        return tuple.__new__(cls, (tokens, participle_slot))

    @property
    def phrase(self) -> str:
        suffix = f" {PARTICIPLE_MARKER}" if self.participle_slot else ""
        return " ".join(self.tokens) + suffix


class Dictionary(ValidatedTuple, namedtuple("Dictionary", "metric_id patterns origin", defaults=(BUILTIN,))):
    """A named metric's pattern set (a frozenset of :class:`PhrasePattern`)
    and where it came from."""

    __slots__ = ()

    def __new__(cls, metric_id, patterns, origin=BUILTIN):
        if metric_id not in DICTIONARY_METRICS:
            raise ValueError(f"unknown metric id {metric_id!r}")
        if not patterns:
            raise ValueError(f"dictionary {metric_id} has no patterns")
        if len({p.tokens for p in patterns}) != len(patterns):
            raise ValueError(f"dictionary {metric_id} has duplicate token lists")
        return tuple.__new__(cls, (metric_id, patterns, origin))


def _builtin(metric_id: str, phrases) -> Dictionary:
    share = {}.setdefault
    patterns = frozenset(_parse_phrase_line(p, n, share) for n, p in enumerate(phrases, start=1))
    return Dictionary(metric_id, patterns, origin=BUILTIN)


def builtin_dictionaries() -> dict[str, Dictionary]:
    """The seven shipped dictionaries, keyed by metric id in report order."""
    return {metric: _builtin(metric, phrases) for metric, phrases in _BUILTIN_PHRASES.items()}


class _TrieNode(dict):
    """One token position in the merged trie: a dict from the next token to
    the child node, plus two precomputed tables for the root-to-node path.

    ``winners`` holds, for each metric with a literal pattern ending on the
    path, its longest one as (metric index, length, metric, phrase).
    ``slots`` holds every participle-slot pattern ending on the path as
    (prefix length, metric index, metric, phrase prefix including the space
    before the participle), shallowest first; it is empty unless the path
    carries a slot. A node without patterns of its own shares its parent's
    tables.
    """

    __slots__ = ("winners", "slots")


class PhraseMatcher:
    """One token trie over several dictionaries, scanned once per text.

    ``find_matches`` applies the scan described in the module docstring to
    every metric at once, within each sentence, and returns one list per
    metric (in the order of ``dictionaries``) of (metric, phrase, start,
    end) tuples with half-open token ranges, ordered by start. For a
    participle-slot match the phrase includes the concrete participle token.
    """

    def __init__(self, dictionaries: dict[str, Dictionary]):
        self._root = root = _TrieNode()
        root.winners = ()
        root.slots = ()
        self._metric_count = len(dictionaries)
        # Lists, not tuples: thousands of dead 4-tuples would stay on CPython's free list.
        entries = [
            [len(pattern.tokens), index, metric, pattern]
            for index, (metric, dictionary) in enumerate(dictionaries.items())
            for pattern in dictionary.patterns
        ]
        # Shorter patterns first: a node then gets all its own patterns
        # before it has children, so each child can copy its parent's tables.
        entries.sort(key=itemgetter(0))
        for depth, index, metric, (tokens, slot) in entries:
            node = root
            for token in tokens:
                child = node.get(token)
                if child is None:
                    child = node[token] = _TrieNode()
                    child.winners = node.winners
                    child.slots = node.slots
                node = child
            text = " ".join(tokens)
            if slot:
                node.slots += ((depth, index, metric, text + " "),)
            else:
                node.winners = ((index, depth, metric, text), *[w for w in node.winners if w[0] != index])

    def find_matches(
        self, words: list[str], ends: list[int], spans: bool = True
    ) -> list[list[tuple[str, str, int, int]]] | list[int]:
        """Matches in ``words`` cut into sentences at ``ends``, each the index
        one past a sentence's last word, rising to ``len(words)`` as ``scan``
        gives them. With ``spans`` false, only the counts, and no tuple is built."""
        if (ends[-1] if ends else 0) != len(words):
            raise ValueError("ends must rise to len(words), each one past a sentence's last word")
        found: list = [[] for _ in range(self._metric_count)] if spans else [0] * self._metric_count
        resume = [0] * self._metric_count  # per metric, the first unconsumed index
        nodes = list(map(self._root.get, words))
        bounds = iter(ends)
        end = 0
        for i, node in enumerate(nodes):
            # A leaf node is an empty dict, so test hits against None, not truth.
            if node is None:
                continue
            while end <= i:
                end = next(bounds)
            j = i + 1
            while j < end:
                child = node.get(words[j])
                if child is None:
                    break
                node = child
                j += 1
            winners = node.winners
            if node.slots:
                winners = _with_slots(winners, node.slots, words, i, end)
            for index, length, metric, phrase in winners:
                if resume[index] <= i:
                    if spans:
                        found[index].append((metric, phrase, i, i + length))
                    else:
                        found[index] += 1
                    resume[index] = i + length
        return found


def _with_slots(
    winners: tuple[tuple[int, int, str, str], ...],
    slots: tuple[tuple[int, int, str, str], ...],
    words: list[str],
    i: int,
    end: int,
):
    """``winners`` updated with the slot patterns whose participle is
    present; a slot beats a literal only when longer."""
    best = {entry[0]: entry for entry in winners}
    for depth, index, metric, prefix in slots:
        k = i + depth
        if k < end and is_participle(words[k]):
            entry = best.get(index)
            if entry is None or entry[1] <= depth:
                best[index] = (index, depth + 1, metric, prefix + words[k])
    return best.values()


def _parse_phrase_line(line: str, lineno: int, share) -> PhrasePattern:
    """The pattern of a stripped phrase line: the words of ``normalize`` of
    the line without a final ``<PP>``, exactly as in requirement text. A line
    of alphanumerics and spaces takes the words of ``str.split``, which is
    exact because ``[^\\W_]`` is the per-character test of ``str.isalnum``;
    every other line is cut by ``scan`` itself. ``share`` is the ``setdefault``
    of a dict that keeps one string per distinct word. No word is empty, so
    the pattern is built without the constructor's check."""
    slot = False
    # Only a line with a "<" can hold the marker; only those need the field checks.
    if "<" in line and PARTICIPLE_MARKER in line.upper():
        fields = line.split()
        slot = fields[-1].upper() == PARTICIPLE_MARKER
        if slot:
            fields.pop()
        if any(PARTICIPLE_MARKER in f.upper() for f in fields):
            raise MalformedFileError(
                f"{PARTICIPLE_MARKER} is only allowed at the end of a phrase, as its own word",
                lineno,
            )
    text = normalize(line[: -len(PARTICIPLE_MARKER)] if slot else line)
    if text.replace(" ", "").isalnum():
        words = text.split()
    else:
        # The marker stays in, so it counts for the sentences: it scans as a final word.
        words, ends, _ = scan(normalize(line))
        if slot:
            words.pop()
        if not words:
            raise MalformedFileError("empty phrase", lineno)
        # Matches never cross a sentence boundary, so a phrase that scan cuts
        # into two sentences (slot included) could never match.
        if len(ends) > 1:
            raise MalformedFileError(f"phrase {line!r} spans a sentence boundary and can never match", lineno)
    return tuple.__new__(PhrasePattern, (tuple(map(share, words, words)), slot))


def load_dictionary_file(path: str | os.PathLike[str]) -> dict[str, Dictionary]:
    """Load dictionary overrides and merge them over the built-ins.

    Returns all seven dictionaries: a ``[METRIC]`` section in the file fully
    replaces that metric's built-in list; absent metrics keep theirs. Lines
    are normalized like requirement text, ``#`` starts a comment, and a
    ``<PP>`` as the last word marks a participle slot.
    """
    sections = parse_file(path, _parse_sections)
    # Only the metrics the file leaves out need their built-in list.
    return {
        # From a set, a frozenset is sized once; added one by one, it ends twice as large.
        metric: Dictionary(metric, frozenset(set(sections[metric].values())), origin=USER_FILE)
        if metric in sections
        else _builtin(metric, _BUILTIN_PHRASES[metric])
        for metric in DICTIONARY_METRICS
    }


def _parse_sections(lines: list[str]) -> dict[str, dict[tuple[str, ...], PhrasePattern]]:
    """The phrases of each ``[METRIC]`` section, keyed by their tokens."""
    sections: dict[str, dict[tuple[str, ...], PhrasePattern]] = {}
    current: str | None = None
    current_header_line = 0
    share = {}.setdefault  # one string per distinct word of the file

    def close_section() -> None:
        if current is not None and not sections[current]:
            raise MalformedFileError(f"section [{current}] has no phrases", current_header_line)

    for lineno, raw in enumerate(lines, start=1):
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            metric = line[1:-1].strip().upper()
            if metric not in DICTIONARY_METRICS:
                raise MalformedFileError(f"unknown metric {metric!r}", lineno)
            if metric in sections:
                raise MalformedFileError(f"duplicate section [{metric}]", lineno)
            sections[metric] = {}
            current, current_header_line = metric, lineno
            continue
        if current is None:
            raise MalformedFileError("phrase appears before any [METRIC] section", lineno)
        pattern = _parse_phrase_line(line, lineno, share)
        if pattern.tokens in sections[current]:
            raise MalformedFileError(f"duplicate phrase {pattern.phrase!r}", lineno)
        sections[current][pattern.tokens] = pattern
    close_section()
    return sections
