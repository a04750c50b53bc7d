"""Per-requirement metric computation.

For one requirement this produces the full nine-value vector: the seven
dictionary counts (V, NR1, NR2, O, S, W, NC), the word count NW, and the
readability score ARI. Dictionary matches never cross sentence boundaries,
which keeps counts additive when independently terminated texts are
concatenated. Different metrics count the same tokens independently; only
matches of one metric are mutually non-overlapping.

ARI here is average words per sentence plus nine times average letters per
word; empty text yields a degenerate all-zero vector instead of an error.
"""

from functools import partial
from itertools import chain
from typing import Mapping, NamedTuple

from .dictionaries import DICTIONARY_METRICS, Dictionary, PhraseMatcher, builtin_dictionaries
from .text import normalize, scan

# All reported metrics, in report order.
ALL_METRICS = DICTIONARY_METRICS + ("NW", "ARI")


class MatchSpan(NamedTuple):
    """One dictionary hit: metric id, matched phrase, half-open token range."""

    metric: str
    phrase: str
    start: int
    end: int


# MatchSpan from a (metric, phrase, start, end) tuple, without a Python-level
# __new__ call per span.
_match_span = partial(tuple.__new__, MatchSpan)


class ReadabilityStats(NamedTuple):
    """Counts and averages feeding the readability score."""

    word_count: int
    sentence_count: int
    letter_count: int
    words_per_sentence: float
    letters_per_word: float

    @property
    def ari(self) -> float:
        return self.words_per_sentence + 9.0 * self.letters_per_word


class MetricVector(NamedTuple):
    """The nine metric values for one requirement, plus match evidence."""

    counts: Mapping[str, int]
    word_count: int
    ari: float
    degenerate: bool
    spans: tuple[MatchSpan, ...]

    def value(self, metric_id: str) -> float:
        """Value of any reported metric, counts and NW/ARI alike."""
        if metric_id == "NW":
            return self.word_count
        if metric_id == "ARI":
            return self.ari
        return self.counts[metric_id]

    def as_dict(self) -> dict[str, float]:
        """All nine values keyed by metric id, in report order."""
        return {metric: self.value(metric) for metric in ALL_METRICS}


class AnalysisConfig(NamedTuple):
    """Immutable bundle of the seven dictionaries and their merged matcher."""

    dictionaries: Mapping[str, Dictionary]
    matcher: PhraseMatcher

    @classmethod
    def from_dictionaries(cls, dictionaries: Mapping[str, Dictionary]) -> "AnalysisConfig":
        missing = [m for m in DICTIONARY_METRICS if m not in dictionaries]
        if missing:
            raise ValueError(f"missing dictionaries for metrics: {', '.join(missing)}")
        matcher = PhraseMatcher({m: dictionaries[m] for m in DICTIONARY_METRICS})
        return cls(dict(dictionaries), matcher)

    @classmethod
    def default(cls) -> "AnalysisConfig":
        return cls.from_dictionaries(builtin_dictionaries())


def compute_readability(
    word_count: int, sentence_count: int, letter_count: int
) -> ReadabilityStats:
    """The two averages behind ARI, from word, sentence and letter counts."""
    return ReadabilityStats(
        word_count=word_count,
        sentence_count=sentence_count,
        letter_count=letter_count,
        words_per_sentence=word_count / sentence_count if sentence_count else 0.0,
        letters_per_word=letter_count / word_count if word_count else 0.0,
    )


def analyze_text(text: str, config: AnalysisConfig) -> MetricVector:
    """Compute the full metric vector for one requirement text.

    Each sentence is scanned independently (greedy, longest match wins,
    matched tokens consumed), so a phrase never straddles a boundary; one
    matcher call covers all sentences and all seven dictionaries. Span
    indices refer to the full token sequence; spans are ordered by metric
    in report order, then by position.
    """
    words, sentences, letter_count = scan(normalize(text))
    found = config.matcher.find_matches(words, sentences)
    return MetricVector(
        counts=dict(zip(DICTIONARY_METRICS, map(len, found))),
        word_count=len(words),
        ari=compute_readability(len(words), len(sentences), letter_count).ari,
        degenerate=not words,
        spans=tuple(map(_match_span, chain.from_iterable(found))),
    )
