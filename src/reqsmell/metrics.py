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

from collections import namedtuple
from itertools import chain

from .dictionaries import DICTIONARY_METRICS, Dictionary, PhraseMatcher, builtin_dictionaries
from .text import normalize, scan

# All reported metrics, in report order.
ALL_METRICS = DICTIONARY_METRICS + ("NW", "ARI")

_METRIC_INDEX = {metric: index for index, metric in enumerate(ALL_METRICS)}


class MetricVector(namedtuple("MetricVector", "values degenerate spans")):
    """The nine metric values for one requirement, in report order; whether
    it has no words; and match evidence: one ``(metric, phrase, start, end)``
    tuple per dictionary hit, with a half-open word range, or ``()`` when
    analysed without spans."""

    __slots__ = ()

    @property
    def counts(self) -> dict[str, int]:
        """The seven dictionary counts keyed by metric id, in report order."""
        return dict(zip(DICTIONARY_METRICS, self.values))

    def value(self, metric_id: str) -> float:
        """Value of any reported metric, counts and NW/ARI alike."""
        return self.values[_METRIC_INDEX[metric_id]]

    def as_dict(self) -> dict[str, float]:
        """All nine values keyed by metric id, in report order."""
        return dict(zip(ALL_METRICS, self.values))


class AnalysisConfig(namedtuple("AnalysisConfig", "dictionaries matcher")):
    """Immutable bundle of the seven dictionaries, a dict from metric id to
    :class:`Dictionary` in report order, and their merged :class:`PhraseMatcher`."""

    __slots__ = ()

    @classmethod
    def from_dictionaries(cls, dictionaries: dict[str, Dictionary]) -> "AnalysisConfig":
        missing = [m for m in DICTIONARY_METRICS if m not in dictionaries]
        if missing:
            raise ValueError(f"missing dictionaries for metrics: {', '.join(missing)}")
        ordered = {m: dictionaries[m] for m in DICTIONARY_METRICS}
        return cls(ordered, PhraseMatcher(ordered))

    @classmethod
    def default(cls) -> "AnalysisConfig":
        return cls.from_dictionaries(builtin_dictionaries())


def analyze_text(text: str, config: AnalysisConfig, spans: bool = True) -> MetricVector:
    """Compute the full metric vector for one requirement text.

    Each sentence is scanned independently (greedy, longest match wins, matched
    tokens consumed), so a phrase never straddles a boundary; one matcher call
    covers all seven dictionaries and every sentence, cut at the ``ends`` of
    ``scan``. Spans index the whole word list, by metric in report order, then
    by position. With ``spans`` false the matcher only counts; ``spans`` is ().
    """
    words, ends, letter_count = scan(normalize(text))
    found = config.matcher.find_matches(words, ends, spans)
    nw = len(words)
    return MetricVector(
        values=(
            *(map(len, found) if spans else found),
            nw,
            (nw / len(ends) + 9.0 * (letter_count / nw)) if nw else 0.0,
        ),
        degenerate=not nw,
        spans=tuple(chain.from_iterable(found)) if spans else (),
    )
