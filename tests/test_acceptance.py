"""Acceptance gate: six criteria, one test per criterion, in order.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failed assertion marks that criterion as failed. Every
expected value here was derived independently of the implementation:
keyword sets are spelled out verbatim, readability inputs are frozen as
hand-counted (words, letters, sentences) triples, and match counts are
re-checked against the brute-force scanner in ``oracle.py``.
"""

import csv
import io
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from reqsmell.cli import run
from reqsmell.dictionaries import builtin_dictionaries
from reqsmell.ingestion import ColumnMapping, Requirement, load_requirements
from reqsmell.metrics import AnalysisConfig, analyze_text
from reqsmell.reporting import build_report, load_threshold_file, render
from reqsmell.text import normalize

from oracle import naive_metric_spans, split_sentences, tokenize

DATA = Path(__file__).parent / "data"
CONFIG = AnalysisConfig.default()
BUILTINS = builtin_dictionaries()

DICT_METRICS = ("V", "NR1", "NR2", "O", "S", "W", "NC")

_LITERAL_KEYWORDS = sorted(
    {p.phrase for d in BUILTINS.values() for p in d.patterns if not p.participle_slot}
)
_SLOT_KEYWORDS = sorted(
    {" ".join(p.tokens) + " implemented" for d in BUILTINS.values() for p in d.patterns if p.participle_slot}
)
_FILLER = [
    "system", "controller", "sensor", "value", "input", "output", "signal",
    "operator", "display", "process", "record", "start", "stop", "within",
    "seconds", "the", "a", "shall", "respond", "report",
]


def _splice(rng, max_pieces=25):
    pieces = _LITERAL_KEYWORDS + _SLOT_KEYWORDS + _FILLER
    separators = [" ", ". ", "! ", "? ", "; ", ", "]
    n = rng.randint(0, max_pieces)
    return "".join(rng.choice(pieces) + rng.choice(separators) for _ in range(n))


def test_criterion_1_builtin_dictionary_fidelity():
    def phrases(metric, slot):
        return {
            (" ".join(p.tokens) if slot else p.phrase)
            for p in BUILTINS[metric].patterns
            if p.participle_slot == slot
        }

    assert phrases("V", slot=False) == {
        "may", "could", "has to", "have to", "might", "will",
        "all the other", "all other", "based on", "some", "appropriate",
        "as a", "as an", "a minimum", "up to", "adequate", "as applicable",
        "be able to", "be capable", "but not limited to", "capability of",
        "capability to", "effective", "normal",
    }
    assert phrases("V", slot=True) == {"should have", "must have"}
    assert phrases("NR1", slot=False) == {
        "defined in reference", "defined in the reference",
        "specified in reference", "specified in the reference",
        "specified by reference", "specified by the reference",
        "see reference", "see the reference",
        "refer to reference", "refer to the reference",
        "further reference", "follow reference", "follow the reference",
        "see document", "see",
    }
    assert phrases("NR2", slot=False) == {"for example", "figure", "table", "note"}
    assert phrases("O", slot=False) == {"can", "may", "optionally"}
    assert phrases("S", slot=False) == {
        "similar", "better", "similarly", "worse", "having in mind",
        "take into account", "take into consideration", "as possible",
    }
    assert phrases("W", slot=False) == {
        "adequate", "as appropriate", "be able to", "be capable of",
        "capability of", "capability to", "effective", "as required",
        "normal", "provide for", "timely", "easy to",
    }
    for metric in ("NR1", "NR2", "O", "S", "W"):
        assert not phrases(metric, slot=True)
    print("criterion 1 PASS: builtin keyword sets match the published lists exactly")


def test_criterion_2_readability_formula():
    # (text, words, letters, sentences) — counts done by hand; the expected
    # index is words/sentences + 9 * letters/words from those frozen ints.
    cases = [
        ("the cat sat.", 3, 9, 1),
        ("", 0, 0, 0),
        ("aa bb. cc dd.", 4, 8, 2),
        ("a.", 1, 1, 1),
        ("ab.", 1, 2, 1),
        ("abc def.", 2, 6, 1),
        ("a bc def ghij.", 4, 10, 1),
        ("one two three. four five six.", 6, 22, 2),
        ("x9 ports.", 2, 6, 1),
        ("q w e r t y.", 6, 6, 1),
        ("alpha beta; gamma delta.", 4, 19, 2),
        ("systems behave deterministically.", 3, 30, 1),
        ("i am.", 2, 3, 1),
        ("no end here", 3, 9, 1),
        ("one. two. three. four.", 4, 15, 4),
        ("aaa bbb ccc ddd eee.", 5, 15, 1),
        ("ab cd! ef gh? ij kl.", 6, 12, 3),
        ("the quick brown fox jumps over the lazy dog.", 9, 35, 1),
        ("pneumonoultramicroscopicsilicovolcanoconiosis.", 1, 45, 1),
        ("to be or not to be.", 6, 13, 1),
        ("mix 42 and 7 units.", 5, 11, 1),
        ("sentence one has words. sentence two also has words.", 9, 42, 2),
    ]
    assert len(cases) >= 20
    for text, words, letters, sentences in cases:
        vector = analyze_text(text, CONFIG)
        assert vector.value("NW") == words, text
        expected = (words / sentences + 9.0 * letters / words) if words else 0.0
        assert abs(vector.value("ARI") - expected) <= 1e-9, text
    assert analyze_text("the cat sat.", CONFIG).value("ARI") == 30.0
    assert analyze_text("", CONFIG).value("ARI") == 0.0
    print(f"criterion 2 PASS: readability matches hand arithmetic on {len(cases)} texts (tol 1e-9)")


def test_criterion_3_matcher_oracle_equivalence():
    rng = random.Random(0xC3)
    started = time.perf_counter()
    texts = 0
    for _ in range(1000):
        text = _splice(rng)
        texts += 1
        vector = analyze_text(text, CONFIG)
        for metric in DICT_METRICS:
            expected = naive_metric_spans(text, BUILTINS[metric])
            observed = [
                (start, end, phrase) for m, phrase, start, end in vector.spans if m == metric
            ]
            assert observed == expected, (text, metric)
            assert vector.value(metric) == len(expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: optimized matcher equals brute-force scan on {texts} "
        f"spliced texts, all metrics ({elapsed:.1f}s)"
    )


def test_criterion_4_property_sweep():
    rng = random.Random(0xC4)
    code_points = (
        [chr(c) for c in range(0x20, 0x7F)]
        + [chr(c) for c in range(0xC0, 0x100)]  # Latin-1 letters
        + [chr(c) for c in range(0x391, 0x3AA)]  # Greek
        + [chr(c) for c in range(0x410, 0x450)]  # Cyrillic
        + ["́", "̈", "你", "好", "\U0001F600", "ß", "İ", "ﬃ"]
    )

    for _ in range(300):
        raw = "".join(rng.choices(code_points, k=rng.randint(0, 40)))
        once = normalize(raw)
        assert normalize(once) == once  # normalize idempotence
        tokens = tokenize(once)
        sentences = split_sentences(once, tokens)
        covered = [i for s in sentences for i in range(s.start, s.end)]
        assert covered == list(range(len(tokens)))  # sentence-partition completeness

    for _ in range(300):
        text = _splice(rng)
        vector = analyze_text(text, CONFIG)
        assert vector.as_dict() == analyze_text(text.upper(), CONFIG).as_dict()  # case-insensitivity
        for metric in DICT_METRICS:  # per-metric span disjointness
            taken: set[int] = set()
            for start, end in [(start, end) for m, _, start, end in vector.spans if m == metric]:
                indices = set(range(start, end))
                assert not indices & taken
                taken |= indices

    for _ in range(300):  # additivity over terminator-separated concatenation
        a = _splice(rng, max_pieces=8) + "."
        b = _splice(rng, max_pieces=8) + "."
        whole = analyze_text(a + " " + b, CONFIG)
        left = analyze_text(a, CONFIG)
        right = analyze_text(b, CONFIG)
        for metric in DICT_METRICS + ("NW",):
            assert whole.value(metric) == left.value(metric) + right.value(metric)

    for _ in range(300):  # ARI permutation invariance within sentences
        sentence_words = [
            [rng.choice(_FILLER) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 4))
        ]
        text = ". ".join(" ".join(words) for words in sentence_words) + "."
        shuffled_words = [words[:] for words in sentence_words]
        for words in shuffled_words:
            rng.shuffle(words)
        shuffled = ". ".join(" ".join(words) for words in shuffled_words) + "."
        assert analyze_text(text, CONFIG).value("ARI") == analyze_text(
            shuffled, CONFIG
        ).value("ARI")

    print("criterion 4 PASS: all six analysis properties hold on 1500 seeded inputs")


# Hand-derived expectations for the bundled 10-requirement corpus under the
# bundled threshold file (V>=2, O>=2, NR1>=1, W>=2, NC>=3, NW>40, ARI>=60).
# Counts come from manual application of the keyword lists to each text;
# readability is frozen as an exact fraction (words/sentences + 9*letters/words).
GOLDEN_EXPECTATIONS = {
    #       V  NR1 NR2  O  S  W  NC  NW  ARI                     flags
    "R01": (0, 0, 0, 0, 0, 0, 0, 7, Fraction(319, 7), []),
    "R02": (3, 0, 0, 1, 0, 0, 0, 8, Fraction(397, 8), ["V"]),
    "R03": (0, 0, 0, 2, 0, 0, 1, 9, Fraction(72), ["O", "ARI"]),
    "R04": (1, 1, 0, 0, 0, 0, 1, 12, Fraction(54), ["NR1"]),
    "R05": (1, 0, 1, 0, 0, 0, 2, 12, Fraction(183, 4), []),
    "R06": (1, 0, 0, 0, 1, 2, 0, 12, Fraction(231, 4), ["W"]),
    "R07": (0, 2, 0, 0, 0, 0, 2, 11, Fraction(562, 11), ["NR1"]),
    "R08": (0, 0, 0, 0, 0, 0, 0, 0, Fraction(0), []),
    "R09": (1, 1, 3, 0, 0, 1, 1, 19, Fraction(1108, 19), ["NR1"]),
    "R10": (6, 0, 0, 0, 3, 3, 6, 45, Fraction(468, 5), ["V", "W", "NC", "NW", "ARI"]),
}


def test_criterion_5_golden_reports():
    corpus_path = DATA / "sample_corpus.csv"
    thresholds_path = DATA / "thresholds.txt"
    mapping = ColumnMapping()
    requirements = load_requirements(corpus_path, mapping)
    rules = load_threshold_file(thresholds_path)

    report = build_report(requirements, CONFIG, rules=rules, column_mapping=mapping)

    # per-requirement values and flags match the hand-derived table
    assert [entry.id for entry in report.entries] == list(GOLDEN_EXPECTATIONS)
    for entry in report.entries:
        v, nr1, nr2, o, s, w, nc, nw, ari, flags = GOLDEN_EXPECTATIONS[entry.id]
        got = entry.vector
        assert (
            got.value("V"), got.value("NR1"), got.value("NR2"), got.value("O"),
            got.value("S"), got.value("W"), got.value("NC"), got.value("NW"),
        ) == (v, nr1, nr2, o, s, w, nc, nw), entry.id
        assert abs(got.value("ARI") - float(ari)) <= 1e-9, entry.id
        assert list(entry.flags) == flags, entry.id
    assert report.summary.flagged_count == 7
    assert report.summary.degenerate_count == 1

    # byte-identical across repeated in-process renders and vs the frozen files
    golden_json = (DATA / "golden_report.json").read_bytes()
    golden_csv = (DATA / "golden_report.csv").read_bytes()
    assert render(report, "json") == golden_json
    assert render(report, "json") == golden_json  # repeat render, same bytes
    assert render(report, "csv") == golden_csv
    assert render(report, "csv") == golden_csv

    # byte-identical through the command-line path as well
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, frozen in (("json", golden_json), ("csv", golden_csv)):
            out = Path(tmp) / f"report.{fmt}"
            code = run([
                "--input", str(corpus_path),
                "--thresholds", str(thresholds_path),
                "--format", fmt,
                "--output", str(out),
            ])
            assert code == 0
            assert out.read_bytes() == frozen

    print("criterion 5 PASS: golden reports byte-identical, flags match hand-derived table")


def test_criterion_6_throughput():
    rng = random.Random(0xC6)
    vocabulary = _LITERAL_KEYWORDS + _FILLER

    def make_text():
        words: list[str] = []
        while sum(piece.count(" ") + 1 for piece in words) < 50:
            words.append(rng.choice(vocabulary))
            if rng.random() < 0.08:
                words[-1] += "."
        return " ".join(words)

    requirements = [
        Requirement(id=f"R{i:05d}", text=make_text(), row=i + 2) for i in range(10_000)
    ]
    rules = load_threshold_file(DATA / "thresholds.txt")
    started = time.perf_counter()
    report = build_report(requirements, CONFIG, rules=rules)
    payload = render(report, "csv")
    elapsed = time.perf_counter() - started
    assert len(report.entries) == 10_000
    assert payload.count(b"\n") == 10_001  # header + one line per requirement
    assert elapsed < 5.0
    print(f"criterion 6 PASS: 10,000 x ~50-word requirements analyzed and rendered in {elapsed:.2f}s")
