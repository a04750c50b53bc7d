"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data; the same
seed always gives the same rows, glossary and bytes on disk. The program
under test only ever sees the files written by :func:`write_workload`.

Why each workload exists:

* ``export-json`` -- keyword-dense ~50-word requirements built with the
  throughput-gate recipe (built-in phrases plus filler, ~8% of words end a
  sentence), rendered as indented JSON. Matching and the JSON encoder
  dominate; nearly every position starts a phrase, so a first-token
  prefilter has little to skip.
* ``gate-csv`` -- a wide export (14 metadata columns) of ~120-word plain
  engineering prose with decimals, abbreviations and units, few keywords and
  many short sentences, run as a CSV gate with ``--fail-on-flagged``.
  Ingestion, tokenizing and sentence splitting dominate, rendering is cheap,
  and the matcher mostly walks positions that start no phrase. It bypasses
  all JSON work.
* ``lint-calls`` -- short requirements (8-30 words) checked one at a time
  through ``analyze_text`` against a large seeded glossary (7 sections of
  ~400 phrases, a few with ``<PP>``). It exposes per-call fixed cost and
  wide-fanout tries, and any work an optimisation moves into dictionary
  compile shows up in set-up time.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

DICTIONARY_METRICS = ("V", "NR1", "NR2", "O", "S", "W", "NC")

WORKLOADS = ("export-json", "gate-csv", "lint-calls")

# Default row counts, chosen so one CLI run takes about 0.5 s on a 2-core
# machine: several times interpreter start-up, yet short enough for a run to
# repeat it a dozen times or more (see run.py on best-of-run timings).
DEFAULT_ROWS = {"export-json": 1000, "gate-csv": 500, "lint-calls": 2500}

# Filler words of the throughput-gate recipe (tests/test_acceptance.py).
CRITERION6_FILLER = (
    "system", "controller", "sensor", "value", "input", "output", "signal",
    "operator", "display", "process", "record", "start", "stop", "within",
    "seconds", "the", "a", "shall", "respond", "report",
)


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload: the CSV rows and CLI settings."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    glossary: dict[str, tuple[tuple[tuple[str, ...], bool], ...]] | None
    cli_args: tuple[str, ...]
    exit_code: int

    @property
    def ids(self) -> list[str]:
        return [row[0] for row in self.rows]

    @property
    def texts(self) -> list[str]:
        index = self.header.index("Text")
        return [row[index] for row in self.rows]


def criterion6_vocabulary(builtins) -> list[str]:
    """Literal built-in phrases plus filler, as the throughput gate uses.

    ``builtins`` is the result of ``reqsmell.builtin_dictionaries()``.
    """
    literal = sorted(
        {p.phrase for d in builtins.values() for p in d.patterns if not p.participle_slot}
    )
    return literal + list(CRITERION6_FILLER)


def keyword_dense_text(rng: random.Random, vocabulary: list[str]) -> str:
    words: list[str] = []
    while sum(piece.count(" ") + 1 for piece in words) < 50:
        words.append(rng.choice(vocabulary))
        if rng.random() < 0.08:
            words[-1] += "."
    return " ".join(words)


def export_json(rng: random.Random, rows: int, builtins) -> Workload:
    vocabulary = criterion6_vocabulary(builtins)
    data = tuple((f"R{i:05d}", keyword_dense_text(rng, vocabulary)) for i in range(rows))
    return Workload(
        "export-json", ("ID", "Text"), data, None,
        ("--format", "json", "--thresholds", "{thresholds}"), 0,
    )


# Plain engineering prose. The word lists avoid the built-in keywords so
# that hits come mostly from the few connectives the templates use.
_SUBSYSTEMS = (
    "pump controller", "brake unit", "telemetry link", "battery monitor",
    "flight computer", "door actuator", "thermal loop", "radar front end",
    "logging service", "power converter", "valve driver", "display panel",
)
_NOUNS = (
    "pressure sample", "status frame", "heartbeat message", "fault code",
    "temperature reading", "command packet", "calibration table entry",
    "voltage level", "speed estimate", "position fix", "watchdog reset",
    "configuration block", "error counter", "log record", "sensor frame",
)
_VERBS = (
    "transmit", "store", "validate", "report", "discard", "filter",
    "timestamp", "compress", "forward", "checksum", "buffer", "publish",
)
_UNITS = ("s", "ms", "V", "A", "kPa", "Hz", "mm", "kg", "°C", "dB", "MB", "rpm")
_TEMPLATES = (
    "The {sub} shall {verb} each {noun} within {dec} {unit}.",
    "Latency of the {noun} stays below {dec} {unit}, e.g. during start-up.",
    "Firmware v{int}.{int} of the {sub} shall {verb} the {noun} twice per cycle.",
    "The {noun} is sampled at approx. {dec} {unit} by the {sub}.",
    "Supply stays between {dec} V and {dec} V, i.e. inside the rated band.",
    "See section {int}.{int}.{int} of the interface spec for the {noun} layout.",
    "The {sub} shall {verb} the {noun} at {dec} {unit} or less.",
    "Each {noun} carries a {int}-bit checksum computed by the {sub}.",
    "On power loss the {sub} shall {verb} the last {noun} within {dec} {unit}.",
    "Rev. {int} of the {sub} drops every stale {noun} after {dec} {unit}.",
    "The {sub} logs the {noun} in frame no. {int} with a {dec} {unit} margin.",
    "Operators read the {noun} on screen {int} at {dec} {unit} resolution.",
)
_METADATA_COLUMNS = (
    "Priority", "Status", "Owner", "Component", "Release", "Risk",
    "Verification", "Source", "Created", "Modified", "Parent", "Safety",
    "Tags", "Rationale",
)


def _prose_sentence(rng: random.Random) -> str:
    template = rng.choice(_TEMPLATES)
    out = template
    for slot, make in (
        ("{sub}", lambda: rng.choice(_SUBSYSTEMS)),
        ("{noun}", lambda: rng.choice(_NOUNS)),
        ("{verb}", lambda: rng.choice(_VERBS)),
        ("{unit}", lambda: rng.choice(_UNITS)),
        ("{dec}", lambda: f"{rng.randint(0, 99)}.{rng.randint(0, 9)}"),
        ("{int}", lambda: str(rng.randint(1, 64))),
    ):
        while slot in out:
            out = out.replace(slot, make(), 1)
    return out


def prose_text(rng: random.Random, min_words: int = 120) -> str:
    sentences: list[str] = []
    words = 0
    while words < min_words:
        sentence = _prose_sentence(rng)
        sentences.append(sentence)
        words += len(sentence.split())
    return " ".join(sentences)


def _metadata(rng: random.Random, index: int) -> list[str]:
    day = 1 + index % 28
    return [
        rng.choice(("High", "Medium", "Low")),
        rng.choice(("Draft", "Reviewed", "Approved", "Obsolete")),
        f"team-{rng.randint(1, 40):02d}",
        rng.choice(_SUBSYSTEMS),
        f"R{rng.randint(1, 9)}.{rng.randint(0, 9)}",
        rng.choice(("R1", "R2", "R3", "R4")),
        rng.choice(("Test", "Analysis", "Inspection", "Demonstration")),
        f"SRS-{rng.randint(1000, 9999)} §{rng.randint(1, 9)}.{rng.randint(1, 9)}",
        f"2024-{1 + index % 12:02d}-{day:02d}",
        f"2025-{1 + (index * 7) % 12:02d}-{day:02d}",
        f"G{rng.randint(0, 999):04d}",
        rng.choice(("ASIL A", "ASIL B", "ASIL C", "ASIL D", "QM")),
        ";".join(rng.sample(("timing", "io", "power", "safety", "diag", "comms"), 2)),
        f"Derived from {rng.choice(_NOUNS)} analysis, issue {rng.randint(1, 500)}",
    ]


def gate_csv(rng: random.Random, rows: int) -> Workload:
    header = ("ID", *_METADATA_COLUMNS[:3], "Text", *_METADATA_COLUMNS[3:])
    data = []
    for i in range(rows):
        meta = _metadata(rng, i)
        data.append((f"G{i:05d}", *meta[:3], prose_text(rng), *meta[3:]))
    return Workload(
        "gate-csv", header, tuple(data), None,
        ("--format", "csv", "--thresholds", "{thresholds}", "--fail-on-flagged"), 2,
    )


_SYLLABLES = (
    "ka", "lo", "mi", "ter", "van", "dor", "si", "pel", "ru", "qua", "zen",
    "bri", "tol", "mar", "nex", "ost", "ul", "fen", "gra", "hy",
)


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))))
    return sorted(words)


def glossary(rng: random.Random, words: list[str], per_section: int = 400):
    """Seven sections of unique phrases; many share their first tokens, a
    few end in a participle slot."""
    heads = words[:150]
    sections: dict[str, tuple[tuple[tuple[str, ...], bool], ...]] = {}
    for metric in DICTIONARY_METRICS:
        seen: set[tuple[str, ...]] = set()
        patterns: list[tuple[tuple[str, ...], bool]] = []
        while len(patterns) < per_section:
            tokens = (rng.choice(heads),) + tuple(
                rng.choice(words) for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))
            )
            if tokens in seen:
                continue
            seen.add(tokens)
            patterns.append((tokens, rng.random() < 0.02))
        sections[metric] = tuple(patterns)
    return sections


def format_glossary(sections) -> str:
    lines = ["# seeded benchmark glossary"]
    for metric, patterns in sections.items():
        lines.append(f"[{metric}]")
        lines.extend(" ".join(tokens) + (" <PP>" if slot else "") for tokens, slot in patterns)
    return "\n".join(lines) + "\n"


def lint_calls(rng: random.Random, rows: int) -> Workload:
    words = _pseudo_words(rng, 1200)
    sections = glossary(rng, words)
    phrases = [" ".join(t) for patterns in sections.values() for t, _ in patterns]
    fillers = words + ["implemented", "verified", "the", "shall", "within", "input"]
    data = []
    for i in range(rows):
        target = rng.randint(8, 30)
        pieces: list[str] = []
        count = 0
        while count < target:
            piece = rng.choice(phrases) if rng.random() < 0.3 else rng.choice(fillers)
            if rng.random() < 0.08:
                piece += "."
            pieces.append(piece)
            count += piece.count(" ") + 1
        data.append((f"L{i:05d}", " ".join(pieces)))
    return Workload(
        "lint-calls", ("ID", "Text"), tuple(data), sections,
        ("--format", "csv", "--thresholds", "{thresholds}", "--dictionaries", "{glossary}"), 0,
    )


def generate(name: str, seed: int, rows: int, builtins) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "export-json":
        return export_json(rng, rows, builtins)
    if name == "gate-csv":
        return gate_csv(rng, rows)
    if name == "lint-calls":
        return lint_calls(rng, rows)
    raise ValueError(f"unknown workload {name!r}")


def write_workload(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write the workload's input files; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"input": directory / f"{workload.name}.csv"}
    with open(paths["input"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(workload.header)
        writer.writerows(workload.rows)
    if workload.glossary is not None:
        paths["glossary"] = directory / f"{workload.name}.glossary.txt"
        paths["glossary"].write_text(format_glossary(workload.glossary), encoding="utf-8")
    return paths
