"""Threshold flagging, corpus summary, and report rendering.

Reports are rendered to bytes and are byte-identical for identical inputs:
no timestamps unless explicitly requested, fixed key order, fixed newline
convention. No thresholds ship by default; raw metric values are always
reported and flags only appear when the user supplies rules.
"""

import csv
import io
import math
import os
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .dictionaries import DICTIONARY_METRICS
from .errors import MalformedThresholdError, ValidatedTuple
from .ingestion import ColumnMapping, Requirement
from .metrics import ALL_METRICS, AnalysisConfig, MetricVector, analyze_text

TOOL_NAME = "reqsmell"

REPORT_FORMATS = ("json", "csv", "table")

_COMPARATORS = (">", ">=")


class _ThresholdRuleFields(NamedTuple):
    metric_id: str
    comparator: str
    limit: float


class ThresholdRule(ValidatedTuple, _ThresholdRuleFields):
    """Flag a requirement when ``metric value OP limit`` holds."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.metric_id not in ALL_METRICS:
            raise ValueError(f"unknown metric {self.metric_id!r}")
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if not math.isfinite(self.limit):
            raise ValueError("limit must be a finite number")
        if self.limit < 0:
            raise ValueError("limit must be non-negative")

    def violated_by(self, value: float) -> bool:
        return value > self.limit if self.comparator == ">" else value >= self.limit


def parse_threshold_rules(lines: Iterable[str]) -> tuple[ThresholdRule, ...]:
    """Parse ``METRIC OP LIMIT`` lines; ``#`` starts a comment."""
    rules: dict[str, ThresholdRule] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise MalformedThresholdError(
                f"expected 'METRIC OP LIMIT', got {line!r}", lineno
            )
        metric, comparator, raw_limit = fields
        if metric not in ALL_METRICS:
            raise MalformedThresholdError(f"unknown metric {metric!r}", lineno)
        if comparator not in _COMPARATORS:
            raise MalformedThresholdError(f"unknown comparator {comparator!r}", lineno)
        try:
            limit = float(raw_limit)
        except ValueError:
            raise MalformedThresholdError(f"invalid limit {raw_limit!r}", lineno) from None
        if not math.isfinite(limit):
            # A NaN rule never fires and an infinite one cannot be reached.
            raise MalformedThresholdError(f"limit must be a finite number, got {raw_limit!r}", lineno)
        if limit < 0:
            raise MalformedThresholdError("limit must be non-negative", lineno)
        if metric in rules:
            raise MalformedThresholdError(f"duplicate rule for metric {metric}", lineno)
        rules[metric] = ThresholdRule(metric, comparator, limit)
    return tuple(rules[m] for m in ALL_METRICS if m in rules)


def load_threshold_file(path: str | os.PathLike[str]) -> tuple[ThresholdRule, ...]:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_threshold_rules(handle)


def apply_thresholds(
    vector: MetricVector, rules: Sequence[ThresholdRule]
) -> list[str]:
    """Metric ids of all violated rules, in report order."""
    by_metric = {rule.metric_id: rule for rule in rules}
    return [
        metric
        for metric in ALL_METRICS
        if metric in by_metric and by_metric[metric].violated_by(vector.value(metric))
    ]


class DictionaryInfo(NamedTuple):
    """Configuration snapshot entry for one dictionary."""

    origin: str
    pattern_count: int


class ReportConfig(NamedTuple):
    """Snapshot of everything that shaped the analysis."""

    dictionaries: Mapping[str, DictionaryInfo]
    thresholds: tuple[ThresholdRule, ...]
    column_mapping: ColumnMapping | None = None
    timestamp: str | None = None


class RequirementEntry(NamedTuple):
    """Per-requirement results: metric vector, flags, warnings."""

    id: str
    vector: MetricVector
    flags: tuple[str, ...]
    warnings: tuple[str, ...]


class MetricSummary(NamedTuple):
    minimum: float
    mean: float
    maximum: float


class ReportSummary(NamedTuple):
    requirement_count: int
    flagged_count: int
    degenerate_count: int
    metrics: Mapping[str, MetricSummary]


class AnalysisReport(NamedTuple):
    tool: str
    version: str
    config: ReportConfig
    entries: tuple[RequirementEntry, ...]
    summary: ReportSummary


def summarize(entries: Sequence[RequirementEntry]) -> ReportSummary:
    """Aggregate per-metric min/mean/max, skipping degenerate entries.

    Degenerate (token-free) requirements are excluded from the metric
    statistics so blank rows cannot dilute corpus means; they are counted
    separately. An empty corpus yields all-zero statistics.
    """
    live = [entry.vector for entry in entries if not entry.vector.degenerate]
    stats: dict[str, MetricSummary] = {}
    for metric in ALL_METRICS:
        if live:
            values = [vector.value(metric) for vector in live]
            stats[metric] = MetricSummary(min(values), sum(values) / len(values), max(values))
        else:
            stats[metric] = MetricSummary(0, 0.0, 0)
    return ReportSummary(
        requirement_count=len(entries),
        flagged_count=sum(1 for entry in entries if entry.flags),
        degenerate_count=sum(1 for entry in entries if entry.vector.degenerate),
        metrics=stats,
    )


def build_report(
    requirements: Sequence[Requirement],
    config: AnalysisConfig,
    rules: Sequence[ThresholdRule] = (),
    column_mapping: ColumnMapping | None = None,
    version: str = "0.0.0",
    timestamp: str | None = None,
) -> AnalysisReport:
    """Analyze a corpus and assemble the full report in corpus order."""
    entries: list[RequirementEntry] = []
    for requirement in requirements:
        vector = analyze_text(requirement.text, config)
        entry_warnings: tuple[str, ...] = ()
        if vector.degenerate:
            entry_warnings = ("requirement text contains no words",)
        entries.append(
            RequirementEntry(
                id=requirement.id,
                vector=vector,
                flags=tuple(apply_thresholds(vector, rules)),
                warnings=entry_warnings,
            )
        )
    snapshot = ReportConfig(
        dictionaries={
            metric: DictionaryInfo(dictionary.origin, len(dictionary.patterns))
            for metric, dictionary in (
                (m, config.dictionaries[m]) for m in DICTIONARY_METRICS
            )
        },
        thresholds=tuple(rules),
        column_mapping=column_mapping,
        timestamp=timestamp,
    )
    return AnalysisReport(
        tool=TOOL_NAME,
        version=version,
        config=snapshot,
        entries=tuple(entries),
        summary=summarize(entries),
    )


def render(report: AnalysisReport, fmt: str) -> bytes:
    """Render the report as UTF-8 bytes in the requested format."""
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "table":
        return render_table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _config_payload(config: ReportConfig) -> dict:
    payload: dict = {
        "column_mapping": (
            None
            if config.column_mapping is None
            else {
                "id_column": config.column_mapping.id_column,
                "text_column": config.column_mapping.text_column,
                "delimiter": config.column_mapping.delimiter,
            }
        ),
        "dictionaries": {
            metric: {"origin": info.origin, "pattern_count": info.pattern_count}
            for metric, info in config.dictionaries.items()
        },
        "thresholds": [
            {"metric": rule.metric_id, "comparator": rule.comparator, "limit": rule.limit}
            for rule in config.thresholds
        ],
    }
    if config.timestamp is not None:
        payload["timestamp"] = config.timestamp
    return payload


def render_json(report: AnalysisReport) -> bytes:
    """Render the report as ``json.dumps(payload, indent=2,
    ensure_ascii=False)`` plus a newline would, byte for byte.

    Only the small head goes through ``json.dumps``, whose indenting encoder
    is pure Python. The requirements array has a fixed schema and is written
    from templates, with each string leaf through the C string encoder.
    """
    # Imported here, not at module level: only this format needs json.
    import json
    from json.encoder import encode_basestring

    head = {
        "tool": report.tool,
        "version": report.version,
        "config": _config_payload(report.config),
        "summary": {
            "requirement_count": report.summary.requirement_count,
            "flagged_count": report.summary.flagged_count,
            "degenerate_count": report.summary.degenerate_count,
            "metrics": {
                metric: {"min": stat.minimum, "mean": stat.mean, "max": stat.maximum}
                for metric, stat in report.summary.metrics.items()
            },
        },
    }
    text = json.dumps(head, indent=2, ensure_ascii=False)
    # The head ends with "\n}"; the requirements array becomes its last key.
    parts = [text[:-2], ',\n  "requirements": ']
    if report.entries:
        parts.append("[\n")
        parts.append(",\n".join(
            _requirement_json(entry, encode_basestring) for entry in report.entries
        ))
        parts.append("\n  ]")
    else:
        parts.append("[]")
    parts.append("\n}\n")
    return "".join(parts).encode("utf-8")


_METRICS_JSON = ",\n".join(f'        "{metric}": {{}}' for metric in ALL_METRICS)

_SPAN_JSON = (
    "        {{\n"
    '          "metric": {},\n'
    '          "phrase": {},\n'
    '          "start": {},\n'
    '          "end": {}\n'
    "        }}"
)


def _array_json(items: Sequence[str]) -> str:
    """A JSON array in a requirement field, from already encoded items."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n      ]"


def _requirement_json(entry: RequirementEntry, encode: Callable[[str], str]) -> str:
    # Leaves are written as json.dumps writes them: strings with ``encode``,
    # the encoder it uses for ensure_ascii=False, ints with str and floats
    # with repr.
    vector = entry.vector
    values = [_metric_cell(vector.value(metric)) for metric in ALL_METRICS]
    spans = _array_json([
        _SPAN_JSON.format(encode(span.metric), encode(span.phrase), span.start, span.end)
        for span in vector.spans
    ])
    flags = _array_json(["        " + encode(flag) for flag in entry.flags])
    warnings = _array_json(["        " + encode(warning) for warning in entry.warnings])
    return (
        "    {\n"
        f'      "id": {encode(entry.id)},\n'
        f'      "metrics": {{\n{_METRICS_JSON.format(*values)}\n      }},\n'
        f'      "spans": {spans},\n'
        f'      "flags": {flags},\n'
        f'      "warnings": {warnings}\n'
        "    }"
    )


def _metric_cell(value: float) -> str:
    # Counts stay integers; ARI uses the shortest float representation.
    return repr(value) if isinstance(value, float) else str(value)


def render_csv(report: AnalysisReport) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", *ALL_METRICS, "flags"])
    for entry in report.entries:
        writer.writerow(
            [
                entry.id,
                *(_metric_cell(entry.vector.value(metric)) for metric in ALL_METRICS),
                ";".join(entry.flags),
            ]
        )
    return buffer.getvalue().encode("utf-8")


def render_table(report: AnalysisReport) -> bytes:
    headers = ["id", *ALL_METRICS, "flags"]
    rows: list[list[str]] = []
    for entry in report.entries:
        cells = [entry.id]
        for metric in ALL_METRICS:
            value = entry.vector.value(metric)
            cells.append(f"{value:.2f}" if isinstance(value, float) else str(value))
        cells.append(";".join(entry.flags))
        rows.append(cells)

    widths = [len(header) for header in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            # id and flags left-aligned, numbers right-aligned
            if i == 0 or i == len(cells) - 1:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = [fmt_row(headers), fmt_row(["-" * width for width in widths])]
    lines.extend(fmt_row(row) for row in rows)
    summary = report.summary
    lines.append("")
    lines.append(
        f"requirements: {summary.requirement_count}  "
        f"flagged: {summary.flagged_count}  "
        f"degenerate: {summary.degenerate_count}"
    )
    lines.append("")
    lines.append("metric     min    mean     max")
    for metric in ALL_METRICS:
        stat = summary.metrics[metric]
        lines.append(
            f"{metric:<6}{stat.minimum:>8.2f}{stat.mean:>8.2f}{stat.maximum:>8.2f}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
