"""Threshold flagging, corpus summary, and report rendering.

Reports are written as UTF-8 into a binary stream while they are rendered,
and are byte-identical for identical inputs: no timestamps, fixed key order,
fixed newline convention. No thresholds ship by default; raw metric values
are always reported and flags only appear when the user supplies rules.
"""

import codecs
import io
import math
import os
from collections import namedtuple
from operator import ge, gt

from . import __version__
from .errors import MalformedFileError, ValidatedTuple, _Memo, parse_file
from .metrics import ALL_METRICS, AnalysisConfig, MetricVector, analyze_text

TOOL_NAME = "reqsmell"

# What each comparator tests, as ``comparison(value, limit)``.
_COMPARISONS = {">": gt, ">=": ge}


class ThresholdRule(ValidatedTuple, namedtuple("ThresholdRule", "metric_id comparator limit")):
    """Flag a requirement when ``metric value OP limit`` holds."""

    __slots__ = ()

    def __new__(cls, metric_id, comparator, limit):
        if metric_id not in ALL_METRICS:
            raise ValueError(f"unknown metric {metric_id!r}")
        if comparator not in _COMPARISONS:
            raise ValueError(f"unknown comparator {comparator!r}")
        if isinstance(limit, bool) or not isinstance(limit, (int, float)) or not math.isfinite(limit):
            # NaN never fires, infinity is never reached, and a bool renders as true/false.
            raise ValueError(f"limit must be a finite number, got {limit!r}")
        if limit < 0:
            raise ValueError("limit must be non-negative")
        return tuple.__new__(cls, (metric_id, comparator, limit))


def parse_threshold_rules(lines) -> tuple[ThresholdRule, ...]:
    """Parse ``METRIC OP LIMIT`` lines; ``#`` starts a comment."""
    rules: dict[str, ThresholdRule] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise MalformedFileError(f"expected 'METRIC OP LIMIT', got {line!r}", lineno)
        metric, comparator, raw_limit = fields
        try:
            limit = float(raw_limit) + 0.0  # -0 loads as 0.0
        except ValueError:
            raise MalformedFileError(f"invalid limit {raw_limit!r}", lineno) from None
        try:
            rule = ThresholdRule(metric, comparator, limit)
        except ValueError as exc:
            raise MalformedFileError(str(exc), lineno) from None
        if metric in rules:
            raise MalformedFileError(f"duplicate rule for metric {metric}", lineno)
        rules[metric] = rule
    return tuple(rules[m] for m in ALL_METRICS if m in rules)


def load_threshold_file(path: str | os.PathLike[str]) -> tuple[ThresholdRule, ...]:
    return parse_file(path, parse_threshold_rules)


def _compile_rules(rules: tuple[ThresholdRule, ...]) -> tuple[tuple, ...]:
    """``(value index, comparison, limit, metric id)`` per rule, in report
    order; two rules for one metric are a ``ValueError``."""
    by_metric: dict[str, ThresholdRule] = {}
    for rule in rules:
        if rule.metric_id in by_metric:
            raise ValueError(f"duplicate rule for metric {rule.metric_id}")
        by_metric[rule.metric_id] = rule
    return tuple(
        (index, _COMPARISONS[rule.comparator], rule.limit, metric)
        for index, metric in enumerate(ALL_METRICS)
        if (rule := by_metric.get(metric)) is not None
    )


class RequirementEntry(namedtuple("RequirementEntry", "id vector flags")):
    """Per-requirement results: id, :class:`MetricVector` and the tuple of
    flagged metric ids."""

    __slots__ = ()


MetricSummary = namedtuple("MetricSummary", "minimum mean maximum")

# metrics: a dict from metric id to its MetricSummary, in report order.
ReportSummary = namedtuple("ReportSummary", "requirement_count flagged_count degenerate_count metrics")


class AnalysisReport(namedtuple(
    "AnalysisReport", "config rules column_mapping entries summary with_spans", defaults=(True,)
)):
    """A corpus analysis: what shaped it (config, rules, column mapping or
    None), then its results in corpus order (entries, summary).
    ``with_spans`` is false when its vectors hold no match spans."""

    __slots__ = ()


def _summarize(entries: list[RequirementEntry]) -> ReportSummary:
    """Aggregate per-metric min/mean/max, skipping degenerate entries.

    Degenerate (token-free) requirements are excluded from the metric
    statistics so blank rows cannot dilute corpus means; they are counted
    separately. An empty corpus yields all-zero statistics.
    """
    live = [entry.vector.values for entry in entries if not entry.vector.degenerate]
    if live:
        # zip yields one column at a time, so only one column is alive.
        # fsum rounds once, so the mean does not depend on the Python
        # version: sum() changed how it adds floats in 3.12.
        stats = {
            metric: MetricSummary(min(column), math.fsum(column) / len(column), max(column))
            for metric, column in zip(ALL_METRICS, zip(*live))
        }
    else:
        stats = dict.fromkeys(ALL_METRICS, MetricSummary(0, 0.0, 0))
    return ReportSummary(
        requirement_count=len(entries),
        flagged_count=sum(1 for entry in entries if entry.flags),
        degenerate_count=len(entries) - len(live),
        metrics=stats,
    )


def build_report(
    requirements,
    config: AnalysisConfig,
    rules=(),
    column_mapping=None,
    spans: bool = True,
) -> AnalysisReport:
    """Analyze a corpus and assemble the full report, in corpus order.
    ``requirements`` is any iterable of :class:`Requirement`, read once; the
    report keeps only their ids. ``column_mapping`` is the
    :class:`ColumnMapping` the corpus was read with, or None. With ``spans``
    false no match span is built, and the report has no JSON form. Entries
    share one tuple per distinct span and per distinct flag set."""
    rules = tuple(rules)  # read twice below, so an iterator is consumed once, here
    compiled = _compile_rules(rules)
    # Most spans and flag sets repeat across rows; keeping the first of each
    # lets the copies die now instead of living until the report is written.
    share = {}.setdefault
    entries: list[RequirementEntry] = []
    for requirement in requirements:
        vector = analyze_text(requirement.text, config, spans)
        if vector.spans:
            vector = MetricVector(vector.values, vector.degenerate, tuple(map(share, vector.spans, vector.spans)))
        # Exact size: tuple(<generator>) is resized, so its dead duplicates would pile up on a free list.
        flags = tuple([metric for index, violated, limit, metric in compiled if violated(vector.values[index], limit)])
        entries.append(RequirementEntry(requirement.id, vector, share(flags, flags)))
    return AnalysisReport(config, rules, column_mapping, tuple(entries), _summarize(entries), spans)


def write_report(report: AnalysisReport, fmt: str, stream) -> None:
    """Write the report in the requested format into the binary ``stream``
    as UTF-8, piece by piece as it is rendered, so the rendered report is
    never held whole. The stream is neither flushed nor closed."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown report format {fmt!r}")
    _WRITERS[fmt](report, stream)


def render(report: AnalysisReport, fmt: str) -> bytes:
    """The report as the UTF-8 bytes that ``write_report`` writes."""
    buffer = io.BytesIO()
    write_report(report, fmt, buffer)
    return buffer.getvalue()


def _config_payload(report: AnalysisReport) -> dict:
    # The column mapping is keyed by its tuple's field names, so renaming a
    # field changes the report.
    return {
        "column_mapping": None if report.column_mapping is None else report.column_mapping._asdict(),
        "dictionaries": {
            metric: {"origin": dictionary.origin, "pattern_count": len(dictionary.patterns)}
            for metric, dictionary in report.config.dictionaries.items()
        },
        "thresholds": [
            {"metric": rule.metric_id, "comparator": rule.comparator, "limit": rule.limit}
            for rule in report.rules
        ],
    }


def _write_json(report: AnalysisReport, stream) -> None:
    """Write the report as ``json.dumps(payload, indent=2,
    ensure_ascii=False)`` plus a newline would, byte for byte. The payload's
    "tool" and "version" are the package's, and a requirement's "warnings"
    list holds one warning exactly when it is degenerate.

    Only the small head goes through ``json.dumps``, whose indenting encoder
    is pure Python. The requirements array has a fixed schema and is written
    from templates, with each string leaf through the C string encoder.
    """
    if not report.with_spans:  # empty span lists would read as "no matches"
        raise ValueError("a report built without spans has no JSON form")
    # Imported here, not at module level: only this format needs json.
    import json
    from json.encoder import encode_basestring

    head = {
        "tool": TOOL_NAME,
        "version": __version__,
        "config": _config_payload(report),
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
    # Each requirement is encoded and written on its own, so only one of
    # them exists as text and bytes at a time.
    write = stream.write
    # The head ends with "\n}"; the requirements array becomes its last key.
    write(f'{text[:-2]},\n  "requirements": '.encode())
    # A span object in two parts: its text up to the "start" value, per
    # (metric, phrase), and the rest, per (start, end). A report repeats few
    # distinct pairs of either many times.
    span_heads = _Memo(lambda pair: _SPAN_HEAD % tuple(map(encode_basestring, pair)))
    span_tails = _Memo(_SPAN_TAIL.__mod__)
    separator = b"[\n"
    for entry in report.entries:
        write(separator)
        write(_requirement_json(entry, encode_basestring, span_heads, span_tails).encode())
        separator = b",\n"
    write(b"\n  ]\n}\n" if report.entries else b"[]\n}\n")


# Leaves are written as json.dumps writes them: strings with the C encoder
# it uses for ensure_ascii=False, numbers with %s, which is str for ints and
# the shortest repr for floats.
_REQUIREMENT_JSON = (
    "    {\n"
    '      "id": %s,\n'
    '      "metrics": {\n'
    + ",\n".join(f'        "{metric}": %s' for metric in ALL_METRICS)
    + "\n      },\n"
    '      "spans": %s,\n'
    '      "flags": %s,\n'
    '      "warnings": %s\n'
    "    }"
)

_SPAN_HEAD = (
    "        {\n"
    '          "metric": %s,\n'
    '          "phrase": %s,\n'
    '          "start": '
)

_SPAN_TAIL = '%s,\n          "end": %s\n        }'


def _array_json(items: list[str]) -> str:
    """A JSON array in a requirement field, from already encoded items."""
    body = ",\n".join(items)
    return "[\n" + body + "\n      ]" if body else "[]"


# The warnings array, indexed by whether the requirement is degenerate.
_WARNINGS = ("[]", _array_json(['        "requirement text contains no words"']))


def _requirement_json(entry: RequirementEntry, encode, span_heads: _Memo, span_tails: _Memo) -> str:
    vector = entry.vector
    return _REQUIREMENT_JSON % (
        encode(entry.id),
        *vector.values,
        _array_json([span_heads[metric, phrase] + span_tails[start, end] for metric, phrase, start, end in vector.spans]),
        _array_json(["        " + encode(flag) for flag in entry.flags]),
        _WARNINGS[vector.degenerate],
    )


def _write_csv(report: AnalysisReport, stream) -> None:
    import csv  # imported here: only this format needs it
    # csv.writer writes each row with one call, which the codec writer
    # encodes and passes on; unlike a TextIOWrapper, it never closes the
    # stream it wraps.
    writer = csv.writer(codecs.getwriter("utf-8")(stream), lineterminator="\n")
    writer.writerow(["id", *ALL_METRICS, "flags"])
    # csv writes ints with str and floats with repr, as the JSON report does.
    writer.writerows(
        (entry.id, *entry.vector.values, ";".join(entry.flags))
        for entry in report.entries
    )


def _table_cell(value: float) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def printable(text: str) -> str:
    """``text`` with each non-printable character escaped as Python escapes
    it ("\\n", "\\x85", "\\u2028"), so a table row or a diagnostic stays
    on one line."""
    return text if text.isprintable() else "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _columns(text: str) -> int:
    """Terminal columns of printable ``text``: East Asian wide and fullwidth
    characters take two, combining marks none, every other character one."""
    if text.isascii():
        return len(text)
    import unicodedata  # imported here: only non-ASCII ids need it
    return sum(
        0 if unicodedata.category(c) in ("Mn", "Me")
        else 2 if unicodedata.east_asian_width(c) in ("W", "F")
        else 1
        for c in text
    )


def _write_table(report: AnalysisReport, stream) -> None:
    headers = ["id", *ALL_METRICS, "flags"]
    rows = [
        [printable(entry.id), *map(_table_cell, entry.vector.values), ";".join(entry.flags)]
        for entry in report.entries
    ]

    widths = [max(map(_columns, column)) for column in zip(headers, *rows)]
    # id and flags left-aligned, numbers right-aligned. Only the id can hold
    # non-ASCII text, so only it is padded by hand: str.format counts code
    # points, not terminal columns.
    template = "  ".join(
        ["{}", *(f"{{:>{width}}}" for width in widths[1:-1]), f"{{:<{widths[-1]}}}"]
    )

    dashes = ["-" * width for width in widths]
    write = stream.write
    for row in (headers, dashes, *rows):
        line = template.format(row[0] + " " * (widths[0] - _columns(row[0])), *row[1:])
        write((line.rstrip() + "\n").encode())
    summary = report.summary
    write((
        f"\nrequirements: {summary.requirement_count}  "
        f"flagged: {summary.flagged_count}  "
        f"degenerate: {summary.degenerate_count}\n"
        "\nmetric     min    mean     max\n"
    ).encode())
    for metric in ALL_METRICS:
        stat = summary.metrics[metric]
        write(f"{metric:<6}{stat.minimum:>8.2f}{stat.mean:>8.2f}{stat.maximum:>8.2f}\n".encode())


# The writer of each report format; --format offers them in this order.
_WRITERS = {"json": _write_json, "csv": _write_csv, "table": _write_table}
REPORT_FORMATS = tuple(_WRITERS)
