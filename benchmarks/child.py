"""Child-process roles of the benchmark, one per invocation.

    child.py setup  DICTFILE|-                 time `import reqsmell` + config build
    child.py calls  INPUT DICTFILE|- CALLS SAMPLE RESULTS LATENCIES
                                               closed-loop analyze_text, one caller
    child.py trace  SPANS -- CLI-ARGS...       the CLI with spans around each layer

Only ``sys``, ``os`` and ``time`` are imported before the timed import of
reqsmell, so the standard-library modules reqsmell pulls in are part of
what is timed, as in a fresh ``python -m reqsmell``.
"""

import os
import sys
import time


def _config(dictfile):
    from reqsmell import AnalysisConfig, builtin_dictionaries, load_dictionary_file

    dictionaries = load_dictionary_file(dictfile) if dictfile != "-" else builtin_dictionaries()
    return AnalysisConfig.from_dictionaries(dictionaries)


def setup(dictfile):
    """Print seconds spent importing reqsmell and building its config."""
    start = time.perf_counter()
    import reqsmell  # noqa: F401

    _config(dictfile)
    print(repr(time.perf_counter() - start))


def calls(input_path, dictfile, count, sample, results_path, latencies_path):
    """Call analyze_text ``count`` times, one at a time, cycling through the
    input texts in file order.

    Writes each call's latency in ns (int64, native order) and, for the rows
    listed in ``sample``, the counts and spans for the correctness check.
    Warm-up calls on the first texts are not recorded.
    """
    import csv
    import json
    from array import array

    from reqsmell import analyze_text

    config = _config(dictfile)
    with open(input_path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        text_index = next(reader).index("Text")
        texts = [row[text_index] for row in reader]
    for text in texts[:200]:
        analyze_text(text, config)

    wanted = {int(i) for i in sample.split(",")} if sample else set()
    latencies = array("q")
    results = {}
    failures = 0
    clock = time.perf_counter_ns
    for call in range(int(count)):
        index = call % len(texts)
        text = texts[index]
        start = clock()
        try:
            vector = analyze_text(text, config)
        except Exception as exc:  # a failed call is counted, not fatal
            failures += 1
            print(f"call on row {index} failed: {exc!r}", file=sys.stderr)
            continue
        latencies.append(clock() - start)
        if index in wanted and call == index:
            results[index] = {
                "counts": {metric: vector.value(metric) for metric in vector.counts},
                "spans": [list(span) for span in vector.spans],
            }
    with open(latencies_path, "wb") as handle:
        latencies.tofile(handle)
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"failures": failures, "results": results}, handle)


class _Spans:
    """In-memory span log: (name id, start ns, end ns, a, b) per call.

    ``a`` and ``b`` are per-call work counts chosen by each wrapper (tokens
    produced, matches found, ...). Nesting is recovered afterwards from the
    intervals, which keeps each wrapper to two clock reads and one append.
    """

    def __init__(self):
        self.names = []
        self.log = []

    def wrap(self, name, fn, measure=None):
        name_id = len(self.names)
        self.names.append(name)
        append = self.log.append
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            a, b = measure(args, result) if measure else (0, 0)
            append((name_id, start, end, a, b))
            return result

        return traced

    @staticmethod
    def outside_cost_ns(calls=5000, blocks=5):
        """Wrapper cost per span that falls outside the span itself, in ns.

        It lands in the caller's self time, so the reader subtracts it once
        per child span. Measured as a wrapped no-op call minus a plain call
        minus the span's own length, median of ``blocks``, on the shape of
        the most frequent span (``find_matches``).
        """
        probe = _Spans()
        plain = lambda matcher, words: []  # noqa: E731
        traced = probe.wrap("probe", plain, lambda args, result: (len(args[1]), len(result)))
        clock = time.perf_counter_ns
        words = []
        costs = []
        for _ in range(blocks):
            probe.log.clear()
            start = clock()
            for _ in range(calls):
                plain(None, words)
            middle = clock()
            for _ in range(calls):
                traced(None, words)
            end = clock()
            inside = sum(record[2] - record[1] for record in probe.log)
            costs.append((end - 2 * middle + start - inside) / calls)
        return sorted(costs)[blocks // 2]

    def patch(self, owner, attr, name, measure=None, static=False):
        """Replace ``owner.attr`` by a traced wrapper if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        wrapped = self.wrap(name, fn, measure)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)


def _report_counts(args, report):
    spans = sum(len(entry.vector.spans) for entry in report.entries)
    return report.summary.flagged_count, spans


def trace(spans_path, argv):
    """Run the CLI in-process with spans around the public calls of each
    module, then write the spans; exit with the CLI's exit code."""
    start = time.perf_counter_ns()
    from reqsmell import cli

    import_ns = time.perf_counter_ns() - start
    from reqsmell import dictionaries, metrics, reporting

    spans = _Spans()
    size = lambda args, result: (len(result), 0)  # noqa: E731
    spans.patch(cli, "load_requirements", "ingestion.load_requirements",
                lambda args, result: (len(result), os.path.getsize(args[0])))
    spans.patch(cli, "builtin_dictionaries", "dictionaries.load")
    spans.patch(cli, "load_dictionary_file", "dictionaries.load")
    spans.patch(metrics.AnalysisConfig, "from_dictionaries", "metrics.config", static=True)
    spans.patch(cli, "build_report", "reporting.build_report", _report_counts)
    spans.patch(cli, "render", "reporting.render", size)
    spans.patch(reporting, "analyze_text", "metrics.analyze_text")
    spans.patch(metrics, "normalize", "text.normalize")
    spans.patch(metrics, "tokenize", "text.tokenize", size)
    spans.patch(metrics, "split_sentences", "text.split_sentences", size)
    spans.patch(metrics, "compute_readability", "metrics.compute_readability")
    spans.patch(dictionaries.PhraseMatcher, "find_matches", "dictionaries.find_matches",
                lambda args, result: (len(args[1]), len(result)))

    code = cli.run(argv)

    import json
    from array import array
    from itertools import chain

    with open(spans_path + ".bin", "wb") as handle:
        array("q", chain.from_iterable(spans.log)).tofile(handle)
    header = {"names": spans.names, "import_ns": import_ns, "outside_ns": _Spans.outside_cost_ns()}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(header, handle)
    sys.exit(code)


def main(argv):
    role, rest = argv[0], argv[1:]
    if role == "setup":
        setup(*rest)
    elif role == "calls":
        calls(*rest)
    elif role == "trace":
        trace(rest[0], rest[2:])
    else:
        sys.exit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
