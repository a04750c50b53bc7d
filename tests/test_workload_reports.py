"""The three benchmark workloads' reports, pinned byte for byte.

Each workload of ``benchmarks/workloads.py`` is generated at seed 7 with its
default row count and run through ``cli.run`` with its own flags, the rules
in ``thresholds.txt`` and each report format. The csv reports are committed
as ``data/report_<workload>.csv``, so a diff names every row whose values or
flags moved; the json and table reports are pinned by their sha256 in
``data/workload_reports.sha256``. After an intended change, rewrite those
files with ``PYTHONPATH=src python tests/test_workload_reports.py`` and give
the rows moved per workload in CHANGES.md.

The heap that the lint-calls glossary and report hold is bounded here too,
under ``tracemalloc``.
"""

import gc
import hashlib
import importlib.util
import sys
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

from reqsmell.cli import run
from reqsmell.dictionaries import builtin_dictionaries, load_dictionary_file
from reqsmell.ingestion import Requirement
from reqsmell.metrics import AnalysisConfig
from reqsmell.reporting import build_report, load_threshold_file

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "workload_reports.sha256"
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
SEED = 7


@cache
def _workloads():
    """``benchmarks/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks up the module that defines a class
    spec.loader.exec_module(workloads)
    return workloads


def _reports(directory: Path) -> dict[str, bytes]:
    """Every workload's csv, json and table report, by its pinned file name."""
    workloads = _workloads()
    builtins = builtin_dictionaries()
    reports = {}
    for name in workloads.WORKLOADS:
        workload = workloads.generate(name, SEED, workloads.DEFAULT_ROWS[name], builtins)
        paths = workloads.write_workload(workload, directory)
        glossary = paths.get("glossary")
        args = [a.format(thresholds=DATA / "thresholds.txt", glossary=glossary) for a in workload.cli_args]
        for fmt in ("csv", "json", "table"):
            args[args.index("--format") + 1] = fmt
            output = directory / f"report_{name}.{fmt}"
            assert run(["--input", str(paths["input"]), *args, "--output", str(output)]) == workload.exit_code
            reports[output.name] = output.read_bytes()
    return reports


def test_workload_reports_match_the_pinned_bytes(tmp_path):
    reports = _reports(tmp_path)
    digests = {name: digest for digest, name in (line.split("  ") for line in DIGESTS.read_text().splitlines())}
    assert sorted(digests) == sorted(name for name in reports if not name.endswith(".csv"))
    for name, report in reports.items():
        if name in digests:
            assert hashlib.sha256(report).hexdigest() == digests[name], name
            continue
        pinned = (DATA / name).read_bytes()
        moved = sorted({line.split(b",", 1)[0] for line in set(report.splitlines()) ^ set(pinned.splitlines())})
        assert not moved, f"{name}: rows moved: {b' '.join(moved[:20]).decode()}"
        assert report == pinned, name


def _lint_calls(directory: Path):
    """The lint-calls workload at the pinned seed and its written glossary."""
    workloads = _workloads()
    workload = workloads.generate("lint-calls", SEED, workloads.DEFAULT_ROWS["lint-calls"], builtin_dictionaries())
    return workload, workloads.write_workload(workload, directory)["glossary"]


def _heap(build):
    """``build()`` and the bytes it leaves allocated. The collection first
    empties CPython's free lists, so every object ``build`` makes is traced,
    and an object it leaves on a free list is counted."""
    gc.collect()
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestLintCallsMemory:
    """The lint-calls glossary holds each word once, and neither its compile
    nor the report leaves a batch of dead tuples behind."""

    def test_equal_glossary_words_are_one_object(self, tmp_path):
        _, glossary = _lint_calls(tmp_path)
        words = [
            word
            for dictionary in load_dictionary_file(glossary).values()
            for pattern in dictionary.patterns
            for word in pattern.tokens
        ]
        assert len(words) > 4 * len(set(words))  # the glossary repeats its words
        assert len(set(map(id, words))) == len(set(words))

    def test_glossary_heap_per_phrase(self, tmp_path):
        workload, glossary = _lint_calls(tmp_path)
        phrases = sum(map(len, workload.glossary.values()))
        _, heap = _heap(lambda: AnalysisConfig.from_dictionaries(load_dictionary_file(glossary)))
        # Patterns, trie and tables hold 570-620 bytes a phrase on CPython
        # 3.10-3.13. A copy of each word per phrase adds about 100 more, and
        # 2,000 dead 4-tuples left by the compile about 50.
        assert heap < 640 * phrases

    def test_report_heap_per_row(self, tmp_path):
        workload, glossary = _lint_calls(tmp_path)
        config = AnalysisConfig.from_dictionaries(load_dictionary_file(glossary))
        rules = load_threshold_file(DATA / "thresholds.txt")
        requirements = [Requirement(id_, text, row) for row, (id_, text) in enumerate(workload.rows, start=2)]
        report, heap = _heap(lambda: build_report(requirements, config, rules, spans=False))
        assert len(report.entries) == len(requirements) >= 2000
        # A row's entry, vector and values hold about 290 bytes; a dead flag
        # tuple per row left on a free list adds about 80 more.
        assert heap < 330 * len(requirements)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digest_lines = []
        for name, report in _reports(Path(scratch)).items():
            if name.endswith(".csv"):
                (DATA / name).write_bytes(report)
            else:
                digest_lines.append(f"{hashlib.sha256(report).hexdigest()}  {name}\n")
        DIGESTS.write_text("".join(digest_lines))
