"""The three benchmark workloads' reports, pinned byte for byte.

Each workload of ``benchmarks/workloads.py`` is generated at seed 7 with its
default row count and run through ``cli.run`` with its own flags, the rules
in ``thresholds.txt`` and each report format. The csv reports are committed
as ``data/report_<workload>.csv``, so a diff names every row whose values or
flags moved; the json and table reports are pinned by their sha256 in
``data/workload_reports.sha256``. After an intended change, rewrite those
files with ``PYTHONPATH=src python tests/test_workload_reports.py`` and give
the rows moved per workload in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

from reqsmell.cli import run
from reqsmell.dictionaries import builtin_dictionaries

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "workload_reports.sha256"
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
SEED = 7


def _reports(directory: Path) -> dict[str, bytes]:
    """Every workload's csv, json and table report, by its pinned file name."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks up the module that defines a class
    spec.loader.exec_module(workloads)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digest_lines = []
        for name, report in _reports(Path(scratch)).items():
            if name.endswith(".csv"):
                (DATA / name).write_bytes(report)
            else:
                digest_lines.append(f"{hashlib.sha256(report).hexdigest()}  {name}\n")
        DIGESTS.write_text("".join(digest_lines))
