"""reqsmell benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 benchmarks/run.py --workload export-json --seed 1 --seconds 36 --trace 0

Run from the repository root (the program is imported from ``src/``; the
golden reports, threshold file and matcher oracle from ``tests/``). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Earlier lines give the environment and every metric with its
unit, plus ``error_ratio`` = failed / attempted.

``--trace 0`` measures, interleaved round by round for ``--seconds``:

* ``setup_s``: a fresh process runs ``import reqsmell`` and builds the
  workload's ``AnalysisConfig`` (timed inside the child);
* ``run_s`` / ``peak_rss_mb``: one ``python -m reqsmell`` run over the
  workload file with the workload's flags (wall time from process start to
  exit, and peak RSS, both taken by a lean launcher);
* ``call_p50_us`` / ``call_p99_us``: per-call latency of ``analyze_text``
  over the workload's texts, closed loop, one caller, in batches of at
  least 1000 calls, each batch a fresh process.

Each timing is the 95th percentile (by rank) of the run's repetitions:
set-up probes, CLI runs, and call batches (a batch's value is its median
call). ``call_p99_us`` is the 99th percentile of all the run's calls and
``peak_rss_mb`` the median CLI peak. Why the upper tail: the shared 2-core
host this was tuned on switches, for seconds to minutes at a time, between
a contended state and a free one about 1.6x faster. A median then reports
how much of the run fell in each state, and its spread across ten seeds
(quartile distance over median) reached 0.6; an upper-tail rank reads the
contended state whenever a few repetitions saw it, and kept that spread
between 0.07 and 0.18. Repetitions are short (about 0.5 s) to give
a run a few dozen of them.

``--trace 1`` alternates untraced CLI runs with CLI runs under ``child.py
trace`` and reports the per-module sums of the median traced run (by wall
time), plus ``trace.overhead_ratio`` = its wall time / the median untraced
wall time.

Every operation is checked. An operation is one CLI run or one library call;
it fails on a wrong exit code, an exception, or output that disagrees with
the reference. The reference is the golden reports (checked each run) and
``tests/oracle.py:naive_metric_spans`` on a seeded sample of rows, applied
to the CLI's own report and the library calls' own results; every later
report must repeat the first one byte for byte.

``--rows N`` overrides the workload size, e.g. ``--rows 10000`` on
``export-json`` with ``--trace 1`` for the 10k baseline split.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import workloads
from workloads import DICTIONARY_METRICS as METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "tests" / "data"
THRESHOLDS = DATA / "thresholds.txt"
REQUIRED = (
    ROOT / "src" / "reqsmell" / "__init__.py",
    ROOT / "tests" / "oracle.py",
    DATA / "sample_corpus.csv",
    DATA / "golden_report.json",
    DATA / "golden_report.csv",
    THRESHOLDS,
)
SAMPLE_ROWS = 40
MIN_CALLS = 1000
MIN_ROUNDS = 2
DEADLINE_S = 170.0


class Launcher:
    """Client of ``launcher.py``, started before any workload data exists."""

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: Path) -> dict:
        request = {
            "argv": [sys.executable, *argv], "cwd": str(ROOT), "env": self.env,
            "stdout": str(stdout), "stderr": str(stdout) + ".err",
            "timeout": max(5.0, self.deadline - time.monotonic()),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        result = json.loads(reply)
        if result["returncode"] not in (0, 1, 2):
            err = Path(request["stderr"]).read_text(errors="replace")[-2000:]
            print(f"child {argv[:2]} exited {result['returncode']}: {err}", file=sys.stderr)
        return result

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED {failed}/{attempted}: {what}", file=sys.stderr)


# ---------------------------------------------------------------- reference


def oracle_dictionaries(workload):
    from reqsmell import Dictionary, PhrasePattern, builtin_dictionaries

    if workload.glossary is None:
        return builtin_dictionaries()
    return {
        metric: Dictionary(
            metric, frozenset(PhrasePattern(tokens, slot) for tokens, slot in patterns),
            origin="user-file",
        )
        for metric, patterns in workload.glossary.items()
    }


def oracle_expectations(workload, sample: list[int]) -> dict[int, dict[str, list]]:
    """Oracle spans per sampled row and metric, as (start, end, phrase)."""
    from oracle import naive_metric_spans

    dictionaries = oracle_dictionaries(workload)
    texts = workload.texts
    return {
        row: {m: [tuple(s) for s in naive_metric_spans(texts[row], dictionaries[m])] for m in METRICS}
        for row in sample
    }


def check_report(workload, payload: bytes, fmt: str, expected) -> list[str]:
    """Problems with a CLI report, checked against ids and oracle spans."""
    problems: list[str] = []
    ids = workload.ids
    if fmt == "json":
        report = json.loads(payload)
        entries = report["requirements"]
        if [e["id"] for e in entries] != ids:
            problems.append("ids or row count differ")
            return problems
        if report["summary"]["requirement_count"] != len(ids):
            problems.append("summary requirement_count differs")
        for row, by_metric in expected.items():
            entry = entries[row]
            for metric, spans in by_metric.items():
                got = [(s["start"], s["end"], s["phrase"]) for s in entry["spans"] if s["metric"] == metric]
                if entry["metrics"][metric] != len(spans) or got != spans:
                    problems.append(f"row {row} metric {metric}: report disagrees with oracle")
    else:
        rows = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
        header = rows[0] if rows else []
        if header[:8] != ["id", *METRICS] or [r[0] for r in rows[1:]] != ids:
            problems.append("header, ids or row count differ")
            return problems
        for row, by_metric in expected.items():
            cells = dict(zip(header, rows[row + 1]))
            for metric, spans in by_metric.items():
                if cells[metric] != str(len(spans)):
                    problems.append(f"row {row} metric {metric}: count disagrees with oracle")
    return problems


def check_calls(results: dict, expected) -> list[str]:
    """Problems with the library calls' sampled results."""
    problems: list[str] = []
    for row, by_metric in expected.items():
        got = results.get(str(row))
        if got is None:
            problems.append(f"row {row}: no result")
            continue
        for metric, spans in by_metric.items():
            found = [(s[2], s[3], s[1]) for s in got["spans"] if s[0] == metric]
            if got["counts"][metric] != len(spans) or found != spans:
                problems.append(f"row {row} metric {metric}: call disagrees with oracle")
    return problems


# ---------------------------------------------------------------- trace


def layer_metrics(spans_path: Path) -> dict[str, float]:
    """Per-module sums of one traced CLI run."""
    header = json.loads(spans_path.read_text())
    flat = array("q")
    flat.frombytes(Path(str(spans_path) + ".bin").read_bytes())
    names = header["names"]
    records = sorted(
        (flat[i + 1], flat[i + 2], names[flat[i]], flat[i + 3], flat[i + 4])
        for i in range(0, len(flat), 5)
    )
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    work_a: dict[str, int] = {}
    work_b: dict[str, int] = {}
    # Spans come from one thread, so they nest: a stack of open spans gives
    # each span's parent. A span's self time is its duration minus its
    # children's durations and minus the wrapper cost each child adds outside
    # its own span (calibrated by the traced process).
    outside_ns = header["outside_ns"]
    stack: list[list] = []  # [end, name, duration, children's ns, child count]

    def close(span):
        _, name, duration, children_ns, count = span
        self_ns[name] = self_ns.get(name, 0) + duration - children_ns - count * outside_ns

    for start, end, name, a, b in records:
        while stack and stack[-1][0] <= start:
            close(stack.pop())
        if stack:
            stack[-1][3] += end - start
            stack[-1][4] += 1
        stack.append([end, name, end - start, 0, 0])
        total[name] = total.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        work_a[name] = work_a.get(name, 0) + a
        work_b[name] = work_b.get(name, 0) + b
    while stack:
        close(stack.pop())

    def seconds(values, name):
        return values.get(name, 0) / 1e9

    scanned = work_a.get("dictionaries.find_matches", 0)
    matches = work_b.get("dictionaries.find_matches", 0)
    return {
        "cli.import_s": header["import_ns"] / 1e9,
        "ingestion.load_requirements_s": seconds(total, "ingestion.load_requirements"),
        "ingestion.rows": work_a.get("ingestion.load_requirements", 0),
        "ingestion.input_mb": work_b.get("ingestion.load_requirements", 0) / 1e6,
        "text.normalize_s": seconds(total, "text.normalize"),
        "text.tokenize_s": seconds(total, "text.tokenize"),
        "text.split_sentences_s": seconds(total, "text.split_sentences"),
        "text.tokens": work_a.get("text.tokenize", 0),
        "text.sentences": work_a.get("text.split_sentences", 0),
        "dictionaries.load_s": seconds(total, "dictionaries.load"),
        "dictionaries.find_matches_s": seconds(total, "dictionaries.find_matches"),
        "dictionaries.find_matches_calls": calls.get("dictionaries.find_matches", 0),
        "dictionaries.matches": matches,
        "dictionaries.match_ratio": matches / scanned if scanned else 0.0,
        "metrics.config_s": seconds(total, "metrics.config"),
        "metrics.compute_readability_s": seconds(total, "metrics.compute_readability"),
        "metrics.analyze_text_self_s": seconds(self_ns, "metrics.analyze_text"),
        "reporting.build_report_self_s": seconds(self_ns, "reporting.build_report"),
        "reporting.render_s": seconds(total, "reporting.render"),
        "reporting.spans": work_b.get("reporting.build_report", 0),
        "reporting.output_mb": work_a.get("reporting.render", 0) / 1e6,
        "reporting.flagged": work_a.get("reporting.build_report", 0),
    }


# ---------------------------------------------------------------- run


def environment() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reqsmell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": str(os.cpu_count()),
    }


def percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(args) -> tuple[dict, Tally]:
    started = time.monotonic()
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(ROOT / "src"),
        "LANG": "C.UTF-8",
    }
    launcher = Launcher(env, started + DEADLINE_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, launcher, work)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def _measure(args, launcher: Launcher, work: Path) -> tuple[dict, Tally]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from reqsmell import builtin_dictionaries

    rows = args.rows or workloads.DEFAULT_ROWS[args.workload]
    workload = workloads.generate(args.workload, args.seed, rows, builtin_dictionaries())
    paths = workloads.write_workload(workload, work)
    fmt = workload.cli_args[1]
    cli_args = [
        "-m", "reqsmell", "--input", str(paths["input"]), "--output", str(work / f"report.{fmt}"),
        *(a.format(thresholds=THRESHOLDS, glossary=paths.get("glossary")) for a in workload.cli_args),
    ]
    dictfile = str(paths.get("glossary", "-"))
    tally = Tally()

    # Golden gate: the bundled corpus must render byte-identical reports.
    for golden_fmt in ("json", "csv"):
        out = work / f"golden.{golden_fmt}"
        result = launcher.run(
            ["-m", "reqsmell", "--input", str(DATA / "sample_corpus.csv"),
             "--thresholds", str(THRESHOLDS), "--format", golden_fmt, "--output", str(out)],
            out.with_suffix(".stdout"),
        )
        ok = result["returncode"] == 0 and out.read_bytes() == (DATA / f"golden_report.{golden_fmt}").read_bytes()
        tally.add(1, 0 if ok else 1, f"golden {golden_fmt} report")

    sample = sorted(random.Random(f"sample:{args.seed}").sample(range(rows), min(SAMPLE_ROWS, rows)))
    expected = oracle_expectations(workload, sample)

    # Reference CLI run: full check against ids and the oracle; every later
    # report must repeat its bytes.
    report = work / f"report.{fmt}"
    result = launcher.run(cli_args, work / "cli.stdout")
    problems = [] if result["returncode"] == workload.exit_code else [f"exit code {result['returncode']}"]
    if not problems:
        problems = check_report(workload, report.read_bytes(), fmt, expected)
    tally.add(1, 1 if problems else 0, "; ".join(problems[:5]))
    reference_sha = None if problems else sha(report)

    def cli_ok(result) -> bool:
        return result["returncode"] == workload.exit_code and reference_sha == sha(report)

    samples: dict[str, list] = {}
    calls_per_batch = max(rows, MIN_CALLS)

    def op_setup():
        out = work / "setup.stdout"
        result = launcher.run([str(HERE / "child.py"), "setup", dictfile], out)
        if result["returncode"] != 0:
            raise RuntimeError("set-up probe failed")
        samples.setdefault("setup_s", []).append(float(out.read_text()))

    def op_cli():
        result = launcher.run(cli_args, work / "cli.stdout")
        tally.add(1, 0 if cli_ok(result) else 1, "CLI run")
        samples.setdefault("run_s", []).append(result["wall_s"])
        samples.setdefault("peak_rss_mb", []).append(result["maxrss_kb"] * 1024 / 1e6)

    def op_calls():
        results_path, lat_path = work / "calls.json", work / "calls.bin"
        result = launcher.run(
            [str(HERE / "child.py"), "calls", str(paths["input"]), dictfile, str(calls_per_batch),
             ",".join(map(str, sample)), str(results_path), str(lat_path)],
            work / "calls.stdout",
        )
        if result["returncode"] != 0:
            tally.add(calls_per_batch, calls_per_batch, "library calls process")
            return
        output = json.loads(results_path.read_text())
        mismatched = len({p.split(" metric")[0] for p in check_calls(output["results"], expected)})
        tally.add(calls_per_batch, output["failures"] + mismatched, "library calls")
        batch = array("q")
        batch.frombytes(lat_path.read_bytes())
        samples.setdefault("call_p50_us", []).append(statistics.median(batch) / 1e3)
        samples.setdefault("calls", []).append(batch)

    def op_trace():
        spans_path = work / "spans.json"
        result = launcher.run(
            [str(HERE / "child.py"), "trace", str(spans_path), "--", *cli_args[2:]],
            work / "trace.stdout",
        )
        tally.add(1, 0 if cli_ok(result) else 1, "traced CLI run")
        samples.setdefault("traced", []).append((result["wall_s"], layer_metrics(spans_path)))

    if args.trace:
        ops = [op_cli, op_trace]
    else:
        op_calls()  # warm-up, checked and counted, not timed
        samples.clear()
        ops = [op_setup, op_cli, op_calls]

    measure_start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - measure_start < args.seconds:
        shift = rounds % len(ops)
        for op in ops[shift:] + ops[:shift]:
            op()
        rounds += 1

    # Upper-tail estimators: see the module docstring for why.
    if args.trace:
        traced = sorted(samples["traced"], key=lambda pair: pair[0])
        traced_s, metrics = traced[len(traced) // 2]
        metrics["trace.overhead_ratio"] = traced_s / statistics.median(samples["run_s"])
    else:
        metrics = {name: percentile(sorted(samples[name]), 0.95) for name in ("setup_s", "run_s", "call_p50_us")}
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        pooled = sorted(latency for batch in samples["calls"] for latency in batch)
        metrics["call_p99_us"] = percentile(pooled, 0.99) / 1e3
        metrics["call_samples"] = f"{len(pooled)} calls in {len(samples['calls'])} batches"
    metrics["rounds"] = rounds
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, help="override the workload's row count")
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a reqsmell checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    metrics, tally = measure(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("env " + json.dumps({**environment(), "workload": args.workload, "seed": args.seed}))
    for name in ("rounds", "call_samples"):
        if name in metrics:
            print(f"{name} {metrics[name]}")
    for entry in reported:
        print(f"{entry['name']} {metrics[entry['name']]} {entry['unit']}")
    print(f"error_ratio {tally.failed / tally.attempted} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
