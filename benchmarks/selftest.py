"""Self-test of the benchmark's own machinery; exits non-zero on failure.

    python3 benchmarks/selftest.py

Checks that every generator is deterministic per seed (and that seeds
differ), and that the correctness gate rejects a report or a library result
with one tampered count.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from reqsmell import AnalysisConfig, analyze_text, build_report, builtin_dictionaries, render  # noqa: E402
from reqsmell.ingestion import Requirement  # noqa: E402

ROWS = 60


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def tamper_first_count(payload: bytes, fmt: str, row: int, metric: str) -> bytes:
    if fmt == "json":
        report = json.loads(payload)
        report["requirements"][row]["metrics"][metric] += 1
        return json.dumps(report).encode()
    lines = payload.decode().split("\n")
    cells = lines[row + 1].split(",")
    column = ["id", *run.METRICS].index(metric)
    cells[column] = str(int(cells[column]) + 1)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines).encode()


def main() -> int:
    failures: list[str] = []
    builtins = builtin_dictionaries()
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, ROWS, builtins)
        again = workloads.generate(name, 7, ROWS, builtins)
        other = workloads.generate(name, 8, ROWS, builtins)
        check(first == again, f"{name}: same seed gives the same inputs", failures)
        check(first.rows != other.rows, f"{name}: another seed gives other inputs", failures)

        sample = list(range(0, ROWS, 7))
        expected = run.oracle_expectations(first, sample)
        dictionaries = run.oracle_dictionaries(first)
        config = AnalysisConfig.from_dictionaries(dictionaries)
        requirements = [Requirement(i, t, n + 2) for n, (i, t) in enumerate(zip(first.ids, first.texts))]
        report = build_report(requirements, config)
        for fmt in ("json", "csv"):
            payload = render(report, fmt)
            check(not run.check_report(first, payload, fmt, expected),
                  f"{name}: gate accepts the true {fmt} report", failures)
            row = next(r for r in sample if any(expected[r].values()))
            metric = next(m for m in run.METRICS if expected[row][m])
            tampered = tamper_first_count(payload, fmt, row, metric)
            check(bool(run.check_report(first, tampered, fmt, expected)),
                  f"{name}: gate rejects a {fmt} report with one tampered count", failures)

        results = {
            str(r): {
                "counts": dict(vector.counts),
                "spans": [list(s) for s in vector.spans],
            }
            for r in sample
            for vector in [analyze_text(first.texts[r], config)]
        }
        check(not run.check_calls(results, expected), f"{name}: gate accepts true call results", failures)
        row = next(r for r in sample if any(expected[r].values()))
        metric = next(m for m in run.METRICS if expected[row][m])
        results[str(row)]["counts"][metric] += 1
        check(bool(run.check_calls(results, expected)),
              f"{name}: gate rejects call results with one tampered count", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
