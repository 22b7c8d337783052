"""Fast self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout: python3 perfbench/selftest.py

It runs every workload with and without tracing at tiny sizes and checks
that each metric BENCHMARK.json names is printed with its unit and that the
seed code passes every output check.  Then it feeds the runner a corrupted
output, a non-zero exit, an output that breaks the check's parser and a
timed-out job, and checks that each is counted as failed rather than raised.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_line(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, tiny=True)
    assert code == 0, f"{argv}: exit {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics() -> None:
    for workload in BENCHMARK["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            result = last_line(argv)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, f"{workload['name']} trace {trace}: {set(printed) ^ set(expected)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload['name']:14s} trace {trace}: {len(printed)} metrics")


def check_failures_are_counted() -> None:
    runner = run.Runner([], seconds=1.0, job_budget=20.0)
    tables_w4 = ("tables", "--max-weight", "4", "--format", "latex")
    bad = [
        run.Job("tables", tables_w4),  # a well-formed output that differs from the golden file
        run.Job("basis", ("qbracket", "Q2 +")),  # the CLI exits 2 on a parse error
        run.Job("qbracket", ("eval", "1", "()")),  # not JSON, so the check itself raises
    ]
    results = [runner.job(job) for job in bad]
    runner.check(results)
    runner.job_budget = 0.05
    results.append(runner.job(run.Job("tables", tables_w4 + ("-N", "30"))))
    assert runner.failed == 4 and len(runner.results) == 4, [r.error for r in results]
    for r in results:
        print(f"ok  counted as failed: {r.job.key}: {r.error}")
    layers = run.layer_metrics(results)
    assert layers["cli.overhead_s"] == 0.0, layers


if __name__ == "__main__":
    check_metrics()
    check_failures_are_counted()
    print("selftest passed")
