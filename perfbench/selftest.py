#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs, about a minute:

    python3 perfbench/selftest.py

Run from the repository root. Checks that every workload prints every
metric named in BENCHMARK.json with its unit, in both modes; that a
corrupted output and a failing exit both count as failed runs; and
that the benchmark fails without a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_process(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_printed_metrics(workload: str, trace: int) -> None:
    done = bench_process(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "small",
    )
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], result["metrics"]
    printed = {line.split()[0]: line.split() for line in lines}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
        assert printed[name][2] == unit, printed.get(name)
    assert printed["failed_frac"][1:3] == ["0", "ratio"], printed["failed_frac"]
    print(f"ok  {workload} --trace {trace}: {len(wanted)} metrics with units")


def check_failures_counted() -> None:
    bench = run.prepare("detect-stream", 7, "small")

    def corrupt_then_check(b: run.Bench) -> str | None:
        text = b.out.read_text(encoding="utf-8")
        b.out.write_text(text.replace(",sender,", ",receiver,", 1), encoding="utf-8")
        return run.check_output(b)

    samples = run.measure(bench, 0.0, check=corrupt_then_check)
    assert samples and all(s.failure for s in samples), samples
    assert run.check_output(bench) is not None

    bench.argv[1] = str(bench.out.with_name("missing.flows.csv"))
    samples = run.measure(bench, 0.0)
    assert samples and all(s.failure == "exit code 1" for s in samples), samples
    print(f"ok  corrupted output and non-zero exit counted as failed ({len(samples)} runs each)")


def check_fails_without_program() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_process(
        bare, "--workload", "detect-stream", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  no result and a non-zero exit without the program")


def main() -> int:
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(run.WORKLOADS), listed
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_printed_metrics(workload, trace)
    check_failures_counted()
    check_fails_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
