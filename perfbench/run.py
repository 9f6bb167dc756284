#!/usr/bin/env python3
"""End-to-end benchmark of the flowscan command line.

    python3 perfbench/run.py --workload detect-parallel --seed 1 --seconds 25 --trace 0

Run from the repository root. Each run builds its input with
`flowscan synth` from a pinned spec in `perfbench/specs` and the given
seed (the synth wall time is `setup_s`), builds the expected output
once with the test oracles, then runs the workload's CLI command as a
fresh process, one at a time, for `--seconds`. Every run's output is
checked against the reference; a non-zero exit or a mismatch counts as
failed.

With `--trace 0` the end-to-end metrics are the medians over the
process runs. With `--trace 1` the time goes to pairs of in-process
`flowscan.cli.main` calls, one untraced and one with spans around each
layer (see tracing.py); the per-layer metrics are medians over the
traced calls, and `trace.overhead_s` is the traced minus the untraced
call time of each pair.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give quartiles, sample
counts, `failed_frac` and the run context. Each result is also appended
to `.perfbench/results.jsonl`.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SPECS = Path(__file__).resolve().parent / "specs"
WORK = ROOT / ".perfbench"

# synth runs per benchmark run; setup_s is their median
SETUP_REPS = 3
# fewest CLI runs per measurement, whatever --seconds says
MIN_RUNS = 3
THRESHOLDS = (25.0, 50.0, 100.0, 200.0, 400.0)

# On a shared 2-vCPU host the speed of CPU-bound work drifts by 30%
# over minutes and flips between fast and slow states from second to
# second. Wall times are therefore scaled to a reference speed, at which
# the calibration task below takes CAL_REF_S; the unscaled medians are
# printed too.
CAL_ROWS = 80_000
CAL_REF_S = 0.1

# --size small shrinks both specs for the self-test
SMALL_SPEC = {"trace": {"slices": "2"}, "background": {"hosts": "40"}}

END_TO_END_UNITS = {
    "wall_s": "s",
    "flows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "ingest.read_s": "s",
    "ingest.rows": "count",
    "ingest.skipped": "count",
    "ingest.gt_read_s": "s",
    "ingest.gt_entries": "count",
    "engine.batch_s": "s",
    "engine.batch_calls": "count",
    "engine.self_s": "s",
    "engine.stream_s": "s",
    "engine.slices_emitted": "count",
    "engine.late_dropped": "count",
    "detector.detect_s": "s",
    "detector.detect_calls": "count",
    "detector.verdicts": "count",
    "rules.classify_s": "s",
    "rules.classify_calls": "count",
    "rules.ips_classified": "count",
    "rules.confirmed_ratio": "ratio",
    "evaluation.universe_s": "s",
    "evaluation.case_self_s": "s",
    "evaluation.case_calls": "count",
    "evaluation.reintegrated": "count",
    "evaluation.report_s": "s",
    "cli.self_s": "s",
    "cli.total_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    trace: str  # spec name in specs/
    flow_end_order: bool  # rewrite the synth rows in last_seen_us order
    command: Callable[[dict[str, Path], Path], list[str]]  # inputs, out -> argv


WORKLOADS = {
    "detect-parallel": Workload(
        "detect",
        True,
        lambda inp, out: ["detect", str(inp["flows"]), "-o", str(out), "--workers", "2"],
    ),
    "detect-stream": Workload(
        "detect",
        True,
        lambda inp, out: ["detect", str(inp["flows"]), "-o", str(out), "--mode", "stream"],
    ),
    "evaluate-sweep": Workload(
        "evaluate",
        False,
        lambda inp, out: [
            "evaluate",
            "--trace",
            f"{inp['flows']},{inp['anomalous']},{inp['notice']}",
            "-o",
            str(out),
            "--case",
            "3",
            "--thresholds",
            ",".join(f"{t:g}" for t in THRESHOLDS),
        ],
    ),
}


class SetupError(RuntimeError):
    """The input could not be built; the run reports no result."""


@dataclass
class Bench:
    """One workload's prepared input, command and expected output."""

    workload: str
    argv: list[str]  # flowscan arguments
    out: Path
    expected: str  # output text after the manifest line
    flows: int
    inputs: dict[str, dict]  # name -> path, sha256 (and rows for the flow file)
    setup_s: list[float]  # synth wall times, scaled
    raw_setup_s: list[float]

    @property
    def manifest(self) -> Path:
        return Path(f"{self.out}.manifest.json")


@dataclass(frozen=True)
class Sample:
    wall_s: float  # scaled to the reference host speed
    raw_wall_s: float
    peak_rss_mb: float
    failure: Optional[str]


def calibration_task() -> float:
    """Seconds taken by a fixed pure-Python task shaped like the
    program's hot loops: format and split CSV text, parse ints, count
    into a dict. Its few keys keep this process's peak RSS low."""
    started = time.perf_counter()
    counts: dict[tuple[str, int], int] = {}
    for i in range(CAL_ROWS):
        line = f"{i * 7919 % 1000003},10.0.{i % 7}.{i % 11},{i % 65536}"
        first, ip, port = line.split(",")
        key = (ip, int(first) // 100_000)
        counts[key] = counts.get(key, 0) + int(port)
    return time.perf_counter() - started


class HostSpeed:
    """Scales wall times to the reference host speed. The calibration
    task runs between consecutive timed runs; a run is scaled by the
    mean of the timings just before and just after it."""

    def __init__(self) -> None:
        self._before = calibration_task()

    def scale(self, wall_s: float) -> float:
        after = calibration_task()
        factor = CAL_REF_S / ((self._before + after) / 2)
        self._before = after
        return wall_s * factor


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_process(args: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB of the process tree, exit code.

    `wait4` reports the largest RSS of the child and of every
    descendant it waited for, which covers forked count workers.
    """
    argv = [sys.executable, "-m", "flowscan.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def _spec_path(trace: str, size: str, work: Path) -> Path:
    spec = SPECS / f"{trace}.ini"
    if size == "full":
        return spec
    parser = configparser.ConfigParser()
    parser.read(spec, encoding="utf-8")
    for section, values in SMALL_SPEC.items():
        parser[section].update(values)
    small = work / f"{trace}-small.ini"
    with open(small, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return small


def _reorder_by_flow_end(path: Path) -> None:
    """Rows in last_seen_us order, as exporters emit them; ties keep
    their first-seen order. Displaces rows by under a second."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        rows = fh.readlines()
    rows.sort(key=lambda line: int(line.split(",", 2)[1]))
    path.write_text(header + "".join(rows), encoding="utf-8")


def prepare(workload: str, seed: int, size: str = "full") -> Bench:
    """Build the input (timed, `SETUP_REPS` times) and the reference
    output (untimed) for one workload in a fresh work directory."""
    import reference  # needs the sys.path set up in main()

    spec = WORKLOADS[workload]
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = work / spec.trace
    inputs = {
        "flows": work / f"{spec.trace}.flows.csv",
        "anomalous": work / f"{spec.trace}.anomalous.xml",
        "notice": work / f"{spec.trace}.notice.xml",
    }
    spec_file = _spec_path(spec.trace, size, work)
    setup_s, raw_setup_s = [], []
    digests = set()
    speed = HostSpeed()
    for _ in range(SETUP_REPS):
        wall, _rss, code = run_process(
            ["synth", str(spec_file), "-o", str(base), "--seed", str(seed)],
            work / "synth.log",
        )
        if code != 0:
            log = (work / "synth.log").read_text(errors="replace").strip()
            raise SetupError(f"synth exited {code}: {log}")
        setup_s.append(speed.scale(wall))
        raw_setup_s.append(wall)
        digests.add(tuple(_sha256(p) for p in inputs.values()))
    if len(digests) != 1:
        raise SetupError("synth wrote different files for the same spec and seed")
    if spec.flow_end_order:
        _reorder_by_flow_end(inputs["flows"])

    with open(inputs["flows"], "rb") as fh:
        flows = sum(1 for _ in fh) - 1
    out = work / "out.csv"
    if workload.startswith("detect"):
        expected = reference.expected_verdicts(inputs["flows"])
    else:
        expected = reference.expected_case3_report(
            spec.trace, inputs["flows"], inputs["anomalous"], inputs["notice"], THRESHOLDS
        )
    described = {name: {"path": path.name, "sha256": _sha256(path)} for name, path in inputs.items()}
    described["flows"]["rows"] = flows
    return Bench(
        workload=workload,
        argv=spec.command(inputs, out),
        out=out,
        expected=expected,
        flows=flows,
        inputs=described,
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
    )


def check_output(bench: Bench) -> Optional[str]:
    """Why the last run's output is wrong, or None when it is right."""
    try:
        head, _, body = bench.out.read_text(encoding="utf-8").partition("\n")
        manifest = json.loads(bench.manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if head != f"# manifest={bench.manifest.name}":
        return f"first line is {head!r}"
    if body != bench.expected:
        return "output differs from the reference"
    if manifest.get("outputs", {}).get(str(bench.out)) != _sha256(bench.out):
        return "manifest digest does not match the output"
    if manifest.get("stats", {}).get("late_dropped", 0) != 0:
        return f"{manifest['stats']['late_dropped']} flows dropped as late"
    return None


def _clear_output(bench: Bench) -> None:
    bench.out.unlink(missing_ok=True)
    bench.manifest.unlink(missing_ok=True)


def _keep_going(count: int, started: float, last_s: float, seconds: float) -> bool:
    """Run again while under the minimum, or while another run of the
    last run's length still fits in the time budget."""
    return count < MIN_RUNS or time.perf_counter() - started + last_s <= seconds


def measure(
    bench: Bench, seconds: float, check: Callable[[Bench], Optional[str]] = check_output
) -> list[Sample]:
    """Fresh CLI processes, one at a time, each output checked."""
    samples: list[Sample] = []
    speed = HostSpeed()
    started = time.perf_counter()
    last_s = 0.0
    while _keep_going(len(samples), started, last_s, seconds):
        _clear_output(bench)
        wall, rss, code = run_process(bench.argv, bench.out.with_suffix(".log"))
        failure = f"exit code {code}" if code else check(bench)
        samples.append(Sample(speed.scale(wall), wall, rss, failure))
        last_s = wall
    return samples


def _call_cli(bench: Bench, tracer=None) -> tuple[float, Optional[str]]:
    """One in-process `flowscan.cli.main` call, inside a `cli` span and
    with the layer wrappers when a tracer is given: its seconds and the
    output check."""
    import flowscan.cli
    import tracing

    _clear_output(bench)
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracing.traced(tracer))
            stack.enter_context(tracer.span("cli"))
        started = time.perf_counter()
        code = flowscan.cli.main(bench.argv)
        elapsed = time.perf_counter() - started
    return elapsed, f"exit code {code}" if code else check_output(bench)


def measure_traced(bench: Bench, seconds: float) -> tuple[list[dict], list[float], list]:
    """Pairs of in-process CLI calls, one untraced and one traced, which
    go first in turn so that drift falls on both alike. Returns the
    per-layer figures of the traced calls, the wall time of the
    untraced ones, and the output check of every call."""
    import tracing

    figures: list[dict[str, float]] = []
    plain: list[float] = []
    failures: list[Optional[str]] = []
    started = time.perf_counter()
    last_s = 0.0
    while _keep_going(len(figures), started, last_s, seconds):
        tracer = tracing.Tracer()
        for traced in (False, True) if len(figures) % 2 == 0 else (True, False):
            elapsed, failure = _call_cli(bench, tracer if traced else None)
            failures.append(failure)
            if not traced:
                plain.append(elapsed)
        figures.append(tracing.layer_metrics(tracer))
        last_s = plain[-1] + figures[-1]["cli.total_s"]
    return figures, plain, failures


def summary(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(bench: Bench, samples: list[Sample]) -> dict[str, dict]:
    walls = [s.wall_s for s in samples]
    series = {
        "wall_s": walls,
        "flows_per_s": [bench.flows / w for w in walls],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": bench.setup_s,
    }
    return {
        name: {**summary(values), "unit": END_TO_END_UNITS[name]}
        for name, values in series.items()
    }


def raw_times(bench: Bench, samples: list[Sample]) -> dict[str, dict]:
    """The unscaled wall times behind wall_s and setup_s."""
    return {
        "raw_wall_s": {**summary([s.raw_wall_s for s in samples]), "unit": "s"},
        "raw_setup_s": {**summary(bench.raw_setup_s), "unit": "s"},
    }


def per_layer(figures: list[dict[str, float]], plain: list[float]) -> dict[str, dict]:
    series = {name: [f[name] for f in figures] for name in PER_LAYER_UNITS if name in figures[0]}
    series["trace.overhead_s"] = [f["cli.total_s"] - p for f, p in zip(figures, plain)]
    return {
        name: {**summary(values), "unit": PER_LAYER_UNITS[name]}
        for name, values in series.items()
    }


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(bench: Bench, args: argparse.Namespace, runs: dict[str, int]) -> dict:
    return {
        "workload": bench.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "runs": runs,
        "inputs": bench.inputs,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"))
    # internal: build the input and reference, write the Bench as JSON here
    parser.add_argument("--prepare-into", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for needed in (ROOT / "src" / "flowscan" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # Pin the configuration: no config file from the environment.
    os.environ.pop("FLOWSCAN_CONFIG", None)

    if args.prepare_into:
        try:
            bench = prepare(args.workload, args.seed, args.size)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        Path(args.prepare_into).write_text(
            json.dumps({**dataclasses.asdict(bench), "out": str(bench.out)}), encoding="utf-8"
        )
        return 0

    # Prepare in a fresh interpreter, run as a plain child process and
    # waited for. A child's peak RSS as wait4 reports it starts from its
    # parent's peak at fork/exec time, so this process must stay smaller
    # than the program it measures: it never holds the trace or the
    # reference computation.
    WORK.mkdir(exist_ok=True)
    prepared = WORK / f"{args.workload}.bench.json"
    prepared.unlink(missing_ok=True)
    own_args = sys.argv[1:] if argv is None else argv
    child = [sys.executable, str(Path(__file__).resolve()), *own_args, "--prepare-into", str(prepared)]
    if subprocess.run(child).returncode != 0:
        return 1
    data = json.loads(prepared.read_text(encoding="utf-8"))
    bench = Bench(**{**data, "out": Path(data["out"])})

    if args.trace:
        figures, plain, failures = measure_traced(bench, args.seconds)
        metrics = per_layer(figures, plain)
        extra = {}
        runs = {"in_process": len(plain), "traced": len(figures)}
    else:
        samples = measure(bench, args.seconds)
        metrics = end_to_end(bench, samples)
        extra = raw_times(bench, samples)
        failures = [s.failure for s in samples]
        runs = {"process": len(samples)}

    failed = sum(1 for f in failures if f)
    ctx = context(bench, args, runs)
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, m in {**metrics, **extra}.items():
        print(
            f"{name:<26} {m['value']:<14.6g} {m['unit']:<6} "
            f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
        )
    print(f"{'failed_frac':<26} {failed / len(failures):<14.6g} ratio  n={len(failures)}")
    for reason in sorted({f for f in failures if f}):
        print(f"perfbench: failed run: {reason}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps({**result, "context": ctx, "metrics": {**metrics, **extra}}, sort_keys=True)
            + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
