"""Command line driver: detect, evaluate, bench, synth.

Every command writes a JSON run manifest next to its main output
(`<out>.manifest.json`) recording the config snapshot, input and output
digests, tool version, and wall-clock bounds. Text outputs reference
the manifest in a leading comment where the format allows one; flow
files cannot, their header line is fixed. The digests are made by a
child forked before the job (`_hashed`), so OpenSSL never loads in the
process that runs the job. An input that is not a regular file, such as
a pipe, is recorded without a digest (null).

Exit codes: 0 success, 1 I/O or input parse failure, 2 invalid
configuration, 3 ground truth parse failure. Errors print one
machine-parseable line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from enum import Enum
from pathlib import Path
from typing import Callable, ContextManager, Optional, Sequence, TextIO

from . import __version__
from .config import AppConfig, format_port_set, load_config
from .core import ConfigError, FlowBatch, SliceConfig, as_batch, format_ip
from .detector import DetectorConfig, Direction, RatioVerdict, anomalous_ips
from .engine import MAX_LATE_RATIO, EngineConfig, Mode, RunStats, forked, run_batch, run_streaming
from .evaluation import (
    EvalCase,
    EvalRow,
    evaluate_case,
    trace_universe,
    write_report,
)
from .ingest import (
    FlowFileError,
    FlowFileReader,
    GroundTruthError,
    GroundTruthSet,
    SourceFile,
    read_flow_file,
    read_ground_truth,
)
from .rules import classify_all

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_GROUND_TRUTH = 3

VERDICT_HEADER = "slice_index,ip,direction,generated,received,ratio,labels"
BENCH_HEADER = (
    "workers,rep,wall_time_s,trace_duration_s,time_ratio,records_in,verdicts_out"
)
BENCH_SUMMARY_HEADER = "workers,min,q1,median,q3,max"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except GroundTruthError as exc:
        return _fail(EXIT_GROUND_TRUTH, "ground-truth", exc)
    except (FlowFileError, OSError) as exc:
        return _fail(EXIT_IO, "io", exc)


def _fail(code: int, kind: str, exc: BaseException) -> int:
    detail = " ".join(str(exc).split())
    sys.stderr.write(f"flowscan: error kind={kind} exit={code} detail={detail}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowscan",
        description="Flag scanning IPs from flow counts and score the results.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect_p = sub.add_parser("detect", help="flag anomalous IPs in a flow file")
    detect_p.add_argument("flows", help="flow file to analyze")
    detect_p.add_argument("-o", "--out", required=True, help="verdict file to write")
    _add_common_flags(detect_p)
    _config_flag(detect_p, "--threshold", "detector.threshold", "ratio cut (> 0)")
    _config_flag(detect_p, "--workers", "engine.workers", "worker processes")
    _config_flag(detect_p, "--mode", "engine.mode", "batch or stream execution")
    detect_p.set_defaults(func=_framed, body=cmd_detect)

    eval_p = sub.add_parser("evaluate", help="score detections against ground truth")
    eval_p.add_argument(
        "--trace",
        action="append",
        required=True,
        metavar="FLOWS,ANOMALOUS_XML[,NOTICE_XML]",
        help="trace to evaluate; repeat for multi-trace aggregation",
    )
    eval_p.add_argument("-o", "--out", required=True, help="report file to write")
    _add_common_flags(eval_p)
    eval_p.add_argument("--case", default="1", help="evaluation case: 1, 2 or 3")
    _config_flag(
        eval_p,
        "--thresholds",
        "evaluation.thresholds",
        "comma-separated ratio cuts, e.g. 50,100,200",
    )
    _config_flag(eval_p, "--workers", "engine.workers")
    eval_p.add_argument(
        "--directional",
        action="store_true",
        help="match verdict direction against ground truth src/dst sides",
    )
    eval_p.set_defaults(func=_framed, body=cmd_evaluate)

    bench_p = sub.add_parser("bench", help="time repeated detector runs")
    bench_p.add_argument("flows")
    bench_p.add_argument("-o", "--out", required=True, help="timing table to write")
    _add_common_flags(bench_p)
    _config_flag(bench_p, "--threshold", "detector.threshold")
    bench_p.add_argument(
        "--workers", default="1,2,4", help="comma-separated worker counts to sweep"
    )
    bench_p.add_argument("--reps", default="5", help="runs per worker count")
    bench_p.set_defaults(func=_framed, body=cmd_bench)

    synth_p = sub.add_parser("synth", help="generate a trace with known ground truth")
    synth_p.add_argument("spec", help="INI trace spec")
    synth_p.add_argument(
        "-o", "--out", required=True, help="output base path (suffixes are added)"
    )
    synth_p.add_argument("--seed", default="0")
    synth_p.set_defaults(func=cmd_synth)
    return parser


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file (else $FLOWSCAN_CONFIG)")
    _config_flag(parser, "--slice-seconds", "detector.slice_seconds")
    _config_flag(parser, "--trace-start-us", "detector.trace_start_us")
    parser.add_argument(
        "--strict",
        dest="io.strict",
        action="store_const",
        const="yes",
        help="abort on the first malformed input line",
    )


def _config_flag(
    parser: argparse.ArgumentParser, flag: str, key: str, help: Optional[str] = None
) -> None:
    """A flag that sets the INI key `key` (`section.key`). Its text is kept
    as given and parsed with the config file by load_config."""
    parser.add_argument(flag, dest=key, metavar=key.split(".")[1].upper(), help=help)


def _int_flag(flag: str, text: str, valid=lambda n: True, wanted="an integer") -> int:
    """The value of a flag that argparse keeps as text, so that a bad value
    exits 2 with one kind=config line naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ConfigError(f"{flag} must be {wanted}, got {text!r}")
    return value


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    """The config file, with each config flag given laid over it."""
    flags = {k: v for k, v in vars(args).items() if "." in k and v is not None}
    return load_config(args.config, flags)


def _snapshot(name: str, value):
    """JSON form of a config value or of run stats, nested dataclasses included."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _snapshot(f.name, getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if name == "known_ports":
        return format_port_set(value)
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


def _sha256(path: Path) -> str:
    import hashlib  # here, so that only a hasher child loads OpenSSL's pages

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _hashed(inputs: Sequence[Path], outputs: Sequence[Path]) -> ContextManager[Callable]:
    """A `forked` hasher. Its function, called once the outputs are written,
    returns the digest maps of the inputs, hashed while the job runs, and of
    the outputs. An input that is not a regular file (a pipe, which the job
    consumes) maps to None and is never opened."""
    return forked(
        lambda: {str(p): _sha256(p) if os.path.isfile(p) else None for p in inputs},
        lambda found: [found, {str(p): _sha256(p) for p in outputs}],
    )


def _iso(ts: float) -> str:
    """`datetime.fromtimestamp(ts, timezone.utc).isoformat()`, without
    loading datetime: microseconds rounded half-even, carried into the
    seconds, and left out when they are 0."""
    fraction, seconds = math.modf(ts)
    seconds, us = divmod(int(seconds) * 1_000_000 + round(fraction * 1e6), 1_000_000)
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(seconds)[:6]
    return f"{text}.{us:06d}+00:00" if us else f"{text}+00:00"


def manifest_path_for(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def _write_manifest(
    out_path: Path,
    command: str,
    snapshot: dict,
    digests: Callable[[], list],
    started: float,
    extra: Optional[dict] = None,
) -> Path:
    """Write the manifest of `out_path`; `digests` is `_hashed`'s function."""
    try:
        inputs, outputs = digests()
    except ChildProcessError:
        raise OSError("the manifest's hasher process ended without digests") from None
    doc = {
        "tool": "flowscan",
        "version": __version__,
        "command": command,
        "config": snapshot,
        "inputs": inputs,
        "outputs": outputs,
        "started_at": _iso(started),
        "finished_at": _iso(time.time()),
    }
    if extra:
        doc.update(extra)
    path = manifest_path_for(out_path)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _read_trace(path: Path, cfg: AppConfig, ingest: dict) -> tuple[FlowBatch, SliceConfig]:
    """All flows of one file and the slices they are cut into, from the
    config's start, else the earliest flow (0 for a file without flows).
    The file's row counts go to `ingest` under its path, for the manifest."""
    reader = read_flow_file(path, strict=cfg.strict)
    # read_flow_file may be wrapped to hand back the rows alone. The job
    # reads four columns, so only they are stored.
    flows = reader.read(lean=True) if isinstance(reader, FlowFileReader) else as_batch(reader)
    ingest[str(path)] = {
        "rows_read": len(flows),
        "rows_skipped": getattr(reader, "errors", 0),
        "first_skipped_lines": getattr(reader, "skipped_lines", []),
    }
    start = cfg.trace_start_us
    if start is None:
        start = flows.earliest_us if len(flows) else 0
    return flows, SliceConfig(trace_start_us=start, slice_seconds=cfg.slice_seconds)


def _dropped_note(ingest: dict) -> str:
    """The summary's note of what the inputs dropped, as their `ingest` records hold."""
    notes = (
        ("rows_skipped", "malformed rows skipped"), ("late_dropped", "late flows dropped"),
        ("entries_skipped", "ground truth entries skipped"),
        ("addresses_ignored", "ground truth addresses ignored"),
        ("ports_ignored", "ground truth ports ignored"),
    )
    totals = ((sum(r.get(key, 0) for r in ingest.values()), what) for key, what in notes)
    return "".join(f", {n} {what}" for n, what in totals if n)


def _refuse_overwrite(
    args: argparse.Namespace, outputs: Sequence[Path], inputs: Sequence[Path]
) -> None:
    """Exit 2 before anything is written if an output of the command or
    its manifest resolves to one of its inputs."""
    written = {p.resolve() for p in (*outputs, manifest_path_for(Path(args.out)))}
    if written & {p.resolve() for p in inputs}:
        raise ConfigError(f"-o {args.out} would overwrite an input of {args.command}")


# What a command body hands its frame: a writer for the output below the
# manifest line, its extra manifest fields, and its summary line.
Outcome = tuple[Callable[[TextIO], None], dict, str]


def _framed(args: argparse.Namespace) -> int:
    """Run the body of detect, evaluate or bench, unless -o names one of
    its inputs, then write what it made: the output file under its
    `# manifest=` line, the manifest, and the summary line, which names
    the rows and flows the jobs dropped, as their `ingest` records hold."""
    cfg = _resolve_config(args)
    started = time.time()
    out_path = Path(args.out)
    ingest: dict[str, dict] = {}
    inputs = [Path(args.flows)] if "flows" in args else [
        path for raw in args.trace for path in _parse_trace_arg(raw) if path
    ]
    _refuse_overwrite(args, [out_path], inputs)
    with _hashed(inputs, [out_path]) as digests:
        write_body, extra, summary = args.body(args, cfg, ingest)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# manifest={manifest_path_for(out_path).name}\n")
            write_body(fh)
        snapshot = _snapshot("config", cfg)
        extra = {**extra, "ingest": ingest}
        _write_manifest(out_path, args.command, snapshot, digests, started, extra)
    print(f"{summary}{_dropped_note(ingest)} -> {out_path}")
    return EXIT_OK


def _detect(
    flow_path: Path, cfg: AppConfig, ingest: dict
) -> tuple[FlowBatch, list[RatioVerdict], Callable[[set], dict], RunStats]:
    """The detect job of detect, evaluate and bench on one flow file, in
    `cfg.mode`: its flows, its verdicts at `cfg.threshold`, a function that
    runs classify_all on a set of IPs over its flows, and the run stats. The
    file's `ingest` record also gets the run's `late_dropped` (0 in batch mode)."""
    flows, slices = _read_trace(flow_path, cfg, ingest)
    detector_cfg = DetectorConfig(slices=slices, threshold=cfg.threshold)
    engine_cfg = EngineConfig(
        workers=cfg.workers, watermark_lag_seconds=cfg.watermark_lag_seconds
    )
    if cfg.mode is Mode.STREAM:
        verdicts: list[RatioVerdict] = []
        stats = run_streaming(flows, detector_cfg, engine_cfg, lambda _, v: verdicts.extend(v))
        if stats.late_dropped > MAX_LATE_RATIO * stats.records_in:
            raise FlowFileError(
                f"{flow_path}: {stats.late_dropped} of {stats.records_in} flows "
                f"arrived after their slice closed (limit {MAX_LATE_RATIO:.0%}); "
                "sort the file by time or run in batch mode"
            )
    else:
        verdicts, stats = run_batch(flows, detector_cfg, engine_cfg)
    ingest[str(flow_path)]["late_dropped"] = stats.late_dropped
    return flows, verdicts, lambda ips: classify_all(ips, flows, cfg.rules, slices), stats


def cmd_detect(args: argparse.Namespace, cfg: AppConfig, ingest: dict) -> Outcome:
    _, verdicts, classify, stats = _detect(Path(args.flows), cfg, ingest)
    # The rules judge outbound flows, so only senders carry labels.
    classifications = classify({v.key.ip for v in verdicts if v.direction is Direction.SENDER})

    def write(fh: TextIO) -> None:
        fh.write(VERDICT_HEADER + "\n")
        for v in verdicts:
            sender = v.direction is Direction.SENDER
            labels = classifications[v.key.ip].labels if sender else ()
            fh.write(
                f"{v.key.slice_index},{format_ip(v.key.ip)},{v.direction.value},"
                f"{v.generated},{v.received},{v.ratio!r},"
                f"{';'.join(sorted(l.value for l in labels))}\n"
            )

    summary = f"{len(verdicts)} verdicts from {stats.records_in} flows"
    return write, {"stats": _snapshot("stats", stats)}, summary


def _parse_trace_arg(raw: str) -> tuple[Path, Path, Optional[Path]]:
    fields = raw.split(",")
    if len(fields) not in (2, 3) or not all(fields):
        raise ConfigError(
            f"--trace expects FLOWS,ANOMALOUS_XML[,NOTICE_XML], got {raw!r}"
        )
    flows, anomalous, *notice = map(Path, fields)
    return flows, anomalous, notice[0] if notice else None


# Report sources: each ground truth file alone, then both together.
_SOURCES = (
    ("anomalous", (SourceFile.ANOMALOUS,)),
    ("notice", (SourceFile.NOTICE,)),
    ("total", (SourceFile.ANOMALOUS, SourceFile.NOTICE)),
)


def cmd_evaluate(args: argparse.Namespace, cfg: AppConfig, ingest: dict) -> Outcome:
    """Score the detect job, run once per trace at the lowest threshold: a key
    flags at t iff |ratio| > t, since |ratio| never exceeds the count on its
    own side, so one job holds the verdicts of every threshold. Only case 3
    reads labels: it classifies each trace's flagged IPs once, or only its
    flagged senders in directional mode, which scores senders' labels alone."""
    cases = [c.value for c in EvalCase]
    case = EvalCase(_int_flag("--case", args.case, cases.__contains__, "1, 2 or 3"))
    traces = [_parse_trace_arg(raw) for raw in args.trace]
    trace_ids = [flow_path.stem.removesuffix(".flows") for flow_path, _, _ in traces]
    for i, trace_id in enumerate(trace_ids):
        if trace_id in trace_ids[:i]:
            raise ConfigError(f"--trace: trace id {trace_id!r} is given more than once")
    lowest = dataclasses.replace(cfg, threshold=min(cfg.thresholds))
    reads_labels = case is EvalCase.FILTERED_PLUS_RULES
    label_sides = {Direction.SENDER} if args.directional else set(Direction)

    rows: list[EvalRow] = []
    for (flow_path, anomalous_path, notice_path), trace_id in zip(traces, trace_ids):
        flows, verdicts, classify, _ = _detect(flow_path, lowest, ingest)
        if not flows:
            raise FlowFileError(f"{flow_path}: no accepted flow rows")
        flagged = {v.key.ip for v in verdicts if v.direction in label_sides}
        classifications = classify(flagged) if reads_labels else {}
        gt = read_ground_truth(anomalous_path, notice_path, strict=cfg.strict)
        # A file's warnings are printed when its path first enters `ingest`.
        for path in [path for path in gt.counts if path not in ingest]:
            ingest[path] = gt.counts[path]
            for message in gt.warnings[path]:
                sys.stderr.write(f"flowscan: warning detail={' '.join(message.split())}\n")
        universe = trace_universe(flows)
        source_gts = [
            (name, GroundTruthSet([e for e in gt.entries if e.source_file in wanted]))
            for name, wanted in (_SOURCES if notice_path else _SOURCES[:1])
        ]
        for threshold in cfg.thresholds:
            pairs = anomalous_ips(v for v in verdicts if abs(v.ratio) > threshold)
            detected = pairs if args.directional else {ip for ip, _ in pairs}
            for source_name, sub_gt in source_gts:
                result = evaluate_case(
                    case,
                    detected,
                    sub_gt,
                    universe,
                    whitelist=cfg.whitelist,
                    exclude=cfg.exclude,
                    directional=args.directional,
                    classifications=classifications,
                )
                rows.append(EvalRow(trace_id, case, threshold, source_name, result))

    return lambda fh: write_report(fh, rows), {}, f"{len(rows)} report rows"


def _parse_worker_sweep(raw: str) -> list[int]:
    try:
        workers = [EngineConfig(int(c)).workers for c in raw.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"engine.workers: {exc}") from exc
    if not workers or len(set(workers)) < len(workers):
        raise ConfigError(f"engine.workers sweep must be distinct counts >= 1, got {raw!r}")
    return workers


def _quartiles(values: list[float]) -> tuple[float, float, float, float, float]:
    if len(values) == 1:
        return (values[0],) * 5
    import statistics  # here, so that detect does not pay for the import

    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return min(values), q1, median, q3, max(values)


def cmd_bench(args: argparse.Namespace, cfg: AppConfig, ingest: dict) -> Outcome:
    """Time the detect job, read to labels, per rep at each worker count."""
    reps = _int_flag("--reps", args.reps, lambda n: n >= 1, "an integer >= 1")
    sweep = _parse_worker_sweep(args.workers)
    flow_path = Path(args.flows)
    runs: list[tuple] = []  # the rows of BENCH_HEADER
    for workers in sweep:
        run_cfg = dataclasses.replace(cfg, workers=workers)
        for rep in range(1, reps + 1):
            started = time.perf_counter()
            _, verdicts, classify, stats = _detect(flow_path, run_cfg, ingest)
            classify({v.key.ip for v in verdicts if v.direction is Direction.SENDER})
            wall = time.perf_counter() - started
            if not (duration := stats.trace_duration_s):
                raise FlowFileError(
                    f"{flow_path}: the flows span no time, so they have no time ratio"
                )
            row = workers, rep, wall, duration, wall / duration
            runs.append(row + (stats.records_in, stats.verdicts_out))

    def write(fh: TextIO) -> None:
        fh.write(BENCH_HEADER + "\n")
        for run in runs:
            fh.write(",".join(map(repr, run)) + "\n")
        fh.write("# summary\n")
        fh.write(BENCH_SUMMARY_HEADER + "\n")
        for workers in sweep:
            ratios = [run[4] for run in runs if run[0] == workers]
            fh.write(",".join(map(repr, (workers, *_quartiles(ratios)))) + "\n")

    summary = f"{len(runs)} timed runs over workers {sweep}"
    return write, {"bench": {"workers": sweep, "reps": reps}}, summary


def cmd_synth(args: argparse.Namespace) -> int:
    # Imported here: synth's imports are slow, and no other command needs it.
    from .synth import load_spec, output_paths, write_outputs

    seed = _int_flag("--seed", args.seed)
    started = time.time()
    spec_path = Path(args.spec)
    out_base = Path(args.out)
    produced = output_paths(out_base)
    _refuse_overwrite(args, produced, [spec_path])
    with _hashed([spec_path], produced) as digests:
        name = manifest_path_for(out_base).name
        outputs = write_outputs(load_spec(spec_path), seed, out_base, manifest_name=name)
        _write_manifest(out_base, "synth", {"seed": seed}, digests, started)
    print(f"{outputs.flow_count} flows -> {outputs.flow_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
