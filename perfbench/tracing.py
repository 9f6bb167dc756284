"""Per-layer spans recorded from outside the program.

`traced(tracer)` swaps module attributes of flowscan for wrappers that
open a span around each call into a layer and restores them on exit;
nothing inside `src/` changes. Spans stay in memory. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import flowscan.cli
import flowscan.engine
import flowscan.evaluation


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(
        self, name: str, fn: Callable, record: Optional[Callable] = None
    ) -> Callable:
        """`fn` inside a span; `record(result)` updates counters after it."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if record is not None:
                record(result)
            return result

        return wrapper

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        child_time: Counter[int] = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return sum(
            s.end - s.start - child_time[s.id] for s in self.spans if s.name == name
        )


def _patches(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    cli, engine, evaluation = flowscan.cli, flowscan.engine, flowscan.evaluation
    counts = tracer.counts
    cli_read_flow_file = cli.read_flow_file
    cli_run_streaming = cli.run_streaming

    def read_flow_file(*args, **kwargs):
        # Reading is lazy: consume the reader inside the span.
        with tracer.span("ingest.read"):
            reader = cli_read_flow_file(*args, **kwargs)
            rows = list(reader)
        counts["ingest.rows"] += reader.rows
        counts["ingest.skipped"] += reader.errors
        return rows

    def run_streaming(flows, cfg, engine_cfg, emit):
        def counted_emit(index, verdicts):
            counts["engine.slices_emitted"] += 1
            emit(index, verdicts)

        with tracer.span("engine.stream"):
            stats = cli_run_streaming(flows, cfg, engine_cfg, counted_emit)
        counts["engine.late_dropped"] += stats.late_dropped
        return stats

    def classified(result) -> None:
        counts["rules.ips_classified"] += len(result)
        counts["rules.ips_confirmed"] += sum(1 for c in result.values() if c.labels)

    def gt_read(gt) -> None:
        counts["ingest.gt_entries"] += len(gt.entries)

    def detected(verdicts) -> None:
        counts["detector.verdicts"] += len(verdicts)

    def scored(result) -> None:
        counts["evaluation.reintegrated"] += result.reintegrated

    return [
        (cli, "read_flow_file", read_flow_file),
        (cli, "run_streaming", run_streaming),
        (cli, "read_ground_truth", tracer.wrap("ingest.gt_read", cli.read_ground_truth, gt_read)),
        (cli, "run_batch", tracer.wrap("engine.batch", cli.run_batch)),
        (cli, "classify_all", tracer.wrap("rules.classify", cli.classify_all, classified)),
        (cli, "trace_universe", tracer.wrap("evaluation.universe", cli.trace_universe)),
        (cli, "evaluate_case", tracer.wrap("evaluation.case", cli.evaluate_case, scored)),
        (cli, "write_report", tracer.wrap("evaluation.report", cli.write_report)),
        (engine, "detect", tracer.wrap("detector.detect", engine.detect, detected)),
        (
            evaluation,
            "classify_all",
            tracer.wrap("rules.classify", evaluation.classify_all, classified),
        ),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Route the layer entry points of flowscan through `tracer`."""
    patches = _patches(tracer)
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced CLI call whose root span is `cli`."""
    t, c = tracer, tracer.counts
    classified = c["rules.ips_classified"]
    return {
        "ingest.read_s": t.total("ingest.read"),
        "ingest.rows": c["ingest.rows"],
        "ingest.skipped": c["ingest.skipped"],
        "ingest.gt_read_s": t.total("ingest.gt_read"),
        "ingest.gt_entries": c["ingest.gt_entries"],
        "engine.batch_s": t.total("engine.batch"),
        "engine.batch_calls": t.calls("engine.batch"),
        "engine.self_s": t.self_time("engine.batch"),
        "engine.stream_s": t.total("engine.stream"),
        "engine.slices_emitted": c["engine.slices_emitted"],
        "engine.late_dropped": c["engine.late_dropped"],
        "detector.detect_s": t.total("detector.detect"),
        "detector.detect_calls": t.calls("detector.detect"),
        "detector.verdicts": c["detector.verdicts"],
        "rules.classify_s": t.total("rules.classify"),
        "rules.classify_calls": t.calls("rules.classify"),
        "rules.ips_classified": classified,
        "rules.confirmed_ratio": c["rules.ips_confirmed"] / classified if classified else 0.0,
        "evaluation.universe_s": t.total("evaluation.universe"),
        "evaluation.case_self_s": t.self_time("evaluation.case"),
        "evaluation.case_calls": t.calls("evaluation.case"),
        "evaluation.reintegrated": c["evaluation.reintegrated"],
        "evaluation.report_s": t.total("evaluation.report"),
        "cli.self_s": t.self_time("cli"),
        "cli.total_s": t.total("cli"),
    }
