"""Batch and streaming execution around the ratio detector.

Both modes count a FlowBatch with one kernel, `count_flows`, into (slice
index, (generated, received)) pairs of tables keyed by IP id, which
`detect` takes one slice at a time. An iterable of FlowRecords is read
whole into a batch at the entry point first.

Batch mode optionally fans the counting stage out across forked worker
processes, one `forked` child per extra row range. A child reads the
batch through copy-on-write memory, counts its range at once and sends
its tables back with marshal, while this process counts the first range.
Counting is a per-key sum, which is associative and commutative, so the
ranges merge slice by slice to the same tables and the output is
byte-identical for every worker count.

Streaming mode gives the kernel a watermark lag: it closes each slice
as the watermark passes the slice's end and drops the flows of closed
slices, and run_streaming, with no loop of its own, cuts and emits each
slice as it closes. The CLI fails a run that drops over MAX_LATE_RATIO.
"""

from __future__ import annotations

import contextlib
import marshal
import math
import os
import signal
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from .core import US_PER_SECOND, FlowBatch, FlowRecord, SliceConfig, as_batch
from .detector import DetectorConfig, RatioVerdict, SliceCounts, count_flows, detect

DEFAULT_WATERMARK_LAG_S = 5.0
# The largest share of a stream's flows that may arrive after their slice
# closed; past it the dropped flows distort the verdicts too much to keep.
MAX_LATE_RATIO = 0.1


class EngineError(ChildProcessError):
    """A worker process failed; the message reports partial progress."""


class Mode(Enum):
    BATCH = "batch"
    STREAM = "stream"


@dataclass(frozen=True, slots=True)
class EngineConfig:
    workers: int = 1
    watermark_lag_seconds: float = DEFAULT_WATERMARK_LAG_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        lag = self.watermark_lag_seconds
        if not 0 <= lag < math.inf:
            raise ValueError(f"watermark_lag_seconds must be finite and >= 0, got {lag}")


@dataclass(frozen=True, slots=True)
class RunStats:
    trace_duration_s: float
    records_in: int
    verdicts_out: int
    late_dropped: int = 0


@contextlib.contextmanager
def forked(early: Callable, late: Callable = lambda x: x) -> Iterator[Callable]:
    """Yield a function that returns `late(early())`, made by a child forked
    here. The child calls `early()` at once and `late` on its result when the
    function is called, and sends the answer back with marshal, so it must be
    of builtin types. The function raises ChildProcessError with the text of
    an exception either step raised, or when the child ended without an
    answer. The child is killed and reaped however the block exits. Without
    os.fork, both steps run in this process when the function is called."""
    if not hasattr(os, "fork"):
        yield lambda: late(early())
        return
    (go_r, go_w), (done_r, done_w) = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the child ends here, however its work ends
            os.close(go_w)  # so that the read below ends if the parent is gone
            try:
                value = early()
                reply = marshal.dumps((True, late(value))) if os.read(go_r, 1) else b""
            except Exception as exc:
                reply = marshal.dumps((False, str(exc)))
            with open(done_w, "wb") as fh:
                fh.write(reply)
        finally:
            os._exit(0)
    os.close(go_r)
    os.close(done_w)
    with open(go_w, "wb", buffering=0) as go, open(done_r, "rb") as done:
        def answer():
            # A child whose `early` failed may have sent its text and exited.
            with contextlib.suppress(BrokenPipeError):
                go.write(b"1")
            try:
                ok, value = marshal.loads(done.read())
            except (EOFError, ValueError):
                raise ChildProcessError("the forked process ended without an answer") from None
            if not ok:
                raise ChildProcessError(value)
            return value

        try:
            yield answer
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _parallel_counts(batch: FlowBatch, slices: SliceConfig, workers: int) -> SliceCounts:
    step = -(-len(batch) // workers)
    ranges = [(low, min(low + step, len(batch))) for low in range(0, len(batch), step)]
    # Called before any fork, so a pre-start flow raises here, not in a worker.
    mine = count_flows(batch, slices, *ranges[0])

    def count_range(low: int, high: int) -> dict[int, tuple[dict, dict]]:
        # marshal carries dicts, not Counters.
        pairs = count_flows(batch, slices, low, high)
        return {index: (dict(gen), dict(recv)) for index, (gen, recv) in pairs}

    with contextlib.ExitStack() as workers_left:
        parts = [
            workers_left.enter_context(forked(lambda bounds=bounds: count_range(*bounds)))
            for bounds in ranges[1:]
        ]
        # This process counts the first range while the workers count the rest.
        counts = dict(mine)
        for completed, part in enumerate(parts):
            try:
                tables = part()
            except ChildProcessError as exc:
                raise EngineError(
                    f"count worker failed after {completed} of {len(parts)} partitions: {exc}"
                ) from exc
            for index, (gen, recv) in tables.items():
                merged = counts.setdefault(index, (Counter(), Counter()))
                merged[0].update(gen)
                merged[1].update(recv)
    # Popped as taken, so that a cut frees each slice's tables after it.
    return ((index, counts.pop(index)) for index in sorted(counts))


def count_slices(
    flows: Iterable[FlowRecord] | FlowBatch,
    slices: SliceConfig,
    engine: EngineConfig = EngineConfig(),
) -> SliceCounts:
    """The per-slice (generated, received) count pairs of a complete
    trace, as count_flows yields them for the trace's batch, counted by
    forked workers when workers > 1 and the platform can fork. They serve
    one `detect(batch, ..., counts=...)` cut, which takes each pair once.

    Output is identical for every worker count.
    """
    batch = as_batch(flows)
    if engine.workers > 1 and len(batch) > 1 and hasattr(os, "fork"):
        return _parallel_counts(batch, slices, engine.workers)
    return count_flows(batch, slices)


def run_batch(
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: DetectorConfig,
    engine: EngineConfig = EngineConfig(),
) -> tuple[list[RatioVerdict], RunStats]:
    """Detect over a complete trace: count_slices, then one threshold cut."""
    batch = as_batch(flows)
    counts = count_slices(batch, cfg.slices, engine)
    verdicts = detect(batch, cfg, counts=counts)
    return verdicts, _run_stats(batch, len(verdicts))


def _run_stats(batch: FlowBatch, verdicts_out: int, late_dropped: int = 0) -> RunStats:
    """The stats of a run over the batch, whose trace lasts from its
    earliest to its latest timestamp."""
    duration_s = (batch.latest_us - batch.earliest_us) / US_PER_SECOND if batch else 0.0
    return RunStats(duration_s, len(batch), verdicts_out, late_dropped)


EmitFn = Callable[[int, list[RatioVerdict]], None]


def run_streaming(
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: DetectorConfig,
    engine: EngineConfig,
    emit: EmitFn,
) -> RunStats:
    """Emit each slice's verdicts as the stream's watermark passes its end.

    count_flows reads the stream, a FlowBatch, under the lag of
    `engine.watermark_lag_seconds`; this loop only cuts each slice it closes
    and calls `emit(slice_index, verdicts)`, in ascending order; emit's
    exceptions propagate. A record iterable is read whole, and a pre-start
    flow raises ConfigError, before the first emission. Late flows count in
    `late_dropped`; with none, the emissions add up to the batch result.
    """
    batch = as_batch(flows)
    lag_us = round(engine.watermark_lag_seconds * US_PER_SECOND)
    kept = emitted = 0
    for index, tables in count_flows(batch, cfg.slices, lag_us=lag_us):
        # Each kept flow adds one to its slice's generated table.
        kept += tables[0].total()
        verdicts = detect(batch, cfg, counts=[(index, tables)])
        # Let the next slice be counted with no tables of this one alive.
        del tables
        emit(index, verdicts)
        emitted += len(verdicts)
    return _run_stats(batch, emitted, len(batch) - kept)
