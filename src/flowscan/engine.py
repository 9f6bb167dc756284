"""Batch and streaming execution around the ratio detector.

Both modes count a FlowBatch into one shape: (slice index, (generated,
received)) pairs of tables keyed by IP id, which `detect` takes one
slice at a time. An iterable of FlowRecords is read whole into a batch
at the entry point first.

Batch mode optionally fans the counting stage out across forked worker
processes. The batch and its slice config reach the workers through a
module global, so nothing is built before the fork; each worker counts
one contiguous row range of the batch, computing that range's slice
indices itself, and this process counts the first range. Only the range
bounds and the per-range count tables are pickled. Counting is a per-key
sum, which is associative and commutative, so the ranges merge slice by
slice to the same tables and the final output is byte-identical for
every worker count.

Streaming mode walks the batch in row order with a watermark set to
the newest timestamp seen minus a fixed lag. A slice closes, and its
verdicts are emitted exactly once, when the watermark reaches the
slice's end; flows for already-closed slices are dropped and counted,
and the CLI fails a run that drops more than MAX_LATE_RATIO of its
flows. An open slice buffers the source ids and the destination ids of
its flows; its close counts them into one slice's tables for `detect`.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .core import US_PER_SECOND, FlowBatch, FlowRecord, SliceConfig, as_batch, slice_at
from .detector import DetectorConfig, RatioVerdict, SliceCounts, count_flows, detect

DEFAULT_WATERMARK_LAG_S = 5.0
# The largest share of a stream's flows that may arrive after their slice
# closed; past it the dropped flows distort the verdicts too much to keep.
MAX_LATE_RATIO = 0.1


class EngineError(RuntimeError):
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


# The batch and slice config visible to forked count workers; set only for
# the pool's lifetime.
_WORKER_INPUT: Optional[tuple[FlowBatch, SliceConfig]] = None


def _count_range(bounds: tuple[int, int]) -> dict[int, tuple[Counter, Counter]]:
    assert _WORKER_INPUT is not None
    return dict(count_flows(*_WORKER_INPUT, *bounds))


def _parallel_counts(batch: FlowBatch, slices: SliceConfig, workers: int) -> SliceCounts:
    global _WORKER_INPUT
    import multiprocessing

    step = -(-len(batch) // workers)
    # A pre-start flow raises here, before any fork, not in a worker.
    slice_at(batch.earliest_us, slices)
    # Workers read the batch's arrays through copy-on-write memory.
    _WORKER_INPUT = batch, slices
    ranges = [(low, min(low + step, len(batch))) for low in range(0, len(batch), step)]
    ctx = multiprocessing.get_context("fork")
    completed = 0
    try:
        with ctx.Pool(processes=len(ranges) - 1) as pool:
            parts = pool.imap(_count_range, ranges[1:])
            # This process counts the first range while the workers count
            # the rest.
            counts = _count_range(ranges[0])
            try:
                for part in parts:
                    for index, tables in part.items():
                        mine = counts.setdefault(index, tables)
                        if mine is not tables:
                            mine[0].update(tables[0])
                            mine[1].update(tables[1])
                    completed += 1
            except Exception as exc:
                raise EngineError(
                    f"count worker failed after {completed} of {len(ranges) - 1} "
                    f"partitions: {exc}"
                ) from exc
    finally:
        _WORKER_INPUT = None
    # Popped as taken, so that a cut frees each slice's tables after it.
    return ((index, counts.pop(index)) for index in list(counts))


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
    if engine.workers > 1 and len(batch) > 1:
        # Imported here: only the fork path needs it, and it is slow to import.
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
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
    """Consume a flow stream, emitting each slice's verdicts as the
    watermark passes its end.

    The stream is a FlowBatch read in row order. An iterable of
    FlowRecords is read whole into a batch before the first emission, and
    a flow that starts before the trace start raises ValueError before it.
    `emit(slice_index, verdicts)` fires once per slice that saw any
    flows, in ascending slice order for everything still open at end of
    stream; its exceptions propagate. Flows whose slice already closed
    are dropped and counted in `late_dropped`. With an in-order stream
    (or disorder within the watermark lag) the union of emissions equals
    the batch result.
    """
    batch = as_batch(flows)
    slice_at(batch.earliest_us, cfg.slices)
    start = cfg.slices.trace_start_us
    duration = cfg.slices.duration_us
    lag_us = round(engine.watermark_lag_seconds * US_PER_SECOND)
    # slice index -> the source ids, and the destination ids, of its flows
    open_ids = defaultdict(lambda: (array("I"), array("I")))
    # A flow that starts before the first open slice is late; one that
    # starts at next_close moves the watermark past that slice's end.
    open_from = start
    next_close = open_from + duration + lag_us
    dropped = emitted = 0

    def close_slice(index: int) -> int:
        srcs, dsts = open_ids.pop(index)
        verdicts = detect(batch, cfg, counts=[(index, (Counter(srcs), Counter(dsts)))])
        emit(index, verdicts)
        return len(verdicts)

    for ts, src, dst in zip(batch.first_seen_us, batch.src, batch.dst):
        if ts >= next_close:
            first_open = (ts - lag_us - start) // duration
            for ready in sorted(k for k in open_ids if k < first_open):
                emitted += close_slice(ready)
            open_from = start + first_open * duration
            next_close = open_from + duration + lag_us
        if ts < open_from:
            dropped += 1
            continue
        srcs, dsts = open_ids[(ts - start) // duration]
        srcs.append(src)
        dsts.append(dst)

    for ready in sorted(open_ids):
        emitted += close_slice(ready)
    return _run_stats(batch, emitted, dropped)
