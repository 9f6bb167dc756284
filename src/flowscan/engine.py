"""Batch and streaming execution around the ratio detector.

Batch mode optionally fans the counting stage out across forked worker
processes. The flows' source, destination and slice-index columns are
built once, before the fork, and shared with the workers through a
module global; each worker counts one contiguous index range of them,
and this process counts the first range. Only the range bounds and the
per-range count tables are pickled. Counting is a per-key sum, which is
associative and commutative, so the ranges merge to the same tables and
the final output is byte-identical for every worker count.

Streaming mode walks a FlowBatch in row order with a watermark set to
the newest timestamp seen minus a fixed lag; FlowRecords are read whole
into a batch first. A slice closes, and its verdicts are emitted exactly
once, when the watermark reaches the slice's end; flows for
already-closed slices are dropped and counted. An open slice buffers the
source ids and the destination ids of its flows, and counts each list by
id when it closes.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    US_PER_SECOND, FlowBatch, FlowRecord, Flows, SliceConfig, as_batch, slice_at
)
from .detector import (
    CountTable,
    DetectorConfig,
    RatioVerdict,
    count_columns,
    count_flows,
    detect,
    flow_columns,
)

DEFAULT_WATERMARK_LAG_S = 5.0


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
        if self.watermark_lag_seconds < 0:
            raise ValueError("watermark_lag_seconds must be >= 0")


@dataclass(frozen=True, slots=True)
class RunStats:
    wall_time_s: float
    trace_duration_s: float
    time_ratio: float
    records_in: int
    verdicts_out: int
    late_dropped: int = 0


# Flow columns visible to forked count workers; set only for the pool's
# lifetime.
_WORKER_COLUMNS: Optional[tuple[Sequence, Sequence, list[int]]] = None


def _count_range(bounds: tuple[int, int]) -> tuple[CountTable, CountTable]:
    assert _WORKER_COLUMNS is not None
    low, high = bounds
    return count_columns(*(column[low:high] for column in _WORKER_COLUMNS))


def _parallel_counts(
    flows: Flows, slices: SliceConfig, workers: int
) -> tuple[CountTable, CountTable]:
    global _WORKER_COLUMNS
    import multiprocessing

    # The columns are built before the fork, so workers touch no flow
    # object and copy-on-write has next to nothing to copy.
    _WORKER_COLUMNS = flow_columns(flows, slices)
    step = -(-len(flows) // workers)
    ranges = [(low, min(low + step, len(flows))) for low in range(0, len(flows), step)]
    ctx = multiprocessing.get_context("fork")
    completed = 0
    try:
        with ctx.Pool(processes=len(ranges) - 1) as pool:
            parts = pool.imap(_count_range, ranges[1:])
            # This process counts the first range while the workers count
            # the rest.
            generated, received = _count_range(ranges[0])
            try:
                for gen, recv in parts:
                    generated.update(gen)
                    received.update(recv)
                    completed += 1
            except Exception as exc:
                raise EngineError(
                    f"count worker failed after {completed} of {len(ranges) - 1} "
                    f"partitions: {exc}"
                ) from exc
    finally:
        _WORKER_COLUMNS = None
    return generated, received


def _time_ratio(wall_s: float, duration_s: float) -> float:
    return wall_s / duration_s if duration_s > 0 else math.inf


def count_slices(
    flows: Flows,
    slices: SliceConfig,
    engine: EngineConfig = EngineConfig(),
) -> tuple[CountTable, CountTable]:
    """The (generated, received) count tables of a complete trace, as
    count_flows returns them (keyed by ids for a FlowBatch), counted by
    forked workers when workers > 1 and the platform can fork. The tables
    do not depend on the detection threshold, so one pair serves any
    number of `detect(..., counts=...)` cuts.

    Output is identical for every worker count.
    """
    if engine.workers > 1 and len(flows) > 1:
        # Imported here: only the fork path needs it, and it is slow to import.
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _parallel_counts(flows, slices, engine.workers)
    return count_flows(flows, slices)


def run_batch(
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: DetectorConfig,
    engine: EngineConfig = EngineConfig(),
) -> tuple[list[RatioVerdict], RunStats]:
    """Detect over a complete trace: count_slices, then one threshold cut."""
    ips = flows.ips if isinstance(flows, FlowBatch) else None
    if not isinstance(flows, (list, FlowBatch)):
        flows = list(flows)
    started = time.perf_counter()
    counts = count_slices(flows, cfg.slices, engine)
    verdicts = detect((), cfg, counts=counts, ips=ips)
    wall = time.perf_counter() - started
    duration_s = _duration_s(flows)
    stats = RunStats(
        wall_time_s=wall,
        trace_duration_s=duration_s,
        time_ratio=_time_ratio(wall, duration_s),
        records_in=len(flows),
        verdicts_out=len(verdicts),
    )
    return verdicts, stats


def _duration_s(flows: Flows) -> float:
    if not len(flows):
        return 0.0
    if isinstance(flows, FlowBatch):
        first, last = min(flows.first_seen_us), max(flows.last_seen_us)
    else:
        first = min(f.first_seen_us for f in flows)
        last = max(f.last_seen_us for f in flows)
    return (last - first) / US_PER_SECOND


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
    FlowRecords is read whole into a batch before the first emission.
    `emit(slice_index, verdicts)` fires once per slice that saw any
    flows, in ascending slice order for everything still open at end of
    stream; its exceptions propagate. Flows whose slice already closed
    are dropped and counted in `late_dropped`. With an in-order stream
    (or disorder within the watermark lag) the union of emissions equals
    the batch result.
    """
    batch = as_batch(flows)
    start = cfg.slices.trace_start_us
    duration = cfg.slices.duration_us
    lag_us = round(engine.watermark_lag_seconds * US_PER_SECOND)
    # slice index -> the source ids, and the destination ids, of its flows
    open_srcs: defaultdict[int, list[int]] = defaultdict(list)
    open_dsts: defaultdict[int, list[int]] = defaultdict(list)
    newest: Optional[int] = None
    closed_max = -1
    dropped = emitted = 0

    started = time.perf_counter()

    def close_slice(index: int) -> int:
        counts = Counter(open_srcs.pop(index)), Counter(open_dsts.pop(index))
        verdicts = detect((), cfg, counts=counts, ips=batch.ips, slice_index=index)
        emit(index, verdicts)
        return len(verdicts)

    for ts, src, dst in zip(batch.first_seen_us, batch.src, batch.dst):
        offset = ts - start
        if offset < 0:
            # Checked on arrival: past a closed slice it would count as late.
            slice_at(ts, cfg.slices)  # raises
        index = offset // duration
        if newest is None or ts > newest:
            newest = ts
            watermark = newest - lag_us
            new_closed_max = (watermark - start) // duration - 1
            if new_closed_max > closed_max:
                for ready in sorted(k for k in open_srcs if k <= new_closed_max):
                    emitted += close_slice(ready)
                closed_max = new_closed_max
        if index <= closed_max:
            dropped += 1
            continue
        open_srcs[index].append(src)
        open_dsts[index].append(dst)

    for ready in sorted(open_srcs):
        emitted += close_slice(ready)
    wall = time.perf_counter() - started
    duration_s = _duration_s(batch)
    return RunStats(
        wall_time_s=wall,
        trace_duration_s=duration_s,
        time_ratio=_time_ratio(wall, duration_s),
        records_in=len(batch),
        verdicts_out=emitted,
        late_dropped=dropped,
    )
