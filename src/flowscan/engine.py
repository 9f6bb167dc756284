"""Batch and streaming execution around the ratio detector.

Batch mode optionally fans the counting stage out across forked worker
processes. Flows are shared with workers through a module global
captured at fork time, so only small index arrays and the per-partition
count tables cross process boundaries. Counting is a per-key sum, which
is associative and commutative, so any partitioning of the input merges
to the same tables and the final output is byte-identical regardless of
worker count or partitioning strategy.

Streaming mode processes an ordered flow stream with a watermark set to
the newest timestamp seen minus a fixed lag. A slice closes, and its
verdicts are emitted exactly once, when the watermark reaches the
slice's end; flows for already-closed slices are dropped and counted.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .core import US_PER_SECOND, FlowRecord, IpAddress, SliceConfig, SliceKey
from .detector import DetectorConfig, RatioVerdict, SliceCounts, detect, full_outer_join
from .detector import count_by_destination, count_by_source

DEFAULT_WATERMARK_LAG_S = 5.0


class EngineError(RuntimeError):
    """A worker process failed; the message reports partial progress."""


class Partitioning(Enum):
    BY_SLICE_INDEX = "by_slice_index"
    BY_IP_HASH = "by_ip_hash"


class Mode(Enum):
    BATCH = "batch"
    STREAM = "stream"


@dataclass(frozen=True, slots=True)
class EngineConfig:
    workers: int = 1
    partitioning: Partitioning = Partitioning.BY_SLICE_INDEX
    mode: Mode = Mode.BATCH
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


def merge_counts(a: dict[SliceKey, int], b: dict[SliceKey, int]) -> dict[SliceKey, int]:
    """Combine two count tables by per-key addition."""
    out = dict(a)
    _merge_into(out, b)
    return out


def _merge_into(acc: dict[SliceKey, int], part: dict[SliceKey, int]) -> None:
    for key, value in part.items():
        acc[key] = acc.get(key, 0) + value


# Flows visible to forked count workers; set only for the pool's lifetime.
_WORKER_FLOWS: Optional[list[FlowRecord]] = None


def _count_partition(
    payload: tuple[array, int, int]
) -> tuple[dict[SliceKey, int], dict[SliceKey, int]]:
    indices, start, duration = payload
    flows = _WORKER_FLOWS
    assert flows is not None
    generated: dict[SliceKey, int] = {}
    received: dict[SliceKey, int] = {}
    for i in indices:
        flow = flows[i]
        offset = flow.first_seen_us - start
        if offset < 0:
            raise ValueError(
                f"flow first_seen {flow.first_seen_us} precedes trace start {start}"
            )
        index = offset // duration
        key = SliceKey(flow.src, index)
        generated[key] = generated.get(key, 0) + 1
        key = SliceKey(flow.dst, index)
        received[key] = received.get(key, 0) + 1
    return generated, received


def _partition_indices(
    flows: Sequence[FlowRecord], slices: SliceConfig, engine: EngineConfig
) -> list[array]:
    n = engine.workers
    parts = [array("q") for _ in range(n)]
    if engine.partitioning is Partitioning.BY_SLICE_INDEX:
        start = slices.trace_start_us
        duration = slices.duration_us
        for i, flow in enumerate(flows):
            offset = flow.first_seen_us - start
            if offset < 0:
                raise ValueError(
                    f"flow first_seen {flow.first_seen_us} precedes trace start {start}"
                )
            parts[(offset // duration) % n].append(i)
    else:
        for i, flow in enumerate(flows):
            parts[int(flow.src) % n].append(i)
    return parts


def _parallel_counts(
    flows: list[FlowRecord], slices: SliceConfig, engine: EngineConfig
) -> tuple[dict[SliceKey, int], dict[SliceKey, int]]:
    global _WORKER_FLOWS
    parts = _partition_indices(flows, slices, engine)
    start = slices.trace_start_us
    duration = slices.duration_us
    payloads = [(part, start, duration) for part in parts if len(part)]
    generated: dict[SliceKey, int] = {}
    received: dict[SliceKey, int] = {}
    if not payloads:
        return generated, received
    if "fork" not in multiprocessing.get_all_start_methods():
        # No fork on this platform: run the partitions in-process. The
        # partition/merge path stays identical, only the parallelism is lost.
        _WORKER_FLOWS = flows
        try:
            for payload in payloads:
                gen, recv = _count_partition(payload)
                _merge_into(generated, gen)
                _merge_into(received, recv)
        finally:
            _WORKER_FLOWS = None
        return generated, received
    ctx = multiprocessing.get_context("fork")
    # Workers inherit the flow list via fork; only indices are pickled.
    _WORKER_FLOWS = flows
    completed = 0
    try:
        with ctx.Pool(processes=engine.workers) as pool:
            try:
                for gen, recv in pool.imap(_count_partition, payloads):
                    _merge_into(generated, gen)
                    _merge_into(received, recv)
                    completed += 1
            except Exception as exc:
                raise EngineError(
                    f"count worker failed after {completed} of {len(payloads)} "
                    f"partitions: {exc}"
                ) from exc
    finally:
        _WORKER_FLOWS = None
    return generated, received


def _time_ratio(wall_s: float, duration_s: float) -> float:
    return wall_s / duration_s if duration_s > 0 else math.inf


def count_slices(
    flows: list[FlowRecord],
    slices: SliceConfig,
    engine: EngineConfig = EngineConfig(),
) -> list[SliceCounts]:
    """Joined per-(IP, slice) counts of a complete trace, counted in
    parallel when workers > 1. The counts do not depend on the detection
    threshold, so one table serves any number of cuts.

    Output is identical for every worker count and partitioning choice.
    """
    if engine.workers > 1 and flows:
        generated, received = _parallel_counts(flows, slices, engine)
    else:
        generated = count_by_source(flows, slices)
        received = count_by_destination(flows, slices)
    return full_outer_join(generated, received)


def run_batch(
    flows: Iterable[FlowRecord],
    cfg: DetectorConfig,
    engine: EngineConfig = EngineConfig(),
) -> tuple[list[RatioVerdict], RunStats]:
    """Detect over a complete trace: count_slices, then one threshold cut."""
    if not isinstance(flows, list):
        flows = list(flows)
    started = time.perf_counter()
    verdicts = detect((), cfg, counts=count_slices(flows, cfg.slices, engine))
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


def _duration_s(flows: Sequence[FlowRecord]) -> float:
    if not flows:
        return 0.0
    first = min(f.first_seen_us for f in flows)
    last = max(f.last_seen_us for f in flows)
    return (last - first) / US_PER_SECOND


EmitFn = Callable[[int, list[RatioVerdict]], None]


def run_streaming(
    flows: Iterable[FlowRecord],
    cfg: DetectorConfig,
    engine: EngineConfig,
    emit: EmitFn,
) -> RunStats:
    """Consume a flow stream, emitting each slice's verdicts as the
    watermark passes its end.

    `emit(slice_index, verdicts)` fires once per slice that saw any
    flows, in ascending slice order for everything still open at end of
    stream; its exceptions propagate. Flows whose slice already closed
    are dropped and counted in `late_dropped`. With an in-order stream
    (or disorder within the watermark lag) the union of emissions equals
    the batch result.
    """
    start = cfg.slices.trace_start_us
    duration = cfg.slices.duration_us
    lag_us = round(engine.watermark_lag_seconds * US_PER_SECOND)
    # slice index -> (per-ip generated, per-ip received)
    open_slices: dict[int, tuple[dict[IpAddress, int], dict[IpAddress, int]]] = {}
    newest: Optional[int] = None
    closed_max = -1
    records = dropped = emitted = 0
    min_first: Optional[int] = None
    max_last: Optional[int] = None

    started = time.perf_counter()

    def close_slice(index: int) -> int:
        generated, received = open_slices.pop(index)
        counts = [
            SliceCounts(SliceKey(ip, index), gen, received.get(ip, 0))
            for ip, gen in generated.items()
        ]
        counts += [
            SliceCounts(SliceKey(ip, index), 0, recv)
            for ip, recv in received.items()
            if ip not in generated
        ]
        verdicts = detect((), cfg, counts=counts)
        emit(index, verdicts)
        return len(verdicts)

    for flow in flows:
        records += 1
        ts = flow.first_seen_us
        if min_first is None or ts < min_first:
            min_first = ts
        if max_last is None or flow.last_seen_us > max_last:
            max_last = flow.last_seen_us
        offset = ts - start
        if offset < 0:
            raise ValueError(f"flow first_seen {ts} precedes trace start {start}")
        index = offset // duration
        if newest is None or ts > newest:
            newest = ts
            watermark = newest - lag_us
            new_closed_max = (watermark - start) // duration - 1
            if new_closed_max > closed_max:
                for ready in sorted(k for k in open_slices if k <= new_closed_max):
                    emitted += close_slice(ready)
                closed_max = new_closed_max
        if index <= closed_max:
            dropped += 1
            continue
        generated, received = open_slices.setdefault(index, ({}, {}))
        generated[flow.src] = generated.get(flow.src, 0) + 1
        received[flow.dst] = received.get(flow.dst, 0) + 1

    for ready in sorted(open_slices):
        emitted += close_slice(ready)
    wall = time.perf_counter() - started
    duration_s = (
        (max_last - min_first) / US_PER_SECOND if min_first is not None else 0.0
    )
    return RunStats(
        wall_time_s=wall,
        trace_duration_s=duration_s,
        time_ratio=_time_ratio(wall, duration_s),
        records_in=records,
        verdicts_out=emitted,
        late_dropped=dropped,
    )
