"""Ratio detector: per-slice generated/received flow counts, batch or stream, and flagging.

An IP that generates far more flows than it receives inside one time
slice (or the reverse) gets flagged. The ratio is signed so one
threshold covers both directions: positive means more generated,
negative means more received, and the magnitude is the larger count
over the smaller one clamped to at least 1.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import (
    FlowBatch, FlowRecord, IpAddress, SliceConfig, SliceKey, as_batch, slice_at
)

DEFAULT_THRESHOLD = 100.0

# (slice index, (generated, received)) pairs of flow counts keyed by IP id, in
# ascending slice order, each taken once: one slice's tables need be alive at a time.
CountTable = Counter[int]
SliceCounts = Iterable[tuple[int, tuple[CountTable, CountTable]]]


class Direction(Enum):
    SENDER = "sender"
    RECEIVER = "receiver"


@dataclass(frozen=True, slots=True)
class RatioVerdict:
    key: SliceKey
    direction: Direction
    generated: int
    received: int
    ratio: float


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    slices: SliceConfig
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and > 0, got {self.threshold}")


def count_flows(
    batch: FlowBatch, slices: SliceConfig, low: int = 0, high: Optional[int] = None,
    lag_us: Optional[int] = None,
) -> SliceCounts:
    """Flows generated per source id and received per destination id in
    each slice among the batch's rows low..high, one slice's pair at a time
    in ascending slice order: the one counting kernel, batch or stream. A
    slice's pair is counted once the watermark, the newest start seen minus
    `lag_us`, passes its end, and a row of a closed slice is dropped; with
    no lag, after the last row. Raises ValueError, when called, if a flow
    of the batch starts before the trace start."""
    slice_at(batch.earliest_us, slices)

    def closed_slices() -> SliceCounts:
        start = slices.trace_start_us
        duration = slices.duration_us
        # Views of the row range, alive only while iterated: a slice of an array
        # would copy it, and a view kept alive would stop the batch from growing.
        view = lambda column: memoryview(column)[low:high]
        # Each open slice's source and destination ids, counted once it closes.
        buckets = defaultdict(lambda: (array("I"), array("I")))
        if lag_us is None:
            # No row is late or moves a watermark, so none is tested: the tests
            # cost a tenth of a batch count, which costs C6 its workers=2 margin.
            index = [(ts - start) // duration for ts in view(batch.first_seen_us)]
            for i, src, dst in zip(index, view(batch.src), view(batch.dst)):
                srcs, dsts = buckets[i]
                srcs.append(src)
                dsts.append(dst)
            del index  # freed before any slice's tables are counted
        else:
            # A row before open_from is late; one at or past next_close moves the watermark.
            open_from = start
            next_close = start + duration + lag_us
            for ts, src, dst in zip(view(batch.first_seen_us), view(batch.src), view(batch.dst)):
                if ts >= next_close:
                    first_open = (ts - lag_us - start) // duration
                    for index in sorted(k for k in buckets if k < first_open):
                        # The popped ids stay alive until the pair's taker is back.
                        srcs, dsts = buckets.pop(index)
                        yield index, (Counter(srcs), Counter(dsts))
                    open_from = start + first_open * duration
                    next_close = open_from + duration + lag_us
                if ts < open_from:
                    continue
                srcs, dsts = buckets[(ts - start) // duration]
                srcs.append(src)
                dsts.append(dst)
        for index in sorted(buckets):
            srcs, dsts = buckets.pop(index)
            yield index, (Counter(srcs), Counter(dsts))

    return closed_slices()


def ratio_of(generated: int, received: int) -> float:
    """Signed flow-count ratio; sign gives the dominant direction."""
    if generated < 0 or received < 0:
        raise ValueError("counts must be non-negative")
    if generated >= received:
        return generated / max(received, 1)
    return -(received / max(generated, 1))


def detect(
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: DetectorConfig,
    counts: Optional[SliceCounts] = None,
) -> list[RatioVerdict]:
    """All per-slice verdicts whose |ratio| exceeds the threshold, sorted
    by (slice index, IP). The per-slice count pairs of the batch `flows`,
    as count_flows yields them, may be passed in and are each taken once;
    an id absent from one table of its slice counts zero on that side,
    and the batch's `ips` names each id."""
    batch = as_batch(flows)
    if counts is None:
        counts = count_flows(batch, cfg.slices)
    threshold = cfg.threshold
    ips = batch.ips
    verdicts = []
    # |ratio| <= the larger count and threshold > 0, so only a count above
    # the threshold can flag its key, and only in its own direction.
    for index, (generated, received) in counts:
        for key, gen in generated.items():
            if gen > threshold:
                recv = received.get(key, 0)
                ratio = ratio_of(gen, recv)
                if ratio > threshold:
                    verdicts.append(RatioVerdict(
                        SliceKey(ips[key], index), Direction.SENDER, gen, recv, ratio
                    ))
        for key, recv in received.items():
            if recv > threshold:
                gen = generated.get(key, 0)
                ratio = ratio_of(gen, recv)
                if ratio < -threshold:
                    verdicts.append(RatioVerdict(
                        SliceKey(ips[key], index), Direction.RECEIVER, gen, recv, ratio
                    ))
        # Let the next pair be counted with no tables of this one alive.
        del generated, received
    verdicts.sort(key=lambda v: v.key.sort_key())
    return verdicts


def anomalous_ips(verdicts: Iterable[RatioVerdict]) -> set[tuple[IpAddress, Direction]]:
    """Distinct (IP, direction) pairs across all flagged slices."""
    return {(v.key.ip, v.direction) for v in verdicts}
