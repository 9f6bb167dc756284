"""Ratio detector: per-slice generated/received flow counts and flagging.

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

# (slice index, (generated, received)) pairs of flow counts keyed by IP id,
# each taken once, so that only one slice's tables need be alive at a time.
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
    batch: FlowBatch, slices: SliceConfig, low: int = 0, high: Optional[int] = None
) -> SliceCounts:
    """Flows generated per source id and received per destination id in
    each slice among the batch's rows low..high, for batch mode and its
    workers, one slice's pair at a time: each slice's two tables are
    counted only when its pair is taken. Raises ValueError, when called,
    if any flow of the batch starts before the trace start."""
    slice_at(batch.earliest_us, slices)
    start = slices.trace_start_us
    duration = slices.duration_us
    # Views of the row range, alive only while iterated: a slice of an array
    # would copy it, and a view kept alive would stop the batch from growing.
    rows = slice(low, high)
    index = [
        (first - start) // duration for first in memoryview(batch.first_seen_us)[rows]
    ]
    # Each slice's source and destination ids, counted once it holds them all.
    buckets = defaultdict(lambda: (array("I"), array("I")))
    for i, src, dst in zip(index, memoryview(batch.src)[rows], memoryview(batch.dst)[rows]):
        srcs, dsts = buckets[i]
        srcs.append(src)
        dsts.append(dst)
    return ((i, tuple(map(Counter, buckets.pop(i)))) for i in list(buckets))


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
    verdicts.sort(key=lambda v: v.key.sort_key())
    return verdicts


def anomalous_ips(verdicts: Iterable[RatioVerdict]) -> set[tuple[IpAddress, Direction]]:
    """Distinct (IP, direction) pairs across all flagged slices."""
    return {(v.key.ip, v.direction) for v in verdicts}
