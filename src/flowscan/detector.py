"""Ratio detector: per-slice generated/received flow counts and flagging.

An IP that generates far more flows than it receives inside one time
slice (or the reverse) gets flagged. The ratio is signed so one
threshold covers both directions: positive means more generated,
negative means more received, and the magnitude is the larger count
over the smaller one clamped to at least 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .core import (
    FlowBatch, FlowRecord, Flows, IpAddress, SliceConfig, SliceKey, as_batch, slice_at
)

DEFAULT_THRESHOLD = 100.0

# Flow counts per (IP, slice index); the IP is an address, or its dense
# id when a FlowBatch was counted.
CountTable = Counter[tuple[Union[IpAddress, int], int]]


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


def flow_columns(
    flows: Flows, slices: SliceConfig
) -> tuple[Sequence, Sequence, list[int]]:
    """The flows' source IPs, destination IPs and slice indices, as three
    columns; a FlowBatch gives its id columns, a FlowRecord sequence its
    addresses. Raises ValueError for a flow that starts before the trace
    start.
    """
    start = slices.trace_start_us
    duration = slices.duration_us
    if isinstance(flows, FlowBatch):
        index = [(first - start) // duration for first in flows.first_seen_us]
        srcs, dsts = flows.src, flows.dst
    else:
        index = [(flow.first_seen_us - start) // duration for flow in flows]
        srcs, dsts = [flow.src for flow in flows], [flow.dst for flow in flows]
    if index and min(index) < 0:
        slice_at(flows[index.index(min(index))].first_seen_us, slices)  # raises
    return srcs, dsts, index


def count_columns(
    srcs: Sequence, dsts: Sequence, index: Sequence[int]
) -> tuple[CountTable, CountTable]:
    """Flows generated per (source IP, slice index) and received per
    (destination IP, slice index): the counting step of batch mode."""
    return Counter(zip(srcs, index)), Counter(zip(dsts, index))


def count_flows(flows: Flows, slices: SliceConfig) -> tuple[CountTable, CountTable]:
    """(generated, received) count tables of the flows, keyed by ids for a
    FlowBatch; see count_columns."""
    return count_columns(*flow_columns(flows, slices))


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
    counts: Optional[tuple[CountTable, CountTable]] = None,
    ips: Optional[Sequence[IpAddress]] = None,
    slice_index: Optional[int] = None,
) -> list[RatioVerdict]:
    """All per-slice verdicts whose |ratio| exceeds the threshold, sorted
    by (slice index, IP). A precomputed (generated, received) pair of
    count tables, as count_flows returns, may be passed in; a key absent
    from one table counts zero on that side. Tables keyed by dense ids,
    as counting a FlowBatch gives, need that batch's `ips` to name each
    id's address. Tables of the one slice `slice_index` may be keyed by
    id alone."""
    if counts is None:
        batch = as_batch(flows)
        counts, ips = count_flows(batch, cfg.slices), batch.ips
    generated, received = counts
    threshold = cfg.threshold
    if slice_index is not None:
        def make(key: int) -> SliceKey:
            return SliceKey(ips[key], slice_index)
    elif ips is None:
        make = SliceKey._make
    else:
        def make(key: tuple[int, int]) -> SliceKey:
            return SliceKey(ips[key[0]], key[1])
    verdicts = []
    # |ratio| <= the larger count and threshold > 0, so only a count above
    # the threshold can flag its key, and only in its own direction.
    for key, gen in generated.items():
        if gen > threshold:
            recv = received.get(key, 0)
            ratio = ratio_of(gen, recv)
            if ratio > threshold:
                verdicts.append(
                    RatioVerdict(make(key), Direction.SENDER, gen, recv, ratio)
                )
    for key, recv in received.items():
        if recv > threshold:
            gen = generated.get(key, 0)
            ratio = ratio_of(gen, recv)
            if ratio < -threshold:
                verdicts.append(
                    RatioVerdict(make(key), Direction.RECEIVER, gen, recv, ratio)
                )
    verdicts.sort(key=lambda v: v.key.sort_key())
    return verdicts


def anomalous_ips(verdicts: Iterable[RatioVerdict]) -> set[tuple[IpAddress, Direction]]:
    """Distinct (IP, direction) pairs across all flagged slices."""
    return {(v.key.ip, v.direction) for v in verdicts}
