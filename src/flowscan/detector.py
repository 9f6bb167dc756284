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
from typing import Iterable, Mapping, Optional, Sequence

from .core import FlowRecord, IpAddress, SliceConfig, SliceKey, slice_of

DEFAULT_THRESHOLD = 100.0

# Flow counts per (IP, slice index).
CountTable = Counter[tuple[IpAddress, int]]


class Direction(Enum):
    SENDER = "sender"
    RECEIVER = "receiver"


@dataclass(frozen=True, slots=True)
class SliceCounts:
    """Joined per-(IP, slice) flow counts; absent sides are zero."""

    key: SliceKey
    generated: int
    received: int


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
    flows: Sequence[FlowRecord], slices: SliceConfig
) -> tuple[list[IpAddress], list[IpAddress], list[int]]:
    """The flows' source IPs, destination IPs and slice indices, as three
    columns. Raises ValueError for a flow that starts before the trace start.
    """
    start = slices.trace_start_us
    duration = slices.duration_us
    index = [(flow.first_seen_us - start) // duration for flow in flows]
    if index and min(index) < 0:
        slice_of(flows[index.index(min(index))], slices)  # raises
    return [flow.src for flow in flows], [flow.dst for flow in flows], index


def count_columns(
    srcs: Sequence[IpAddress], dsts: Sequence[IpAddress], index: Sequence[int]
) -> tuple[CountTable, CountTable]:
    """Flows generated per (source IP, slice index) and received per
    (destination IP, slice index): the one counting step of the detector."""
    return Counter(zip(srcs, index)), Counter(zip(dsts, index))


def count_flows(
    flows: Sequence[FlowRecord], slices: SliceConfig
) -> tuple[CountTable, CountTable]:
    """(generated, received) count tables of the flows; see count_columns."""
    return count_columns(*flow_columns(flows, slices))


def full_outer_join(
    generated: Mapping[tuple[IpAddress, int], int],
    received: Mapping[tuple[IpAddress, int], int],
) -> list[SliceCounts]:
    """Pair the two count tables over the union of keys, filling zeros."""
    make = SliceKey._make
    out = []
    for key, gen in generated.items():
        out.append(SliceCounts(make(key), gen, received.get(key, 0)))
    for key, recv in received.items():
        if key not in generated:
            out.append(SliceCounts(make(key), 0, recv))
    return out


def ratio_of(generated: int, received: int) -> float:
    """Signed flow-count ratio; sign gives the dominant direction."""
    if generated < 0 or received < 0:
        raise ValueError("counts must be non-negative")
    if generated >= received:
        return generated / max(received, 1)
    return -(received / max(generated, 1))


def detect(
    flows: Iterable[FlowRecord],
    cfg: DetectorConfig,
    counts: Optional[list[SliceCounts]] = None,
) -> list[RatioVerdict]:
    """All per-slice verdicts whose |ratio| exceeds the threshold, sorted
    by (slice index, IP). Precomputed joined counts may be passed in."""
    if counts is None:
        if not isinstance(flows, list):
            flows = list(flows)
        counts = full_outer_join(*count_flows(flows, cfg.slices))
    threshold = cfg.threshold
    verdicts = []
    for entry in counts:
        ratio = ratio_of(entry.generated, entry.received)
        if ratio > threshold:
            direction = Direction.SENDER
        elif ratio < -threshold:
            direction = Direction.RECEIVER
        else:
            continue
        verdicts.append(
            RatioVerdict(entry.key, direction, entry.generated, entry.received, ratio)
        )
    verdicts.sort(key=lambda v: v.key.sort_key())
    return verdicts


def anomalous_ips(verdicts: Iterable[RatioVerdict]) -> set[tuple[IpAddress, Direction]]:
    """Distinct (IP, direction) pairs across all flagged slices."""
    return {(v.key.ip, v.direction) for v in verdicts}
