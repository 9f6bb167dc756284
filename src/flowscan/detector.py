"""Ratio detector: per-slice generated/received flow counts and flagging.

An IP that generates far more flows than it receives inside one time
slice (or the reverse) gets flagged. The ratio is signed so one
threshold covers both directions: positive means more generated,
negative means more received, and the magnitude is the larger count
over the smaller one clamped to at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import FlowRecord, IpAddress, SliceConfig, SliceKey, slice_of

DEFAULT_THRESHOLD = 100.0


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


def count_by_source(
    flows: Iterable[FlowRecord], cfg: SliceConfig
) -> dict[SliceKey, int]:
    """Flows generated per (source IP, slice)."""
    return _count_by(flows, cfg, destination=False)


def count_by_destination(
    flows: Iterable[FlowRecord], cfg: SliceConfig
) -> dict[SliceKey, int]:
    """Flows received per (destination IP, slice)."""
    return _count_by(flows, cfg, destination=True)


def _count_by(
    flows: Iterable[FlowRecord], cfg: SliceConfig, destination: bool
) -> dict[SliceKey, int]:
    counts: dict[SliceKey, int] = {}
    start = cfg.trace_start_us
    duration = cfg.duration_us
    for flow in flows:
        offset = flow.first_seen_us - start
        if offset < 0:
            raise ValueError(
                f"flow first_seen {flow.first_seen_us} precedes trace start {start}"
            )
        key = SliceKey(flow.dst if destination else flow.src, offset // duration)
        counts[key] = counts.get(key, 0) + 1
    return counts


def full_outer_join(
    generated: dict[SliceKey, int], received: dict[SliceKey, int]
) -> list[SliceCounts]:
    """Pair the two count tables over the union of keys, filling zeros."""
    out = []
    for key, gen in generated.items():
        out.append(SliceCounts(key, gen, received.get(key, 0)))
    for key, recv in received.items():
        if key not in generated:
            out.append(SliceCounts(key, 0, recv))
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
        counts = full_outer_join(
            count_by_source(flows, cfg.slices),
            count_by_destination(flows, cfg.slices),
        )
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
