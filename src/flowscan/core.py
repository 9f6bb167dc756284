"""Core domain types: addresses, flow records, and time-slice arithmetic."""

from __future__ import annotations

import ipaddress
import math
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

IpAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

US_PER_SECOND = 1_000_000

DEFAULT_SLICE_SECONDS = 30.0

# Timestamps and packet/byte counts are signed 64-bit ints.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# IANA protocol numbers for the two protocols we name explicitly.
PROTO_TCP = 6
PROTO_UDP = 17

_PROTO_NAMES = {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}
_PROTO_CODES = {"TCP": PROTO_TCP, "UDP": PROTO_UDP}


class ConfigError(ValueError):
    """A configuration value violates its contract."""


def parse_ip(text: str) -> IpAddress:
    """Parse an IPv4 or IPv6 address into its canonical binary form."""
    return ipaddress.ip_address(text)


def format_ip(ip: IpAddress) -> str:
    return str(ip)


def ip_sort_key(ip: IpAddress) -> tuple[int, int]:
    """Total order over mixed v4/v6 addresses (family first, then value)."""
    return (ip.version, int(ip))


def parse_protocol(text: str) -> int:
    """Accept TCP, UDP, or a decimal protocol number."""
    code = _PROTO_CODES.get(text.upper())
    if code is not None:
        return code
    code = int(text)
    if not 0 <= code <= 255:
        raise ValueError(f"protocol number out of range: {code}")
    return code


def format_protocol(proto: int) -> str:
    """Canonical spelling: TCP/UDP by name, anything else as its number."""
    return _PROTO_NAMES.get(proto, str(proto))


def check_flow_fields(
    src_port: int,
    dst_port: int,
    protocol: int,
    first_seen_us: int,
    last_seen_us: int,
    packet_count: int,
    byte_count: int,
) -> None:
    """Raise ValueError unless the values make a valid flow. Timestamps and
    counts must fit a signed 64-bit int, the width of FlowBatch's columns."""
    if not 0 <= src_port <= 65535:
        raise ValueError(f"src_port out of range: {src_port}")
    if not 0 <= dst_port <= 65535:
        raise ValueError(f"dst_port out of range: {dst_port}")
    if not 0 <= protocol <= 255:
        raise ValueError(f"protocol out of range: {protocol}")
    if first_seen_us > last_seen_us:
        raise ValueError("first_seen_us after last_seen_us")
    if packet_count < 1:
        raise ValueError(f"packet_count must be >= 1, got {packet_count}")
    if byte_count < 0:
        raise ValueError(f"byte_count must be >= 0, got {byte_count}")
    if first_seen_us < INT64_MIN or max(last_seen_us, packet_count, byte_count) > INT64_MAX:
        raise ValueError("a timestamp or count does not fit a signed 64-bit int")


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One unidirectional flow summary keyed by its 5-tuple.

    Timestamps are integer microseconds since the Unix epoch; a flow is
    anchored to the slice of its first packet only. Timestamps and
    counts are signed 64-bit.
    """

    src: IpAddress
    dst: IpAddress
    src_port: int
    dst_port: int
    protocol: int
    first_seen_us: int
    last_seen_us: int
    packet_count: int = 1
    byte_count: int = 0

    def __post_init__(self) -> None:
        check_flow_fields(
            self.src_port,
            self.dst_port,
            self.protocol,
            self.first_seen_us,
            self.last_seen_us,
            self.packet_count,
            self.byte_count,
        )


class SliceKey(NamedTuple):
    """An (IP address, slice index) pair, the grain of all counting."""

    ip: IpAddress
    slice_index: int

    def sort_key(self) -> tuple[int, int, int]:
        return (self.slice_index, self.ip.version, int(self.ip))


@dataclass(frozen=True, slots=True)
class SliceConfig:
    """Fixed-duration half-open windows [k*d, (k+1)*d) aligned to trace start."""

    trace_start_us: int
    slice_seconds: float = DEFAULT_SLICE_SECONDS

    def __post_init__(self) -> None:
        if not INT64_MIN <= self.trace_start_us <= INT64_MAX:
            raise ConfigError(
                f"trace_start_us must fit a signed 64-bit int, got {self.trace_start_us}"
            )
        if not 1 <= self.slice_seconds * US_PER_SECOND < math.inf:
            raise ConfigError(
                f"slice_seconds must be finite and >= 1e-06, got {self.slice_seconds}"
            )

    @property
    def duration_us(self) -> int:
        return round(self.slice_seconds * US_PER_SECOND)


def slice_at(first_seen_us: int, cfg: SliceConfig) -> int:
    """Index of the slice holding a flow's first packet, given its
    timestamp. Raises ConfigError for one before the trace start."""
    offset = first_seen_us - cfg.trace_start_us
    if offset < 0:
        raise ConfigError(
            f"flow first_seen {first_seen_us} precedes trace start {cfg.trace_start_us}"
        )
    return offset // cfg.duration_us


class FlowBatch:
    """Flows held as columns: one stdlib array per FlowRecord field.

    `src` and `dst` hold dense int ids into `ips`. An address gets the
    next id when the first row holding it is appended; ids are keyed by
    the address value, so two spellings of one address share an id and
    `ips` holds each address of the batch's rows exactly once.
    Timestamps and packet/byte counts are signed 64-bit. Rows enter
    through `extend` (columns) or `append` (one record), which keep the
    trace bounds: `earliest_us`, the smallest first_seen_us, and
    `latest_us`, the largest last_seen_us (inf and -inf while the batch
    is empty). Indexing or iterating the batch yields FlowRecord rows.

    A lean batch stores only `first_seen_us`, `src`, `dst` and `dst_port`,
    the columns that counting and the scan rules read; its other five
    columns are None. It takes rows through `extend` alone, and `columns`,
    `append`, indexing and iterating raise ValueError.
    """

    def __init__(self, lean: bool = False) -> None:
        self.ips: list[IpAddress] = []
        self._ids: dict[IpAddress, int] = {}
        self.lean = lean
        # Typecodes in flow-file field order; "." marks a column that a lean
        # batch does not store, and holds None instead.
        codes = "q.II.H..." if lean else "qqIIHHBqq"
        self._all = tuple(None if code == "." else array(code) for code in codes)
        (self.first_seen_us, self.last_seen_us, self.src, self.dst, self.src_port,
         self.dst_port, self.protocol, self.packet_count, self.byte_count) = self._all
        self.earliest_us: int | float = math.inf
        self.latest_us: int | float = -math.inf

    def intern(self, ip: IpAddress) -> int:
        """The id of an address, assigning the next one if it is new."""
        ip_id = self._ids.get(ip)
        if ip_id is None:
            ip_id = self._ids[ip] = len(self.ips)
            self.ips.append(ip)
        return ip_id

    def id_of(self, ip: IpAddress) -> Optional[int]:
        """The id of an address, or None if no row holds it."""
        return self._ids.get(ip)

    def append(self, flow: FlowRecord) -> int:
        """Append one row; returns its index."""
        columns = self.columns()
        row = (
            flow.first_seen_us, flow.last_seen_us, self.intern(flow.src), self.intern(flow.dst),
            flow.src_port, flow.dst_port, flow.protocol, flow.packet_count, flow.byte_count,
        )
        for column, value in zip(columns, row):
            column.append(value)
        self.earliest_us = min(self.earliest_us, flow.first_seen_us)
        self.latest_us = max(self.latest_us, flow.last_seen_us)
        return len(self.src) - 1

    def columns(self) -> tuple[array, ...]:
        """The nine columns in flow-file field order (ingest.FLOW_HEADER)."""
        if self.lean:
            raise ValueError("a lean FlowBatch holds only first_seen_us, src, dst and dst_port")
        return self._all

    def extend(self, columns: Iterable[Sequence], ids: dict, address: Callable) -> None:
        """Append rows given as nine columns in the order of columns(),
        whose src and dst hold names of addresses. `ids` maps a name to its
        id in this batch; each name it lacks is added, with the address
        `address(name)` gives, once per name, in first-appearance order, a
        row's source before its destination. Raises ValueError if the
        columns differ in length, a value does not fit its column or a row
        is not a valid flow, and passes on what `address` raises; either
        way nothing changes, `ids` included."""
        columns = tuple(columns)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns of different lengths: {[*map(len, columns)]}")
        first, last, srcs, dsts, src_port, dst_port, protocol, packets, sizes = columns
        # Checked on the given ints, which is cheaper than on arrays; the
        # column types then bound ports, protocol and 64-bit values. A lean
        # batch bounds the values of the columns it does not store here.
        if min(packets, default=1) < 1 or min(sizes, default=0) < 0 or any(map(gt, first, last)):
            raise ValueError("a row is not a valid flow")
        if self.lean and not (
            max(chain(last, packets, sizes), default=0) <= INT64_MAX
            and 0 <= min(chain(src_port, protocol), default=0)
            and max(src_port, default=0) <= 65535 and max(protocol, default=0) <= 255
        ):
            raise ValueError("a value does not fit its column")
        earliest, latest = min(first, default=math.inf), max(last, default=-math.inf)
        try:
            # An array built from a list or tuple is sized once.
            first, dst_port = array("q", first), array("H", dst_port)
            if not self.lean:
                last, src_port, protocol, packets, sizes = map(
                    array, "qHBqq", (last, src_port, protocol, packets, sizes)
                )
        except OverflowError:
            raise ValueError("a value does not fit its column") from None
        try:
            src, dst = (array("I", [*map(ids.__getitem__, names)]) for names in (srcs, dsts))
        except KeyError:
            # Every new name is resolved, once, before the first is interned,
            # so an exception from `address` changes nothing.
            new = [n for n in dict.fromkeys(chain.from_iterable(zip(srcs, dsts))) if n not in ids]
            for name, ip in list(zip(new, map(address, new))):
                ids[name] = self.intern(ip)
            src, dst = (array("I", [*map(ids.__getitem__, names)]) for names in (srcs, dsts))
        added = first, last, src, dst, src_port, dst_port, protocol, packets, sizes
        for column, values in zip(self._all, added):
            if column is not None:
                column.extend(values)
        self.earliest_us = min(self.earliest_us, earliest)
        self.latest_us = max(self.latest_us, latest)

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, row: int) -> FlowRecord:
        first, last, src, dst, sport, dport, proto, packets, size = self.columns()
        return FlowRecord(self.ips[src[row]], self.ips[dst[row]], sport[row], dport[row],
                          proto[row], first[row], last[row], packets[row], size[row])

    def __iter__(self) -> Iterator[FlowRecord]:
        return map(self.__getitem__, range(len(self)))


def as_batch(flows: Iterable[FlowRecord] | FlowBatch) -> FlowBatch:
    """The flows as a FlowBatch: a batch itself, else a new batch holding
    the records in order."""
    if isinstance(flows, FlowBatch):
        return flows
    batch = FlowBatch()
    for flow in flows:
        batch.append(flow)
    return batch
