"""Input handling: flow files, packet-to-flow aggregation, ground truth XML."""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    US_PER_SECOND,
    FlowBatch,
    FlowRecord,
    IpAddress,
    check_flow_fields,
    format_ip,
    format_protocol,
    parse_ip,
    parse_protocol,
)

logger = logging.getLogger(__name__)

FLOW_HEADER = "first_seen_us,last_seen_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes"

# A lenient read aborts anyway once this fraction of data lines is malformed.
MAX_ERROR_RATIO = 0.1

# A lenient read keeps the line numbers of this many skipped lines.
SKIPPED_LINES_KEPT = 5

DEFAULT_IDLE_TIMEOUT_S = 60.0


class FlowFileError(ValueError):
    """A flow file violates the format contract."""


class GroundTruthError(ValueError):
    """A ground truth XML file cannot be interpreted."""


class FlowFileReader:
    """Reads a flow file into a FlowBatch.

    In lenient mode malformed lines are skipped and counted in `errors`,
    and the line numbers of the first SKIPPED_LINES_KEPT of them are kept
    in `skipped_lines`; the read still fails once more than
    MAX_ERROR_RATIO of the data lines are bad. In strict mode the first
    malformed line aborts. A line is malformed unless its nine fields
    make a valid FlowRecord (timestamps and packet/byte counts are signed
    64-bit). Addresses of skipped lines get no id in the batch. Iterating
    the reader yields the batch's rows.
    """

    def __init__(self, path: str | Path, strict: bool = False) -> None:
        self.path = Path(path)
        self.strict = strict
        self.errors = 0
        self.rows = 0
        self.skipped_lines: list[int] = []

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.read())

    def read(self) -> FlowBatch:
        """The file's accepted rows."""
        batch = FlowBatch()
        self.errors = self.rows = 0
        self.skipped_lines = []
        # text -> id for addresses of accepted rows; text -> code for protocols
        ids: dict[str, int] = {}
        protocols: dict[str, int] = {}
        intern = batch.intern
        src_ids, dst_ids = batch.src.append, batch.dst.append
        src_ports, dst_ports = batch.src_port.append, batch.dst_port.append
        protocol_codes = batch.protocol.append
        firsts, lasts = batch.first_seen_us.append, batch.last_seen_us.append
        packet_counts, byte_counts = batch.packet_count.append, batch.byte_count.append
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            header = fh.readline().rstrip("\r\n")
            if header != FLOW_HEADER:
                raise FlowFileError(f"{self.path}: bad header {header!r}")
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != 9:
                        raise ValueError(f"expected 9 fields, got {len(parts)}")
                    first, last, src_text, dst_text, sport, dport, proto, packets, size = parts
                    src = ids.get(src_text)
                    src_ip = parse_ip(src_text) if src is None else None
                    dst = ids.get(dst_text)
                    dst_ip = parse_ip(dst_text) if dst is None else None
                    sport = int(sport)
                    dport = int(dport)
                    protocol = protocols.get(proto)
                    if protocol is None:
                        protocol = protocols[proto] = parse_protocol(proto)
                    first = int(first)
                    last = int(last)
                    packets = int(packets)
                    size = int(size)
                    check_flow_fields(sport, dport, protocol, first, last, packets, size)
                except ValueError as exc:
                    if self.strict:
                        raise FlowFileError(f"{self.path}:{lineno}: {exc}") from exc
                    self.errors += 1
                    if len(self.skipped_lines) < SKIPPED_LINES_KEPT:
                        self.skipped_lines.append(lineno)
                    continue
                if src is None:
                    src = ids[src_text] = intern(src_ip)
                if dst is None:
                    dst = ids[dst_text] = intern(dst_ip)
                src_ids(src)
                dst_ids(dst)
                src_ports(sport)
                dst_ports(dport)
                protocol_codes(protocol)
                firsts(first)
                lasts(last)
                packet_counts(packets)
                byte_counts(size)
        self.rows = len(batch)
        seen = self.rows + self.errors
        if seen and self.errors / seen > MAX_ERROR_RATIO:
            raise FlowFileError(
                f"{self.path}: {self.errors} of {seen} lines malformed, "
                f"above the {MAX_ERROR_RATIO:.0%} limit"
            )
        return batch


def read_flow_file(path: str | Path, strict: bool = False) -> FlowFileReader:
    """A reader over the flow file; `read()` returns its FlowBatch."""
    return FlowFileReader(path, strict=strict)


def format_flow(flow: FlowRecord) -> str:
    return ",".join(
        (
            str(flow.first_seen_us),
            str(flow.last_seen_us),
            format_ip(flow.src),
            format_ip(flow.dst),
            str(flow.src_port),
            str(flow.dst_port),
            format_protocol(flow.protocol),
            str(flow.packet_count),
            str(flow.byte_count),
        )
    )


def write_flow_file(path: str | Path, flows: Iterable[FlowRecord]) -> int:
    """Write flows in canonical form. Returns the number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(FLOW_HEADER + "\n")
        for flow in flows:
            fh.write(format_flow(flow) + "\n")
            count += 1
    return count


@dataclass(frozen=True, slots=True)
class PacketSummary:
    """The per-packet fields needed for flow aggregation.

    Ports are 0 for protocols that have none.
    """

    timestamp_us: int
    src: IpAddress
    dst: IpAddress
    src_port: int
    dst_port: int
    protocol: int
    length: int


def aggregate_packets(
    packets: Iterable[PacketSummary],
    idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
    reorder_tolerance_s: float = 0.0,
    strict: bool = False,
) -> Iterator[FlowRecord]:
    """Group packets into unidirectional flows split on idle gaps.

    A gap of `idle_timeout_s` or more between consecutive packets of the
    same 5-tuple starts a new flow. Packets arriving more than
    `reorder_tolerance_s` behind the newest timestamp raise in strict
    mode and are aggregated anyway otherwise. Flows are yielded when
    their successor opens, then any still-active flows in the order the
    5-tuples first appeared.
    """
    timeout_us = round(idle_timeout_s * US_PER_SECOND)
    tolerance_us = round(reorder_tolerance_s * US_PER_SECOND)
    # key -> [first_us, last_us, packets, bytes]
    active: dict[tuple, list[int]] = {}
    newest = None
    for pkt in packets:
        if newest is not None and pkt.timestamp_us < newest - tolerance_us:
            if strict:
                raise ValueError(
                    f"packet at {pkt.timestamp_us} is {newest - pkt.timestamp_us}us "
                    "behind the newest timestamp"
                )
        if newest is None or pkt.timestamp_us > newest:
            newest = pkt.timestamp_us
        key = (pkt.src, pkt.dst, pkt.src_port, pkt.dst_port, pkt.protocol)
        state = active.get(key)
        if state is not None and pkt.timestamp_us - state[1] >= timeout_us:
            yield _close(key, state)
            state = None
        if state is None:
            active[key] = [pkt.timestamp_us, pkt.timestamp_us, 1, pkt.length]
        else:
            if pkt.timestamp_us < state[0]:
                state[0] = pkt.timestamp_us
            if pkt.timestamp_us > state[1]:
                state[1] = pkt.timestamp_us
            state[2] += 1
            state[3] += pkt.length
    for key, state in active.items():
        yield _close(key, state)


def _close(key: tuple, state: list[int]) -> FlowRecord:
    src, dst, src_port, dst_port, protocol = key
    return FlowRecord(
        src=src,
        dst=dst,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        first_seen_us=state[0],
        last_seen_us=state[1],
        packet_count=state[2],
        byte_count=state[3],
    )


class Category(Enum):
    ANOMALOUS = "anomalous"
    SUSPICIOUS = "suspicious"
    NOTICE = "notice"
    BENIGN = "benign"


class SourceFile(Enum):
    """Which of the two ground truth files an entry came from."""

    ANOMALOUS = "anomalous"
    NOTICE = "notice"


@dataclass(frozen=True)
class GroundTruthEntry:
    category: Category
    taxonomy_label: str
    src_ips: frozenset[IpAddress]
    dst_ips: frozenset[IpAddress]
    source_file: SourceFile
    src_ports: frozenset[int] = frozenset()
    dst_ports: frozenset[int] = frozenset()

    def ip_set(self) -> frozenset[IpAddress]:
        return self.src_ips | self.dst_ips


@dataclass
class GroundTruthSet:
    entries: list[GroundTruthEntry] = field(default_factory=list)

    def ip_set(
        self,
        sources: Optional[Sequence[SourceFile]] = None,
        categories: Optional[Sequence[Category]] = None,
    ) -> set[IpAddress]:
        """Union of IPs across entries, optionally restricted by origin."""
        out: set[IpAddress] = set()
        for entry in self.entries:
            if sources is not None and entry.source_file not in sources:
                continue
            if categories is not None and entry.category not in categories:
                continue
            out |= entry.ip_set()
        return out


_CATEGORIES = {c.value: c for c in Category}


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_ground_truth(
    path: str | Path, source_file: SourceFile, strict: bool = False
) -> list[GroundTruthEntry]:
    """Parse one admd-style XML file into ground truth entries.

    Any element whose `type` attribute names a known category is an
    anomaly entry; its descendants are searched for src_ip/dst_ip (and
    port) attributes. Unknown attributes are ignored. An element tagged
    `anomaly` with an unrecognized category is rejected with a warning,
    or aborts the parse in strict mode.
    """
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise GroundTruthError(f"{path}: not parseable as XML: {exc}") from exc
    entries: list[GroundTruthEntry] = []
    for elem in root.iter():
        type_attr = elem.get("type")
        if type_attr is None:
            continue
        category = _CATEGORIES.get(type_attr.lower())
        if category is None:
            if _local_name(elem.tag).lower() == "anomaly":
                if strict:
                    raise GroundTruthError(
                        f"{path}: unknown anomaly category {type_attr!r}"
                    )
                logger.warning("%s: skipping anomaly with category %r", path, type_attr)
            continue
        entry = _read_entry(elem, category, source_file)
        if not entry.ip_set():
            if strict:
                raise GroundTruthError(f"{path}: anomaly entry without any IP address")
            logger.warning("%s: skipping anomaly entry without any IP address", path)
            continue
        entries.append(entry)
    return entries


def _read_entry(
    elem: ET.Element, category: Category, source_file: SourceFile
) -> GroundTruthEntry:
    src_ips: set[IpAddress] = set()
    dst_ips: set[IpAddress] = set()
    src_ports: set[int] = set()
    dst_ports: set[int] = set()
    for node in elem.iter():
        _collect_ip(node.get("src_ip"), src_ips)
        _collect_ip(node.get("dst_ip"), dst_ips)
        _collect_port(node.get("src_port"), src_ports)
        _collect_port(node.get("dst_port"), dst_ports)
    return GroundTruthEntry(
        category=category,
        taxonomy_label=elem.get("value", ""),
        src_ips=frozenset(src_ips),
        dst_ips=frozenset(dst_ips),
        source_file=source_file,
        src_ports=frozenset(src_ports),
        dst_ports=frozenset(dst_ports),
    )


def _collect_ip(text: Optional[str], into: set[IpAddress]) -> None:
    if not text:
        return
    try:
        into.add(parse_ip(text))
    except ValueError:
        logger.warning("ignoring unparseable address %r", text)


def _collect_port(text: Optional[str], into: set[int]) -> None:
    if not text:
        return
    try:
        port = int(text)
    except ValueError:
        return
    if 0 <= port <= 65535:
        into.add(port)


def read_ground_truth(
    anomalous_path: str | Path,
    notice_path: Optional[str | Path] = None,
    strict: bool = False,
) -> GroundTruthSet:
    entries = parse_ground_truth(anomalous_path, SourceFile.ANOMALOUS, strict=strict)
    if notice_path is not None:
        entries += parse_ground_truth(notice_path, SourceFile.NOTICE, strict=strict)
    return GroundTruthSet(entries)
