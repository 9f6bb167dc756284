"""Input handling: flow files and ground truth XML."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TextIO

from .core import (
    FlowBatch,
    FlowRecord,
    IpAddress,
    as_batch,
    check_flow_fields,
    format_ip,
    format_protocol,
    parse_ip,
    parse_protocol,
)

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

logger = logging.getLogger(__name__)

FLOW_HEADER = "first_seen_us,last_seen_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes"

# A lenient read aborts anyway once this fraction of data lines is malformed.
MAX_ERROR_RATIO = 0.1

# A lenient read keeps the line numbers of this many skipped lines.
SKIPPED_LINES_KEPT = 5

# The reader reads this many characters at a time and parses each block of
# whole lines as columns, or row by row if a line is bad, so a larger block
# costs more per bad line and holds more memory.
CHUNK_BYTES = 32768


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

    def read(self, lean: bool = False) -> FlowBatch:
        """The file's accepted rows, in a lean FlowBatch if `lean` is set."""
        batch = FlowBatch(lean)
        self.errors = self.rows = 0
        self.skipped_lines = []
        # text -> id for addresses of accepted rows; text -> code for protocols
        ids: dict[str, int] = {}
        protocols: dict[str, int] = {}
        # A byte that is not UTF-8 decodes to U+FFFD, which no field accepts.
        # "\r", "\n" and "\r\n" each end a line, and are all read as "\n".
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            header = fh.readline().rstrip("\n")
            if header != FLOW_HEADER:
                raise FlowFileError(f"{self.path}: bad header {header!r}")
            lineno = 2
            for block in _blocks(fh):
                added = _append_columns(batch, block, ids, protocols)
                lineno += added or self._append_rows(batch, block, lineno, ids, protocols)
        self.rows = len(batch)
        seen = self.rows + self.errors
        if seen and self.errors / seen > MAX_ERROR_RATIO:
            raise FlowFileError(
                f"{self.path}: {self.errors} of {seen} lines malformed, "
                f"above the {MAX_ERROR_RATIO:.0%} limit"
            )
        return batch

    def _append_rows(
        self,
        batch: FlowBatch,
        block: str,
        first_lineno: int,
        ids: dict[str, int],
        protocols: dict[str, int],
    ) -> int:
        """Append the block's valid lines, numbered from `first_lineno`,
        checking one row at a time, and return how many lines it holds.
        Malformed lines are skipped or abort, by mode; the rest go to the
        batch in one extend, whose column check each has already passed."""
        rows = []
        # text -> address, for texts of this block that `ids` lacks
        parsed: dict[str, IpAddress] = {}
        lines = block.split("\n")[:-1]  # the block ends in "\n"
        for lineno, line in enumerate(lines, first_lineno):
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 9:
                    raise ValueError(f"expected 9 fields, got {len(parts)}")
                first, last, src, dst, sport, dport, proto, packets, size = parts
                for text in (src, dst):
                    if text not in ids and text not in parsed:
                        parsed[text] = parse_ip(text)
                sport, dport = int(sport), int(dport)
                protocol = protocols.get(proto)
                if protocol is None:
                    protocol = protocols[proto] = parse_protocol(proto)
                first, last, packets, size = map(int, (first, last, packets, size))
                check_flow_fields(sport, dport, protocol, first, last, packets, size)
            except ValueError as exc:
                if self.strict:
                    raise FlowFileError(f"{self.path}:{lineno}: {exc}") from exc
                self.errors += 1
                if len(self.skipped_lines) < SKIPPED_LINES_KEPT:
                    self.skipped_lines.append(lineno)
                continue
            rows.append((first, last, src, dst, sport, dport, protocol, packets, size))
        if rows:
            batch.extend(zip(*rows), ids, parsed.__getitem__)
        return len(lines)


def _blocks(fh: TextIO) -> Iterator[str]:
    """The rest of the file as blocks of whole lines, each ending in "\n";
    a last line without one is given a "\n", which changes no field."""
    pieces: list[str] = []  # the text after the last line end so far
    while block := fh.read(CHUNK_BYTES):
        cut = block.rfind("\n") + 1
        if cut:
            yield "".join([*pieces, block[:cut]])
            pieces.clear()
        pieces.append(block[cut:])
    if tail := "".join(pieces):
        yield tail + "\n"


def _append_columns(
    batch: FlowBatch, block: str, ids: dict[str, int], protocols: dict[str, int]
) -> int:
    """Append the block's lines to the batch in one extend, which parses the
    new address names, if every line is a valid row by the checks of
    FlowFileReader._append_rows, and return how many; else change nothing, return 0."""
    # One split: the last field of each line keeps its line end, which
    # int() ignores, and one empty field follows.
    lines = block.count("\n")
    fields = block.replace("\n", "\n,").split(",")
    fields.pop()
    # Nine fields a line: every line end falls in a ninth field.
    if len(fields) != 9 * lines or "".join(fields[8::9]).count("\n") != lines:
        return 0
    srcs, dsts, protocol_texts = fields[2::9], fields[3::9], fields[6::9]
    try:
        first, last, src_port, dst_port, packets, sizes = (
            list(map(int, fields[k::9])) for k in (0, 1, 4, 5, 7, 8)
        )
        for name in {*protocol_texts}.difference(protocols):
            protocols[name] = parse_protocol(name)
        protocol = list(map(protocols.__getitem__, protocol_texts))
        columns = first, last, srcs, dsts, src_port, dst_port, protocol, packets, sizes
        batch.extend(columns, ids, parse_ip)
    except ValueError:
        return 0
    return lines


def read_flow_file(path: str | Path, strict: bool = False) -> FlowFileReader:
    """A reader over the flow file; `read()` returns its FlowBatch."""
    return FlowFileReader(path, strict=strict)


def write_flow_file(path: str | Path, flows: Iterable[FlowRecord] | FlowBatch) -> int:
    """Write flows in canonical form: a FlowBatch as it is, FlowRecords
    through as_batch, with the same bytes for the same rows. Returns the
    number of rows written."""
    batch = as_batch(flows)
    ips = list(map(format_ip, batch.ips))
    protocols = list(map(format_protocol, range(256)))
    rows = zip(*batch.columns())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(FLOW_HEADER + "\n")
        fh.writelines(
            f"{first},{last},{ips[src]},{ips[dst]},{sport},{dport},"
            f"{protocols[proto]},{packets},{size}\n"
            for first, last, src, dst, sport, dport, proto, packets, size in rows
        )
    return len(batch)


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
    `anomaly` with an unrecognized category, an unparseable address and
    a port outside 0-65535 are each skipped with a warning naming the
    file, or abort the parse in strict mode.
    """
    import xml.etree.ElementTree as ET  # here, so that detect does not load it

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
        entry = _read_entry(elem, category, source_file, path, strict)
        if not entry.ip_set():
            if strict:
                raise GroundTruthError(f"{path}: anomaly entry without any IP address")
            logger.warning("%s: skipping anomaly entry without any IP address", path)
            continue
        entries.append(entry)
    return entries


def _read_entry(
    elem: ET.Element,
    category: Category,
    source_file: SourceFile,
    path: str | Path,
    strict: bool,
) -> GroundTruthEntry:
    def collect(attr: str, parse: Callable[[str], object], bad: str) -> frozenset:
        found = set()
        for text in filter(None, (node.get(attr) for node in elem.iter())):
            try:
                found.add(parse(text))
            except ValueError:
                if strict:
                    raise GroundTruthError(f"{path}: {bad.format(text)}") from None
                logger.warning("%s: ignoring %s", path, bad.format(text))
        return frozenset(found)

    return GroundTruthEntry(
        category=category,
        taxonomy_label=elem.get("value", ""),
        src_ips=collect("src_ip", parse_ip, "unparseable address {!r}"),
        dst_ips=collect("dst_ip", parse_ip, "unparseable address {!r}"),
        source_file=source_file,
        src_ports=collect("src_port", _parse_port, "port {!r} not in 0-65535"),
        dst_ports=collect("dst_port", _parse_port, "port {!r} not in 0-65535"),
    )


def _parse_port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise ValueError(text)
    return port


def read_ground_truth(
    anomalous_path: str | Path,
    notice_path: Optional[str | Path] = None,
    strict: bool = False,
) -> GroundTruthSet:
    entries = parse_ground_truth(anomalous_path, SourceFile.ANOMALOUS, strict=strict)
    if notice_path is not None:
        entries += parse_ground_truth(notice_path, SourceFile.NOTICE, strict=strict)
    return GroundTruthSet(entries)
