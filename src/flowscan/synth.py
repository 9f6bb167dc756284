"""Synthetic traces with known ground truth, driven by an INI spec.

Background traffic is a ring: host i sends to host i+1 (mod N), the
same number of flows per slice, so every background host generates
exactly as many flows as it receives and its ratio sits at +1. Scanners
send many flows and receive none. Decoy entries add ground truth labels
(a DoS entry, say) without any matching traffic.

Given the same spec and seed the outputs are byte-identical.

Each spec class checks its own values when it is built and raises
ValueError naming the field; load_spec puts the section in front of
that name.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import checked, parse_boolean, read_ini, section_values
from .core import (
    DEFAULT_SLICE_SECONDS, INT64_MAX, INT64_MIN, PROTO_TCP, US_PER_SECOND, ConfigError,
    FlowBatch, IpAddress, SliceConfig, ip_sort_key, parse_ip,
)
from .ingest import (
    Category,
    GroundTruthEntry,
    GroundTruthSet,
    SourceFile,
    write_flow_file,
)

KIND_NETSCAN = "netscan"
KIND_PORTSCAN = "portscan"

_DEFAULT_LABELS = {KIND_NETSCAN: "ntscSYN", KIND_PORTSCAN: "ptscSYN"}


def _require_positive(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class TraceSpec:
    start_us: int = 0
    slice_seconds: float = DEFAULT_SLICE_SECONDS
    slices: int = 10

    def __post_init__(self) -> None:
        _require_positive(self.slices, "slices")
        duration_us = SliceConfig(0, self.slice_seconds).duration_us
        # a flow may last up to 1 s past the end of the last slice
        end_us = self.start_us + self.slices * duration_us + US_PER_SECOND
        if self.start_us < INT64_MIN or end_us > INT64_MAX:
            raise ValueError(
                f"start_us {self.start_us} + {self.slices} slices of slice_seconds "
                f"{self.slice_seconds} runs past the signed 64-bit microsecond range"
            )


@dataclass(frozen=True)
class BackgroundSpec:
    hosts: int = 100
    flows_per_host_per_slice: int = 2
    subnet: ipaddress.IPv4Network | ipaddress.IPv6Network = ipaddress.ip_network(
        "10.0.0.0/16"
    )

    def __post_init__(self) -> None:
        _require_positive(self.hosts, "hosts")
        if self.hosts > self.subnet.num_addresses - 2:
            raise ValueError(f"hosts {self.hosts} does not fit in {self.subnet}")
        _require_positive(self.flows_per_host_per_slice, "flows_per_host_per_slice")


@dataclass(frozen=True)
class ScannerSpec:
    name: str
    ip: Optional[IpAddress] = None
    kind: str = KIND_NETSCAN
    flows_per_slice: int = 120
    target_subnet: Optional[ipaddress.IPv4Network | ipaddress.IPv6Network] = None
    target: Optional[IpAddress] = None
    port: int = 80
    port_start: int = 1
    labeled: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NETSCAN, KIND_PORTSCAN):
            raise ValueError(f"kind must be netscan or portscan, got {self.kind!r}")
        for key in ("ip", "target_subnet" if self.kind == KIND_NETSCAN else "target"):
            if getattr(self, key) is None:
                raise ValueError(f"{key} is required")
        _require_positive(self.flows_per_slice, "flows_per_slice")
        if self.kind == KIND_NETSCAN and self.target_subnet.num_addresses < 4:
            raise ValueError("target_subnet too small")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {self.port}")

    def taxonomy_label(self) -> str:
        return self.label or _DEFAULT_LABELS[self.kind]


@dataclass(frozen=True)
class DecoySpec:
    name: str
    label: str = "dosAttack"
    src_ip: Optional[IpAddress] = None
    dst_ip: Optional[IpAddress] = None
    category: Category = Category.ANOMALOUS
    file: SourceFile = SourceFile.ANOMALOUS

    def __post_init__(self) -> None:
        if self.src_ip is None and self.dst_ip is None:
            raise ValueError("src_ip or dst_ip is required")


@dataclass(frozen=True)
class SynthSpec:
    trace: TraceSpec = TraceSpec()
    background: Optional[BackgroundSpec] = None
    scanners: tuple[ScannerSpec, ...] = ()
    decoys: tuple[DecoySpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[IpAddress] = set()
        for scanner in self.scanners:
            if scanner.ip in seen:
                raise ValueError(f"duplicate scanner ip {scanner.ip}")
            if self.background is not None and scanner.ip in self.background.subnet:
                raise ValueError(
                    f"scanner ip {scanner.ip} collides with background subnet "
                    f"{self.background.subnet}"
                )
            seen.add(scanner.ip)


# section head -> (SynthSpec field, spec class, key -> parser of the value
# text). A head ending in `:` takes a name after it, which becomes the
# spec's name, and may repeat. Each key names a field of the spec class;
# the class default stands for a key left out.
_SPEC_SECTIONS = {
    "trace": (
        "trace",
        TraceSpec,
        {"start_us": int, "slice_seconds": float, "slices": int},
    ),
    "background": (
        "background",
        BackgroundSpec,
        {"hosts": int, "flows_per_host_per_slice": int, "subnet": ipaddress.ip_network},
    ),
    "scanner:": (
        "scanners",
        ScannerSpec,
        {
            "kind": str,
            "ip": parse_ip,
            "flows_per_slice": int,
            "target_subnet": ipaddress.ip_network,
            "target": parse_ip,
            "port": int,
            "port_start": int,
            "labeled": parse_boolean,
            "label": str,
        },
    ),
    "decoy:": (
        "decoys",
        DecoySpec,
        {
            "label": str,
            "src_ip": parse_ip,
            "dst_ip": parse_ip,
            "category": Category,
            "file": SourceFile,
        },
    ),
}


def load_spec(path: str | Path) -> SynthSpec:
    """The spec in the INI file at `path`. Raises ConfigError naming the
    first bad section, key or value in file order."""
    parser = read_ini(path)
    found: dict = {}
    for section in parser.sections():
        head, colon, name = section.partition(":")
        if head + colon not in _SPEC_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        field, cls, parsers = _SPEC_SECTIONS[head + colon]
        values = section_values(parser, section, parsers, what="spec")
        if colon:
            spec = checked(f"{section}.", cls, name=name, **values)
            found[field] = found.get(field, ()) + (spec,)
        else:
            found[field] = checked(f"{section}.", cls, **values)
    return checked("", SynthSpec, **found)


def _slice_plan(spec: SynthSpec) -> tuple[list[IpAddress], list[tuple[int, int, int]]]:
    """The addresses of the trace in ip_sort_key order, and the (src, dst,
    dst_port) of each flow of a slice in draw order, every slice alike.
    An address is named by its position in that order, so comparing two
    names compares the addresses."""
    found: dict[tuple[int, int], IpAddress] = {}
    plan: list[tuple[tuple[int, int], tuple[int, int], int]] = []

    def name(ip: IpAddress) -> tuple[int, int]:
        key = ip_sort_key(ip)
        found[key] = ip
        return key

    if spec.background:
        base = spec.background.subnet.network_address
        hosts = [name(base + (1 + i)) for i in range(spec.background.hosts)]
        per_host = spec.background.flows_per_host_per_slice
        for i, src in enumerate(hosts):
            plan += [(src, hosts[(i + 1) % len(hosts)], 80)] * per_host
    for scanner in spec.scanners:
        src = name(scanner.ip)
        count = scanner.flows_per_slice
        if scanner.kind == KIND_NETSCAN:
            base = scanner.target_subnet.network_address
            capacity = min(count, scanner.target_subnet.num_addresses - 2)
            targets = [name(base + (1 + j)) for j in range(capacity)]
            plan += [(src, targets[j % capacity], scanner.port) for j in range(count)]
        else:
            dst = name(scanner.target)
            start = scanner.port_start - 1
            plan += [(src, dst, (start + j) % 65535 + 1) for j in range(count)]
    keys = sorted(found)
    rank = {key: i for i, key in enumerate(keys)}
    return [found[k] for k in keys], [(rank[s], rank[d], port) for s, d, port in plan]


def generate(spec: SynthSpec, seed: int = 0) -> tuple[FlowBatch, GroundTruthSet]:
    """The trace as a FlowBatch, and its ground truth. Flows are sorted by
    start time so the file reads back as an in-order stream; ties go by
    source, destination, source port, destination port, then draw order.
    Addresses are interned in the order rows first name them."""
    randrange = random.Random(seed).randrange
    duration_us = SliceConfig(spec.trace.start_us, spec.trace.slice_seconds).duration_us
    addresses, plan = _slice_plan(spec)
    batch = FlowBatch()
    # rank -> id. Every address of the trace is named in every slice, so
    # the first slice interns them all.
    ids: dict[int, int] = {}
    for slice_index in range(spec.trace.slices if plan else 0):
        slice_start = spec.trace.start_us + slice_index * duration_us
        # A row's fields are drawn left to right: start, source port, end,
        # packets, bytes. Slices do not overlap in time, so sorting each
        # one on its own gives the order of the whole trace.
        rows = sorted(
            (first := slice_start + randrange(duration_us), src, dst,
             randrange(1024, 65536), dst_port, seq, first + randrange(US_PER_SECOND),
             1 + randrange(4), 40 + randrange(1460))
            for seq, (src, dst, dst_port) in enumerate(plan)
        )
        first, src, dst, src_port, dst_port, _, last, packets, size = zip(*rows)
        protocol = (PROTO_TCP,) * len(rows)
        columns = first, last, src, dst, src_port, dst_port, protocol, packets, size
        batch.extend(columns, ids, addresses.__getitem__)
    return batch, _ground_truth(spec)


def _ground_truth(spec: SynthSpec) -> GroundTruthSet:
    entries = [
        GroundTruthEntry(
            category=Category.ANOMALOUS,
            taxonomy_label=scanner.taxonomy_label(),
            src_ips=frozenset({scanner.ip}),
            dst_ips=frozenset(),
            source_file=SourceFile.ANOMALOUS,
        )
        for scanner in spec.scanners
        if scanner.labeled
    ]
    for decoy in spec.decoys:
        entries.append(
            GroundTruthEntry(
                category=decoy.category,
                taxonomy_label=decoy.label,
                src_ips=frozenset({decoy.src_ip} if decoy.src_ip else set()),
                dst_ips=frozenset({decoy.dst_ip} if decoy.dst_ip else set()),
                source_file=decoy.file,
            )
        )
    return GroundTruthSet(entries)


# What xml.sax.saxutils.quoteattr escapes; its import loads urllib.request
# and email, which synth does not need.
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
)


def quoteattr(text: str) -> str:
    """`xml.sax.saxutils.quoteattr(text)`: the escaped text in single
    quotes if it holds `"` but not `'`, else in double quotes with each
    `"` as `&quot;` (in single quotes the replace finds nothing)."""
    text = text.translate(_ATTR_ESCAPES)
    quote = "'" if '"' in text and "'" not in text else '"'
    return quote + text.replace(quote, "&quot;") + quote


def render_ground_truth_xml(
    gt: GroundTruthSet,
    source_file: SourceFile,
    manifest_name: Optional[str] = None,
) -> str:
    """The entries destined for one XML file, in entry order."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if manifest_name:
        lines.append(f"<!-- manifest={manifest_name} -->")
    lines.append("<data>")
    for entry in gt.entries:
        if entry.source_file is not source_file:
            continue
        lines.append(
            f"  <anomaly type={quoteattr(entry.category.value)} "
            f"value={quoteattr(entry.taxonomy_label)}>"
        )
        for side, ips in (("src_ip", entry.src_ips), ("dst_ip", entry.dst_ips)):
            for ip in sorted(ips, key=ip_sort_key):
                lines.append(f"    <filter {side}={quoteattr(str(ip))}/>")
        lines.append("  </anomaly>")
    lines.append("</data>")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SynthOutputs:
    flow_path: Path
    anomalous_path: Path
    notice_path: Path
    flow_count: int


def write_outputs(
    spec: SynthSpec,
    seed: int,
    out_base: str | Path,
    manifest_name: Optional[str] = None,
) -> SynthOutputs:
    """Write `<base>.flows.csv`, `<base>.anomalous.xml`, `<base>.notice.xml`.

    The XML files carry the manifest reference as a comment when given;
    the flow file cannot, its header line is fixed by contract.
    """
    base = Path(out_base)
    flows, gt = generate(spec, seed)
    flow_path = base.with_name(base.name + ".flows.csv")
    anomalous_path = base.with_name(base.name + ".anomalous.xml")
    notice_path = base.with_name(base.name + ".notice.xml")
    count = write_flow_file(flow_path, flows)
    anomalous_path.write_text(
        render_ground_truth_xml(gt, SourceFile.ANOMALOUS, manifest_name),
        encoding="utf-8",
    )
    notice_path.write_text(
        render_ground_truth_xml(gt, SourceFile.NOTICE, manifest_name),
        encoding="utf-8",
    )
    return SynthOutputs(
        flow_path=flow_path,
        anomalous_path=anomalous_path,
        notice_path=notice_path,
        flow_count=count,
    )
