"""Heuristic classification of flagged IPs into scan types.

Three rules, each judged on the IP's outbound flows only:

* net scan: enough distinct destination hosts inside one subnet,
  anywhere in the trace
* port scan: one destination host probed on more than a cutoff number
  of distinct ports
* combined scan: enough distinct destination hosts contacted on
  well-known ports within a single time slice

A destination is counted once per rule evaluation regardless of how
many flows touch it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from typing import Iterable, Mapping, Sequence

from .core import FlowBatch, FlowRecord, IpAddress, SliceConfig, as_batch, slice_at


class ScanLabel(Enum):
    NETSCAN = "netscan"
    PORTSCAN = "portscan"
    NETSCAN_AND_PORTSCAN = "netscan_and_portscan"


@dataclass(frozen=True)
class RuleConfig:
    netscan_min_hosts: int = 20
    portscan_min_ports: int = 10
    combined_min_hosts: int = 20
    subnet_prefix: int = 24
    known_ports: frozenset[int] = frozenset(range(0, 1024))

    def __post_init__(self) -> None:
        for name in ("netscan_min_hosts", "portscan_min_ports", "combined_min_hosts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.subnet_prefix <= 128:
            raise ValueError(f"subnet_prefix out of range: {self.subnet_prefix}")


def subnet_key(ip: IpAddress, prefix: int) -> tuple[int, int]:
    """Subnet identity of an address under the given prefix length,
    clamped to the family's width."""
    bits = 32 if ip.version == 4 else 128
    return (ip.version, int(ip) >> (bits - min(prefix, bits)))


@dataclass(frozen=True)
class Classification:
    ip: IpAddress
    labels: frozenset[ScanLabel]
    # strongest observation per rule: hosts in the densest subnet,
    # ports on the most-probed host, known-port hosts in the busiest slice
    netscan_hosts: int = 0
    portscan_ports: int = 0
    combined_hosts: int = 0


def classify(
    ip: IpAddress,
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: RuleConfig,
    slices: SliceConfig,
) -> Classification:
    """Apply all three rules to the flows generated by `ip`."""
    return classify_all((ip,), flows, cfg, slices)[ip]


def _classify_rows(
    ip: IpAddress,
    batch: FlowBatch,
    rows: Sequence[int],
    cfg: RuleConfig,
    slices: SliceConfig,
) -> Classification:
    """Apply all three rules to the given rows of the batch, which are
    the flows generated by `ip`. Destinations are told apart by id."""
    by_dst_ports: dict[int, set[int]] = {}
    by_slice_known: dict[int, set[int]] = {}
    known = cfg.known_ports
    ips, dsts, ports, first_seen = batch.ips, batch.dst, batch.dst_port, batch.first_seen_us
    start, duration = slices.trace_start_us, slices.duration_us
    for row in rows:
        dst = dsts[row]
        port = ports[row]
        by_dst_ports.setdefault(dst, set()).add(port)
        if port in known:
            by_slice_known.setdefault((first_seen[row] - start) // duration, set()).add(dst)

    # Each distinct destination counts once in its subnet.
    subnets = Counter(subnet_key(ips[dst], cfg.subnet_prefix) for dst in by_dst_ports)
    netscan_hosts = max(subnets.values(), default=0)
    portscan_ports = max(map(len, by_dst_ports.values()), default=0)
    combined_hosts = max(map(len, by_slice_known.values()), default=0)

    labels = set()
    if netscan_hosts >= cfg.netscan_min_hosts:
        labels.add(ScanLabel.NETSCAN)
    if portscan_ports > cfg.portscan_min_ports:
        labels.add(ScanLabel.PORTSCAN)
    if combined_hosts >= cfg.combined_min_hosts:
        labels.add(ScanLabel.NETSCAN_AND_PORTSCAN)
    return Classification(
        ip=ip,
        labels=frozenset(labels),
        netscan_hosts=netscan_hosts,
        portscan_ports=portscan_ports,
        combined_hosts=combined_hosts,
    )


def classify_all(
    ips: Iterable[IpAddress],
    flows: Iterable[FlowRecord] | FlowBatch,
    cfg: RuleConfig,
    slices: SliceConfig,
) -> dict[IpAddress, Classification]:
    """Classify several IPs in one pass over the flows' source column.
    Raises ConfigError if any flow starts before the trace start."""
    batch = as_batch(flows)
    slice_at(batch.earliest_us, slices)  # passes the inf of an empty batch
    ids = {ip: batch.id_of(ip) for ip in ips}
    # source id -> the rows it generated, 4 bytes a row rather than a list
    # entry and an int object; an IP no row holds has no id
    outbound = {i: array("I") for i in ids.values() if i is not None}
    srcs = batch.src
    for row in compress(count(), map(outbound.__contains__, srcs)):
        outbound[srcs[row]].append(row)
    return {
        ip: _classify_rows(ip, batch, outbound.get(ip_id, ()), cfg, slices)
        for ip, ip_id in ids.items()
    }


def reintegrate(
    false_positives: Iterable[IpAddress],
    classifications: Mapping[IpAddress, Classification],
) -> set[IpAddress]:
    """False positives confirmed by at least one rule; these move back
    into the true positive set during evaluation."""
    return {
        ip for ip in false_positives if (cls := classifications.get(ip)) and cls.labels
    }
