"""Independent reference implementations the real code is checked against.

Everything here is written naively and separately from the package
internals: plain tuples, brute force loops, no shared helpers beyond
the domain types themselves.
"""

from __future__ import annotations

import csv
import ipaddress

from flowscan.core import FlowRecord
from flowscan.detector import RatioVerdict

VerdictRow = tuple  # (slice_index, ip, direction_str, generated, received, ratio)


def naive_verdicts(
    flows: list[FlowRecord],
    trace_start_us: int,
    slice_us: int,
    threshold: float,
) -> list[VerdictRow]:
    generated: dict = {}
    received: dict = {}
    for flow in flows:
        index = (flow.first_seen_us - trace_start_us) // slice_us
        key = (flow.src, index)
        generated[key] = generated.get(key, 0) + 1
        key = (flow.dst, index)
        received[key] = received.get(key, 0) + 1
    rows = []
    for ip_addr, index in set(generated) | set(received):
        gen = generated.get((ip_addr, index), 0)
        recv = received.get((ip_addr, index), 0)
        if gen >= recv:
            ratio = gen / max(recv, 1)
        else:
            ratio = -(recv / max(gen, 1))
        if ratio > threshold:
            rows.append((index, ip_addr, "sender", gen, recv, ratio))
        elif ratio < -threshold:
            rows.append((index, ip_addr, "receiver", gen, recv, ratio))
    rows.sort(key=lambda row: (row[0], row[1].version, int(row[1])))
    return rows


def naive_stream(
    flows: list[FlowRecord],
    trace_start_us: int,
    slice_us: int,
    lag_us: int,
    threshold: float,
) -> tuple[list[tuple[int, list[VerdictRow]]], int]:
    """(slice index, verdict rows) per slice that kept a flow, ascending,
    and the number of late flows, for flows arriving in list order. A
    flow is late when its slice ends at or before the watermark: the
    newest first_seen_us so far, this flow's included, minus the lag."""
    kept: dict[int, list[FlowRecord]] = {}
    late = 0
    newest = None
    for flow in flows:
        if newest is None or flow.first_seen_us > newest:
            newest = flow.first_seen_us
        index = (flow.first_seen_us - trace_start_us) // slice_us
        if trace_start_us + (index + 1) * slice_us <= newest - lag_us:
            late += 1
        else:
            kept.setdefault(index, []).append(flow)
    emissions = [
        (index, naive_verdicts(kept[index], trace_start_us, slice_us, threshold))
        for index in sorted(kept)
    ]
    return emissions, late


def verdict_as_row(verdict: RatioVerdict) -> VerdictRow:
    return (
        verdict.key.slice_index,
        verdict.key.ip,
        verdict.direction.value,
        verdict.generated,
        verdict.received,
        verdict.ratio,
    )


def render_rows(rows: list[VerdictRow]) -> bytes:
    """Fixed textual rendering so comparisons are at the byte level."""
    lines = [
        f"{index},{ip_addr},{direction},{gen},{recv},{ratio!r}"
        for index, ip_addr, direction, gen, recv, ratio in rows
    ]
    return ("\n".join(lines) + "\n").encode()


def brute_force_labels(
    ip_addr,
    flows: list[FlowRecord],
    trace_start_us: int,
    slice_us: int,
    netscan_min: int = 20,
    portscan_min: int = 10,
    combined_min: int = 20,
    prefix: int = 24,
    known_port_max: int = 1023,
) -> set[str]:
    """Direct restatement of the three scan rules over explicit loops."""
    outbound = [f for f in flows if f.src == ip_addr]
    labels = set()

    def subnet_of(addr) -> tuple:
        # the prefix is clamped to the address family's width
        bits = 32 if addr.version == 4 else 128
        return (addr.version, int(addr) >> (bits - min(prefix, bits)))

    for subnet in {subnet_of(f.dst) for f in outbound}:
        dsts = {f.dst for f in outbound if subnet_of(f.dst) == subnet}
        if len(dsts) >= netscan_min:
            labels.add("netscan")

    for dst in {f.dst for f in outbound}:
        ports = {f.dst_port for f in outbound if f.dst == dst}
        if len(ports) > portscan_min:
            labels.add("portscan")

    slices = {(f.first_seen_us - trace_start_us) // slice_us for f in outbound}
    for index in slices:
        dsts = {
            f.dst
            for f in outbound
            if (f.first_seen_us - trace_start_us) // slice_us == index
            and f.dst_port <= known_port_max
        }
        if len(dsts) >= combined_min:
            labels.add("netscan_and_portscan")
    return labels


def reference_parse(path, error_limit: float = 0.1) -> tuple[list[FlowRecord], list[int]]:
    """(rows, line numbers of malformed lines) of a flow file, read with
    the csv module: a non-blank line is a row when its nine fields make a
    valid FlowRecord and every timestamp and count fits a signed 64-bit
    int. Raises ValueError for a bad header, or when more than
    `error_limit` of the lines are malformed."""
    header = "first_seen_us,last_seen_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes"
    rows = []
    bad_lines = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != header.split(","):
            raise ValueError("bad header")
        for fields in reader:
            if fields:
                try:
                    rows.append(_reference_row(fields))
                except ValueError:
                    bad_lines.append(reader.line_num)
    if bad_lines and len(bad_lines) / (len(rows) + len(bad_lines)) > error_limit:
        raise ValueError("too many malformed lines")
    return rows, bad_lines


def _reference_row(fields: list[str]) -> FlowRecord:
    first, last, src, dst, sport, dport, proto, packets, size = fields
    numbers = [int(first), int(last), int(packets), int(size)]
    if any(not -(2**63) <= n < 2**63 for n in numbers):
        raise ValueError("beyond int64")
    return FlowRecord(
        src=ipaddress.ip_address(src),
        dst=ipaddress.ip_address(dst),
        src_port=int(sport),
        dst_port=int(dport),
        protocol={"TCP": 6, "UDP": 17}.get(proto.upper()) or int(proto),
        first_seen_us=numbers[0],
        last_seen_us=numbers[1],
        packet_count=numbers[2],
        byte_count=numbers[3],
    )
