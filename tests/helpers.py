"""Shared fixture builders for the test suite."""

from __future__ import annotations

import ipaddress
import os
import random
from typing import Optional

import pytest

from flowscan.core import FlowRecord, IpAddress


def assert_no_child() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def ip(text: str) -> IpAddress:
    return ipaddress.ip_address(text)


def mk_flow(
    src: str = "10.0.0.1",
    dst: str = "10.0.0.2",
    first: int = 0,
    last: Optional[int] = None,
    sport: int = 40000,
    dport: int = 80,
    proto: int = 6,
    packets: int = 1,
    size: int = 100,
) -> FlowRecord:
    return FlowRecord(
        src=ip(src),
        dst=ip(dst),
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        first_seen_us=first,
        last_seen_us=first if last is None else last,
        packet_count=packets,
        byte_count=size,
    )


def random_flows(
    rng: random.Random,
    n: int,
    host_count: int = 30,
    slice_count: int = 5,
    slice_us: int = 30_000_000,
    start_us: int = 0,
    scanners: int = 0,
) -> list[FlowRecord]:
    """Uniform random traffic plus optional single-slice flow bursts,
    which is what pushes some ratios past detection thresholds."""
    hosts = [ipaddress.ip_address(0x0A00_0000 + 1 + i) for i in range(host_count)]
    flows = []
    span = slice_count * slice_us
    for _ in range(n):
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        first = start_us + rng.randrange(span)
        flows.append(
            FlowRecord(
                src=src,
                dst=dst,
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.choice((22, 80, 443, 8080, rng.randrange(65536))),
                protocol=6,
                first_seen_us=first,
                last_seen_us=first + rng.randrange(1_000_000),
                packet_count=1 + rng.randrange(5),
                byte_count=rng.randrange(40, 1500),
            )
        )
    for i in range(scanners):
        attacker = ipaddress.ip_address(0xC633_6400 + 1 + i)
        target_slice = rng.randrange(slice_count)
        burst_start = start_us + target_slice * slice_us
        for j in range(rng.randrange(150, 400)):
            first = burst_start + rng.randrange(slice_us)
            flows.append(
                FlowRecord(
                    src=attacker,
                    dst=rng.choice(hosts),
                    src_port=rng.randrange(1024, 65536),
                    dst_port=rng.randrange(1, 1024),
                    protocol=6,
                    first_seen_us=first,
                    last_seen_us=first + rng.randrange(1_000_000),
                )
            )
    rng.shuffle(flows)
    return flows
