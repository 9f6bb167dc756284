from __future__ import annotations

import random
import tracemalloc

import pytest

from flowscan.core import SliceConfig, as_batch
from flowscan.rules import (
    RuleConfig,
    ScanLabel,
    classify,
    classify_all,
    reintegrate,
    subnet_key,
)

from helpers import ip, mk_flow, random_flows
from oracles import brute_force_labels

S = 1_000_000
SLICES = SliceConfig(trace_start_us=0, slice_seconds=30.0)
RULES = RuleConfig()


def test_twenty_hosts_one_subnet_is_netscan() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 1}", dport=5000, first=i)
        for i in range(20)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    assert result.labels == {ScanLabel.NETSCAN}
    assert result.netscan_hosts == 20


def test_nineteen_hosts_is_not_netscan() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 1}", dport=5000, first=i)
        for i in range(19)
    ]
    # repeat flows toward the same hosts: flow count passes 20 but
    # distinct destinations stay at 19
    flows += flows
    assert classify(ip(attacker), flows, RULES, SLICES).labels == set()


def test_netscan_counts_per_subnet_not_globally() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.{i}.1", dport=5000, first=i) for i in range(25)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    assert ScanLabel.NETSCAN not in result.labels
    assert result.netscan_hosts == 1


def test_exactly_ten_ports_is_not_portscan() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst="10.0.5.9", dport=3000 + i, first=i)
        for i in range(10)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    assert result.labels == set()
    assert result.portscan_ports == 10


def test_eleven_ports_is_portscan() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst="10.0.5.9", dport=3000 + i, first=i)
        for i in range(11)
    ]
    assert classify(ip(attacker), flows, RULES, SLICES).labels == {ScanLabel.PORTSCAN}


def test_port_repeats_do_not_inflate_the_count() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst="10.0.5.9", dport=3000 + (i % 5), first=i)
        for i in range(40)
    ]
    assert classify(ip(attacker), flows, RULES, SLICES).labels == set()


def test_combined_rule_within_one_slice() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 1}", dport=22, first=i)
        for i in range(25)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    assert result.labels == {ScanLabel.NETSCAN, ScanLabel.NETSCAN_AND_PORTSCAN}
    assert result.combined_hosts == 25


def test_combined_rule_needs_known_ports() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 1}", dport=2000, first=i)
        for i in range(25)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    assert ScanLabel.NETSCAN_AND_PORTSCAN not in result.labels
    assert ScanLabel.NETSCAN in result.labels


def test_combined_rule_does_not_span_slices() -> None:
    attacker = "203.0.113.1"
    flows = [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 1}", dport=22, first=i)
        for i in range(10)
    ]
    flows += [
        mk_flow(src=attacker, dst=f"10.0.5.{i + 11}", dport=22, first=31 * S + i)
        for i in range(10)
    ]
    result = classify(ip(attacker), flows, RULES, SLICES)
    # 20 distinct known-port destinations overall, but never 20 in one slice
    assert ScanLabel.NETSCAN_AND_PORTSCAN not in result.labels
    assert ScanLabel.NETSCAN in result.labels
    assert result.combined_hosts == 10


def test_flow_before_trace_start_raises_for_the_whole_batch() -> None:
    # The pre-start flow is not the classified IP's, nor on a known port:
    # the rule is the batch's, as in count_flows and run_streaming.
    attacker = "203.0.113.1"
    flows = [mk_flow(src=attacker, dst="10.0.5.1", dport=22, first=5 * S)]
    flows.append(mk_flow(src="10.0.0.9", dst="10.0.5.2", dport=5000, first=-1))
    with pytest.raises(ValueError, match="first_seen -1 precedes trace start 0"):
        classify_all([ip(attacker)], flows, RULES, SLICES)
    assert classify(ip(attacker), flows[:1], RULES, SLICES).combined_hosts == 1


def test_ip_without_outbound_flows_gets_no_labels() -> None:
    flows = [mk_flow(src="10.0.0.1", dst="203.0.113.1")]
    assert classify(ip("203.0.113.1"), flows, RULES, SLICES).labels == set()


def test_subnet_key_families() -> None:
    assert subnet_key(ip("10.0.5.7"), 24) == subnet_key(ip("10.0.5.200"), 24)
    assert subnet_key(ip("10.0.5.7"), 24) != subnet_key(ip("10.0.6.7"), 24)
    # prefix is clamped to the family width
    assert subnet_key(ip("10.0.5.7"), 64) == (4, int(ip("10.0.5.7")))
    assert subnet_key(ip("2001:db8::1"), 24) == subnet_key(ip("2001:db8::2"), 24)


def test_rule_config_validation() -> None:
    with pytest.raises(ValueError):
        RuleConfig(netscan_min_hosts=0)
    with pytest.raises(ValueError):
        RuleConfig(subnet_prefix=129)


def test_reintegrate_empty() -> None:
    assert reintegrate(set(), {}) == set()


def test_reintegrate_keeps_only_rule_confirmed() -> None:
    a, b = ip("203.0.113.1"), ip("203.0.113.2")
    flows = [
        mk_flow(src=str(a), dst=f"10.0.5.{i + 1}", dport=5000, first=i)
        for i in range(20)
    ]
    flows += [mk_flow(src=str(b), dst="10.0.5.1", dport=80, first=5)]
    classifications = classify_all({a, b}, flows, RULES, SLICES)
    assert reintegrate({a, b}, classifications) == {a}


def test_five_flows_to_five_subnets_confirms_nothing() -> None:
    fp = ip("203.0.113.1")
    flows = [
        mk_flow(src=str(fp), dst=f"10.{i}.0.1", dport=80, first=i) for i in range(5)
    ]
    classifications = classify_all({fp}, flows, RULES, SLICES)
    assert reintegrate({fp}, classifications) == set()


def test_adding_flows_never_removes_labels(rng: random.Random) -> None:
    attacker = ip("203.0.113.1")
    for _ in range(15):
        base = [
            mk_flow(
                src=str(attacker),
                dst=f"10.0.{rng.randrange(3)}.{rng.randrange(1, 40)}",
                dport=rng.choice((22, 80, 2000, 3000 + rng.randrange(20))),
                first=rng.randrange(3 * 30 * S),
            )
            for _ in range(rng.randrange(10, 120))
        ]
        extra = [
            mk_flow(
                src=str(attacker),
                dst=f"10.0.{rng.randrange(3)}.{rng.randrange(1, 40)}",
                dport=rng.randrange(1, 65536),
                first=rng.randrange(3 * 30 * S),
            )
            for _ in range(rng.randrange(0, 60))
        ]
        before = classify(attacker, base, RULES, SLICES).labels
        after = classify(attacker, base + extra, RULES, SLICES).labels
        assert before <= after


def test_disabling_one_rule_leaves_others_alone(rng: random.Random) -> None:
    attacker = ip("203.0.113.1")
    flows = [
        mk_flow(src=str(attacker), dst=f"10.0.5.{i + 1}", dport=22, first=i)
        for i in range(25)
    ]
    flows += [
        mk_flow(src=str(attacker), dst="10.0.5.1", dport=3000 + i, first=i)
        for i in range(15)
    ]
    full = classify(attacker, flows, RULES, SLICES).labels
    assert full == {
        ScanLabel.NETSCAN,
        ScanLabel.PORTSCAN,
        ScanLabel.NETSCAN_AND_PORTSCAN,
    }
    huge = 10**9
    no_netscan = classify(
        attacker, flows, RuleConfig(netscan_min_hosts=huge), SLICES
    ).labels
    assert no_netscan == full - {ScanLabel.NETSCAN}
    no_portscan = classify(
        attacker, flows, RuleConfig(portscan_min_ports=huge), SLICES
    ).labels
    assert no_portscan == full - {ScanLabel.PORTSCAN}
    no_combined = classify(
        attacker, flows, RuleConfig(combined_min_hosts=huge), SLICES
    ).labels
    assert no_combined == full - {ScanLabel.NETSCAN_AND_PORTSCAN}


def test_classify_matches_brute_force(rng: random.Random) -> None:
    for _ in range(10):
        flows = random_flows(
            rng, rng.randrange(50, 1000), host_count=40, scanners=rng.randrange(3)
        )
        ips = {f.src for f in flows}
        classifications = classify_all(ips, flows, RULES, SLICES)
        for candidate in ips:
            expected = brute_force_labels(candidate, flows, 0, 30 * S)
            got = {label.value for label in classifications[candidate].labels}
            assert got == expected, str(candidate)


def test_classify_all_matches_individual_classify(rng: random.Random) -> None:
    flows = random_flows(rng, 400, host_count=15, scanners=1)
    ips = {f.src for f in flows} | {ip("192.0.2.200")}
    grouped = classify_all(ips, flows, RULES, SLICES)
    for candidate in ips:
        assert grouped[candidate] == classify(candidate, flows, RULES, SLICES)


def test_classify_all_holds_few_bytes_per_candidate_row() -> None:
    """Each candidate's outbound row numbers are kept in 4-byte slots, not
    as int objects: most rows here are one sender's, numbered far past
    Python's cached small ints."""
    scanner = "203.0.113.1"
    flows = [mk_flow(src=f"10.0.{i % 50}.1", dst="10.0.0.2", first=i) for i in range(4_000)]
    flows += [mk_flow(src=scanner, dst="10.0.5.1", first=i) for i in range(24_000)]
    batch = as_batch(flows)
    del flows
    tracemalloc.start()
    try:
        classify_all([ip(scanner)], batch, RULES, SLICES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 24_000 < 16
