from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscan.core import FlowBatch, FlowRecord, SliceConfig, SliceKey, as_batch
from flowscan.detector import (
    DetectorConfig,
    Direction,
    RatioVerdict,
    anomalous_ips,
    count_flows,
    detect,
    ratio_of,
)

from helpers import ip, mk_flow, random_flows
from oracles import naive_verdicts, render_rows, verdict_as_row

S = 1_000_000
CFG = SliceConfig(trace_start_us=0, slice_seconds=30.0)


# count_flows yields (slice index, (generated, received)) pairs: per slice,
# the tables counted by source and by destination IP, keyed by id. The
# helpers take them into a dict and name each id through the batch's `ips`.


def _by_address(flows, side: int) -> dict:
    batch = as_batch(flows)
    return {
        SliceKey(batch.ips[i], index): n
        for index, tables in dict(count_flows(batch, CFG)).items()
        for i, n in tables[side].items()
    }


def _by_source(flows) -> dict:
    return _by_address(flows, 0)


def _by_destination(flows) -> dict:
    return _by_address(flows, 1)


def test_count_by_source_empty() -> None:
    assert dict(count_flows(as_batch([]), CFG)) == {}


def test_count_by_source_hand_counted() -> None:
    flows = [mk_flow(src="10.0.0.1", first=i * S) for i in range(3)]
    flows.append(mk_flow(src="10.0.0.2", first=31 * S))
    assert _by_source(flows) == {
        SliceKey(ip("10.0.0.1"), 0): 3,
        SliceKey(ip("10.0.0.2"), 1): 1,
    }


def test_count_by_source_split_across_slices() -> None:
    flows = [mk_flow(src="10.0.0.1", first=i * S) for i in range(12)]
    flows += [mk_flow(src="10.0.0.1", first=30 * S + i) for i in range(8)]
    assert _by_source(flows) == {
        SliceKey(ip("10.0.0.1"), 0): 12,
        SliceKey(ip("10.0.0.1"), 1): 8,
    }


def test_count_by_destination_single_flow() -> None:
    assert _by_destination([mk_flow(dst="10.0.0.2")]) == {
        SliceKey(ip("10.0.0.2"), 0): 1
    }


def test_count_by_destination_matches_brute_force(rng: random.Random) -> None:
    flows = random_flows(rng, 10)
    tally: dict[SliceKey, int] = {}
    for flow in flows:
        key = SliceKey(flow.dst, flow.first_seen_us // (30 * S))
        tally[key] = tally.get(key, 0) + 1
    assert _by_destination(flows) == tally


def test_count_flows_rejects_pre_start_flow() -> None:
    flows = [mk_flow(first=5 * S), mk_flow(first=-2), mk_flow(first=-1)]
    with pytest.raises(ValueError, match="first_seen -2 precedes trace start 0"):
        count_flows(as_batch(flows), CFG)


# The test_join_* tests cut a given (generated, received) pair with
# detect(batch, ..., counts=...): a key missing from one table counts zero
# there. The tables keyed by (address, slice index) are split into the
# per-slice pairs count_flows yields, keyed by the ids of a batch that
# interns each address.


def _cut(generated, received, threshold: float) -> list[RatioVerdict]:
    cfg = DetectorConfig(slices=CFG, threshold=threshold)
    batch = FlowBatch()
    counts: dict[int, tuple[Counter, Counter]] = {}
    for side, table in enumerate((generated, received)):
        for (address, index), n in table.items():
            tables = counts.setdefault(index, (Counter(), Counter()))
            tables[side][batch.intern(address)] = n
    return detect(batch, cfg, counts=counts.items())


def test_join_null_fill() -> None:
    key = SliceKey(ip("10.0.0.1"), 0)
    assert _cut({key: 5}, {}, 4) == [RatioVerdict(key, Direction.SENDER, 5, 0, 5.0)]
    assert _cut({}, {key: 7}, 4) == [
        RatioVerdict(key, Direction.RECEIVER, 0, 7, -7.0)
    ]
    # one flow on one side is ratio 1: flagged only below 1
    assert _cut({key: 1}, {}, 1) == []
    assert _cut({}, {key: 1}, 0.5) == [
        RatioVerdict(key, Direction.RECEIVER, 0, 1, -1.0)
    ]


def test_join_both_sides() -> None:
    key = SliceKey(ip("10.0.0.1"), 2)
    assert _cut({key: 4}, {key: 7}, 1) == [
        RatioVerdict(key, Direction.RECEIVER, 4, 7, -1.75)
    ]
    # both counts pass the threshold; the key is still flagged once
    assert _cut({key: 40}, {key: 4}, 3) == [
        RatioVerdict(key, Direction.SENDER, 40, 4, 10.0)
    ]
    # equal counts are ratio +1
    assert _cut({key: 6}, {key: 6}, 0.5) == [
        RatioVerdict(key, Direction.SENDER, 6, 6, 1.0)
    ]
    assert _cut({key: 6}, {key: 6}, 1) == []


def test_join_disjoint_sizes() -> None:
    gen = {SliceKey(ip(f"10.0.0.{i}"), 0): 1 for i in range(1, 4)}
    recv = {SliceKey(ip(f"10.0.1.{i}"), 0): 1 for i in range(1, 3)}
    verdicts = _cut(gen, recv, 0.5)
    assert [(v.key, v.direction) for v in verdicts] == [
        *((key, Direction.SENDER) for key in gen),
        *((key, Direction.RECEIVER) for key in recv),
    ]


_table = st.dictionaries(
    st.tuples(st.ip_addresses(v=4), st.integers(0, 5)),
    st.integers(1, 50),
    max_size=40,
)
# Thresholds on both sides of the counts the tables hold, down to where a
# single flow is flagged.
_thresholds = st.sampled_from((0.5, 1, 1.5, 2, 3, 50))


@given(_table, _table, _thresholds)
def test_join_totality_property(gen_raw, recv_raw, threshold: float) -> None:
    expected = []
    for key in gen_raw.keys() | recv_raw.keys():
        gen, recv = gen_raw.get(key, 0), recv_raw.get(key, 0)
        ratio = gen / max(recv, 1) if gen >= recv else -(recv / max(gen, 1))
        if abs(ratio) > threshold:
            direction = Direction.SENDER if ratio > 0 else Direction.RECEIVER
            expected.append(RatioVerdict(SliceKey(*key), direction, gen, recv, ratio))
    expected.sort(key=lambda v: v.key.sort_key())
    assert _cut(gen_raw, recv_raw, threshold) == expected


def test_ratio_examples() -> None:
    assert ratio_of(100, 0) == 100.0
    assert ratio_of(5, 5) == 1.0
    assert ratio_of(0, 300) == -300.0
    assert ratio_of(0, 0) == 0.0
    assert ratio_of(3, 12) == -4.0


def test_ratio_rejects_negative_counts() -> None:
    with pytest.raises(ValueError):
        ratio_of(-1, 3)


@pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
def test_detector_config_rejects_bad_threshold(threshold: float) -> None:
    with pytest.raises(ValueError, match="finite and > 0"):
        DetectorConfig(slices=CFG, threshold=threshold)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_ratio_sign_tracks_dominant_direction(gen: int, recv: int) -> None:
    ratio = ratio_of(gen, recv)
    if gen >= recv:
        assert ratio >= 0
        assert ratio == gen / max(recv, 1)
    else:
        assert ratio < 0
        assert ratio == -(recv / max(gen, 1))


def test_balanced_host_not_flagged() -> None:
    flows = [mk_flow(src="10.0.0.1", dst="10.0.0.9", first=i) for i in range(50)]
    flows += [mk_flow(src="10.0.0.9", dst="10.0.0.1", first=i) for i in range(48)]
    cfg = DetectorConfig(slices=CFG, threshold=50)
    assert detect(flows, cfg) == []


def test_scanner_flagged_as_sender() -> None:
    flows = [
        mk_flow(src="203.0.113.9", dst=f"10.0.{i // 250}.{i % 250 + 1}", first=i)
        for i in range(120)
    ]
    cfg = DetectorConfig(slices=CFG, threshold=100)
    verdicts = detect(flows, cfg)
    sender_rows = [v for v in verdicts if v.key.ip == ip("203.0.113.9")]
    assert len(sender_rows) == 1
    verdict = sender_rows[0]
    assert verdict.direction is Direction.SENDER
    assert verdict.ratio == 120.0
    assert (verdict.generated, verdict.received) == (120, 0)


def test_victim_flagged_as_receiver() -> None:
    flows = [
        mk_flow(src=f"10.0.{i // 250}.{i % 250 + 1}", dst="203.0.113.9", first=i)
        for i in range(250)
    ]
    cfg = DetectorConfig(slices=CFG, threshold=200)
    receivers = [v for v in detect(flows, cfg) if v.direction is Direction.RECEIVER]
    assert [v.key.ip for v in receivers] == [ip("203.0.113.9")]
    assert receivers[0].ratio == -250.0


def test_threshold_is_strict() -> None:
    flows = [mk_flow(src="10.0.0.1", dst=f"10.0.1.{i + 1}", first=i) for i in range(100)]
    assert detect(flows, DetectorConfig(slices=CFG, threshold=100)) == []
    assert len(detect(flows, DetectorConfig(slices=CFG, threshold=99))) >= 1


def test_detect_output_sorted() -> None:
    rng = random.Random(7)
    flows = random_flows(rng, 2000, host_count=10, scanners=3)
    verdicts = detect(flows, DetectorConfig(slices=CFG, threshold=30))
    keys = [(v.key.slice_index, v.key.ip.version, int(v.key.ip)) for v in verdicts]
    assert keys == sorted(keys)
    assert len(verdicts) >= 1


def test_detect_insensitive_to_input_order(rng: random.Random) -> None:
    flows = random_flows(rng, 3000, scanners=2)
    cfg = DetectorConfig(slices=CFG, threshold=50)
    baseline = detect(flows, cfg)
    for _ in range(3):
        rng.shuffle(flows)
        assert detect(flows, cfg) == baseline


_HOSTS = [ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3"), ip("2001:db8::1")]


@given(
    st.lists(
        st.builds(
            lambda src, dst, first: FlowRecord(src, dst, 40000, 80, 6, first, first),
            st.sampled_from(_HOSTS),
            st.sampled_from(_HOSTS),
            st.integers(0, 2 * 30 * S - 1),
        ),
        max_size=120,
    ),
    _thresholds,
)
def test_detect_matches_naive_oracle_near_the_cut_bound(
    flows: list[FlowRecord], threshold: float
) -> None:
    got = detect(flows, DetectorConfig(slices=CFG, threshold=threshold))
    expected = naive_verdicts(flows, 0, 30 * S, threshold)
    assert render_rows([verdict_as_row(v) for v in got]) == render_rows(expected)


def test_detect_matches_naive_oracle(rng: random.Random) -> None:
    for round_no in range(10):
        flows = random_flows(rng, rng.randrange(100, 4000), scanners=rng.randrange(4))
        threshold = rng.choice((20, 50, 100))
        got = detect(flows, DetectorConfig(slices=CFG, threshold=threshold))
        expected = naive_verdicts(flows, 0, 30 * S, threshold)
        assert render_rows([verdict_as_row(v) for v in got]) == render_rows(expected)


def test_antisymmetry_under_direction_swap(rng: random.Random) -> None:
    flows = random_flows(rng, 2500, scanners=2)
    swapped = [
        mk_flow(
            src=str(f.dst),
            dst=str(f.src),
            first=f.first_seen_us,
            last=f.last_seen_us,
            sport=f.dst_port,
            dport=f.src_port,
            proto=f.protocol,
            packets=f.packet_count,
            size=f.byte_count,
        )
        for f in flows
    ]
    cfg = DetectorConfig(slices=CFG, threshold=40)
    original = detect(flows, cfg)
    mirrored = detect(swapped, cfg)
    assert len(original) == len(mirrored)
    flipped = {
        (v.key, Direction.RECEIVER if v.direction is Direction.SENDER else Direction.SENDER,
         v.received, v.generated, -v.ratio)
        for v in original
    }
    assert {
        (v.key, v.direction, v.generated, v.received, v.ratio) for v in mirrored
    } == flipped


def test_threshold_monotonicity(rng: random.Random) -> None:
    flows = random_flows(rng, 3000, scanners=3)
    flagged = {}
    for threshold in (50, 100, 200):
        verdicts = detect(flows, DetectorConfig(slices=CFG, threshold=threshold))
        flagged[threshold] = {(v.key, v.direction) for v in verdicts}
    assert flagged[200] <= flagged[100] <= flagged[50]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((0.5, 1, 2, 5, 20)), st.data())
def test_lowest_cut_holds_every_higher_cut(seed: int, lowest: float, data) -> None:
    # |ratio| never exceeds the count on its own side, so a key flags at a
    # threshold t >= lowest iff |ratio| > t: the cut at the lowest
    # threshold, filtered, gives every higher cut. Some thresholds are
    # |ratio| values of that cut, where a key sits on the threshold and
    # must not flag.
    rng = random.Random(seed)
    flows = as_batch(random_flows(
        rng, rng.randrange(50, 600), host_count=rng.randrange(3, 30), scanners=rng.randrange(1, 4)
    ))
    at_lowest = detect(flows, DetectorConfig(slices=CFG, threshold=lowest))
    assert at_lowest  # each scanner sends 150 or more flows and receives none
    on_a_ratio = st.sampled_from(sorted({abs(v.ratio) for v in at_lowest}))
    sweep = data.draw(st.lists(on_a_ratio | st.floats(lowest, 1000), min_size=1, max_size=6))
    for threshold in sweep:
        expected = detect(flows, DetectorConfig(slices=CFG, threshold=threshold))
        assert [v for v in at_lowest if abs(v.ratio) > threshold] == expected


def test_detect_accepts_any_iterable(rng: random.Random) -> None:
    flows = random_flows(rng, 500, scanners=1)
    cfg = DetectorConfig(slices=CFG, threshold=50)
    assert detect(iter(flows), cfg) == detect(flows, cfg)


def test_count_conservation(rng: random.Random) -> None:
    flows = random_flows(rng, 1234)
    counts = dict(count_flows(as_batch(flows), CFG)).values()
    assert sum(sum(generated.values()) for generated, _ in counts) == len(flows)
    assert sum(sum(received.values()) for _, received in counts) == len(flows)


def test_anomalous_ips_dedup() -> None:
    assert anomalous_ips([]) == set()
    flows = [
        mk_flow(src="203.0.113.9", dst=f"10.0.1.{i % 250 + 1}", first=(i % 2) * 35 * S)
        for i in range(240)
    ]
    verdicts = detect(flows, DetectorConfig(slices=CFG, threshold=100))
    assert len(verdicts) == 2  # slices 0 and 1
    assert anomalous_ips(verdicts) == {(ip("203.0.113.9"), Direction.SENDER)}


def test_anomalous_ips_keeps_both_directions() -> None:
    flows = [mk_flow(src="10.9.9.9", dst=f"10.0.1.{i + 1}", first=i) for i in range(150)]
    flows += [
        mk_flow(src=f"10.0.2.{i % 250 + 1}", dst="10.9.9.9", first=40 * S + i)
        for i in range(150)
    ]
    verdicts = detect(flows, DetectorConfig(slices=CFG, threshold=100))
    assert anomalous_ips(verdicts) == {
        (ip("10.9.9.9"), Direction.SENDER),
        (ip("10.9.9.9"), Direction.RECEIVER),
    }
