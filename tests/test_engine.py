from __future__ import annotations

import math
import os
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowscan.engine
from flowscan.core import (
    INT64_MAX,
    INT64_MIN,
    ConfigError,
    FlowRecord,
    SliceConfig,
    SliceKey,
    as_batch,
)
from flowscan.detector import DetectorConfig, count_flows, detect
from flowscan.engine import (
    EngineConfig,
    EngineError,
    RunStats,
    count_slices,
    forked,
    run_batch,
    run_streaming,
)
from flowscan.rules import RuleConfig, classify_all

from helpers import assert_no_child, ip, mk_flow, random_flows

S = 1_000_000
CFG = DetectorConfig(slices=SliceConfig(trace_start_us=0, slice_seconds=30.0), threshold=50)


def test_engine_config_validation() -> None:
    with pytest.raises(ValueError, match="workers"):
        EngineConfig(workers=0)
    for lag in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="watermark_lag_seconds must be finite and >= 0"):
            EngineConfig(watermark_lag_seconds=lag)


def test_batch_single_worker_matches_detect(rng: random.Random) -> None:
    flows = random_flows(rng, 800, scanners=1)
    verdicts, stats = run_batch(flows, CFG)
    assert verdicts == detect(flows, CFG)
    assert stats.records_in == len(flows)
    assert stats.verdicts_out == len(verdicts)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_batch_parallel_matches_sequential(rng: random.Random, workers: int) -> None:
    # random_flows shuffles, so every worker's contiguous range holds keys
    # that other ranges hold too and the merge has to add them up.
    flows = random_flows(rng, 600, scanners=2)
    baseline, _ = run_batch(flows, CFG)
    parallel, _ = run_batch(flows, CFG, EngineConfig(workers=workers))
    assert parallel == baseline


_HOSTS = [ip("10.0.0.1"), ip("10.0.0.2"), ip("2001:db8::1"), ip("2001:db8::2")]
_flow_lists = st.lists(
    st.builds(
        lambda src, dst, first: FlowRecord(src, dst, 40000, 80, 6, first, first),
        st.sampled_from(_HOSTS),
        st.sampled_from(_HOSTS),
        st.integers(0, 4 * 30 * S),
    ),
    max_size=12,
)


@settings(max_examples=15, deadline=None)
@given(_flow_lists)
def test_count_slices_matches_brute_force_tally(flows: list[FlowRecord]) -> None:
    # Examples with workers 2 and 3 fork, so keep them few and small; lists
    # shorter than the worker count leave some workers without a range.
    generated: Counter = Counter()
    received: Counter = Counter()
    for flow in flows:
        index = flow.first_seen_us // CFG.slices.duration_us
        generated[SliceKey(flow.src, index)] += 1
        received[SliceKey(flow.dst, index)] += 1
    batch = as_batch(flows)
    for workers in (1, 2, 3):
        engine = EngineConfig(workers=workers)
        # Each slice's tables are keyed by dense ids into batch.ips.
        by_id = dict(count_slices(batch, CFG.slices, engine))
        assert tuple(
            Counter({
                (batch.ips[i], index): n
                for index, tables in by_id.items()
                for i, n in tables[side].items()
            })
            for side in (0, 1)
        ) == (generated, received)
        assert all(
            isinstance(i, int) for tables in by_id.values() for t in tables for i in t
        )
        # A record list is counted as the batch it converts to.
        assert dict(count_slices(flows, CFG.slices, engine)) == by_id


def test_time_sorted_slices_only_in_worker_ranges_are_merged() -> None:
    # Sixty scan flows in each of four slices, in time order. At workers=3
    # the ranges are rows 0-79, 80-159 and 160-239: this process counts
    # slice 0 and part of slice 1, and slices 2 and 3 exist only in the
    # workers' ranges.
    flows = [
        mk_flow(src="10.0.0.9", dst=f"10.0.1.{i + 1}", first=index * 30 * S + i)
        for index in range(4)
        for i in range(60)
    ]
    batch = as_batch(flows)
    serial = dict(count_slices(batch, CFG.slices))
    assert sorted(serial) == [0, 1, 2, 3]
    assert dict(count_slices(batch, CFG.slices, EngineConfig(workers=3))) == serial
    verdicts, _ = run_batch(batch, CFG, EngineConfig(workers=3))
    assert verdicts == run_batch(batch, CFG)[0]
    assert [v.key.slice_index for v in verdicts] == [0, 1, 2, 3]


def test_only_one_slice_of_tables_is_alive_at_a_time() -> None:
    # Sixty flows in each of four slices. Each slice's pair is counted, or
    # let go by the workers' merged table, only when it is taken, so once
    # the next pair is taken nothing holds the previous one's tables.
    batch = as_batch([
        mk_flow(src="10.0.0.9", dst=f"10.0.1.{i + 1}", first=index * 30 * S + i)
        for index in range(4)
        for i in range(60)
    ])
    for counts in (
        count_flows(batch, CFG.slices),
        count_slices(batch, CFG.slices, EngineConfig(workers=2)),
    ):
        previous: list[weakref.ref] = []
        taken = []
        for index, tables in counts:
            assert all(ref() is None for ref in previous), index
            previous = [weakref.ref(table) for table in tables]
            taken.append(index)
        assert sorted(taken) == [0, 1, 2, 3]


def test_batch_more_workers_than_partitions(rng: random.Random) -> None:
    # one scanner in one slice: all eight ranges count the same key
    flows = [mk_flow(src="10.0.0.1", dst=f"10.0.1.{i + 1}", first=i) for i in range(80)]
    baseline, _ = run_batch(flows, CFG)
    parallel, _ = run_batch(flows, CFG, EngineConfig(workers=8))
    assert parallel == baseline


def test_batch_empty_input() -> None:
    verdicts, stats = run_batch([], CFG, EngineConfig(workers=4))
    assert verdicts == []
    assert stats.records_in == 0
    assert stats.verdicts_out == 0
    assert stats.trace_duration_s == 0.0


@pytest.mark.parametrize("start", [INT64_MIN, INT64_MAX], ids=["far-before", "far-after"])
def test_empty_batch_fits_any_trace_start(start: int) -> None:
    # No flow precedes the start when there is no flow at all.
    slices = SliceConfig(trace_start_us=start)
    cfg = DetectorConfig(slices=slices, threshold=50)
    assert run_batch([], cfg)[0] == []
    assert run_streaming([], cfg, EngineConfig(), lambda i, v: None).records_in == 0
    assert classify_all([ip("10.0.0.1")], [], RuleConfig(), slices)[ip("10.0.0.1")].labels == set()


@pytest.mark.parametrize("start", [-(10**400), INT64_MIN - 1, INT64_MAX + 1, 10**400])
def test_trace_start_beyond_int64_is_a_config_error(start: int) -> None:
    # Like every timestamp, a trace start fits a signed 64-bit int.
    with pytest.raises(ConfigError, match="trace_start_us must fit a signed 64-bit int"):
        SliceConfig(trace_start_us=start)


def test_batch_stats_duration() -> None:
    flows = [mk_flow(first=0, last=90 * S), mk_flow(first=10 * S, last=20 * S)]
    _, stats = run_batch(flows, CFG)
    assert stats.trace_duration_s == 90.0


def test_worker_failure_wrapped_with_progress(monkeypatch) -> None:
    parent = os.getpid()
    count_flows = flowscan.engine.count_flows

    def broken_in_workers(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker crashed")
        return count_flows(*args)

    # The forked workers inherit the patched module global.
    monkeypatch.setattr(flowscan.engine, "count_flows", broken_in_workers)
    flows = [mk_flow(first=i) for i in range(6)]
    with pytest.raises(EngineError, match=r"0 of 2 partitions: worker crashed"):
        run_batch(flows, CFG, EngineConfig(workers=3))


def test_pre_start_flow_rejected_before_fork() -> None:
    # The pre-start flow sits in a worker's range, not in this process's.
    flows = [mk_flow(first=5), mk_flow(first=6), mk_flow(src="10.0.0.9", first=-3)]
    with pytest.raises(ValueError, match="first_seen -3 precedes trace start 0"):
        run_batch(flows, CFG, EngineConfig(workers=2))


def test_pre_start_flow_in_first_range_raises_unwrapped() -> None:
    # The batch's earliest flow is checked before the fork, in this process,
    # so the error is not an EngineError.
    flows = [mk_flow(src="10.0.0.9", first=-3), mk_flow(first=5), mk_flow(first=6)]
    with pytest.raises(ValueError, match="first_seen -3 precedes trace start 0"):
        run_batch(flows, CFG, EngineConfig(workers=2))


def test_count_slices_pre_start_flow_raises_without_forking(monkeypatch) -> None:
    def no_fork(*args):
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    # The pre-start flow sits in the second range, a worker's, then in the
    # first, this process's.
    for firsts in ((5, 6, -3), (-3, 5, 6)):
        batch = as_batch([mk_flow(first=first) for first in firsts])
        with pytest.raises(ValueError, match="first_seen -3 precedes trace start 0"):
            count_slices(batch, CFG.slices, EngineConfig(workers=2))


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
def test_pre_start_flow_raises_before_any_fork_or_emission(monkeypatch, at: int) -> None:
    def no_fork(*args):
        raise AssertionError("a process was forked")

    def no_emit(index: int, verdicts: list) -> None:
        raise AssertionError(f"slice {index} was emitted")

    monkeypatch.setattr(os, "fork", no_fork)
    # With no lag, each flow after the first closes the slice before it.
    flows = [mk_flow(first=k * 40 * S) for k in range(4)]
    flows.insert(at, mk_flow(src="10.0.0.9", first=-3))
    batch = as_batch(flows)
    # A row range without the pre-start flow raises too: the rule is the batch's.
    other = 1 if at == 0 else 0
    calls = [
        lambda: count_flows(batch, CFG.slices),
        lambda: count_flows(batch, CFG.slices, other, other + 1),
        lambda: count_slices(batch, CFG.slices),
        lambda: count_slices(batch, CFG.slices, EngineConfig(workers=2)),
        lambda: run_batch(batch, CFG),
        lambda: run_batch(batch, CFG, EngineConfig(workers=2)),
        lambda: run_streaming(
            batch, CFG, EngineConfig(watermark_lag_seconds=0.0), no_emit
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="first_seen -3 precedes trace start 0"):
            call()


def test_fallback_without_fork_matches(rng, monkeypatch) -> None:
    flows = random_flows(rng, 400, scanners=1)
    baseline, _ = run_batch(flows, CFG, EngineConfig(workers=4))
    monkeypatch.delattr(os, "fork")
    fallback, _ = run_batch(flows, CFG, EngineConfig(workers=4))
    assert fallback == baseline


def test_forked_round_trip() -> None:
    """The child makes `late(early())`, and it arrives through marshal."""
    with forked(lambda: {"ids": [1, 2], "pid": os.getpid()}, lambda found: (found, 3.5)) as answer:
        found, late = answer()
    assert found["ids"] == [1, 2] and found["pid"] != os.getpid() and late == 3.5
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_forked_early_error_arrives_after_the_child_exited() -> None:
    """A child whose `early` raised sends its text and exits before it is
    asked; asking then writes to a pipe nobody reads, and the text still
    arrives."""

    def broken():
        raise OSError("early failed")

    with forked(broken) as answer:
        # Waits for the child to exit, and leaves it for forked to reap.
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        with pytest.raises(ChildProcessError, match="^early failed$"):
            answer()
    assert_no_child()


def test_forked_child_without_an_answer() -> None:
    with forked(lambda: os._exit(0)) as answer:
        with pytest.raises(ChildProcessError, match="ended without an answer"):
            answer()
    assert_no_child()


def test_forked_without_fork_runs_both_steps_when_asked(monkeypatch) -> None:
    monkeypatch.delattr(os, "fork")
    steps = []
    early = lambda: steps.append(("early", os.getpid())) or 1
    with forked(early, lambda value: steps.append(("late", os.getpid())) or value + 1) as answer:
        assert steps == []
        assert answer() == 2
    assert steps == [("early", os.getpid()), ("late", os.getpid())]


def _collect(flows, engine: EngineConfig) -> tuple[list[tuple[int, list]], RunStats]:
    emissions: list[tuple[int, list]] = []
    stats = run_streaming(
        flows, CFG, engine, lambda index, verdicts: emissions.append((index, verdicts))
    )
    return emissions, stats


def test_streaming_in_order_equals_batch(rng: random.Random) -> None:
    flows = sorted(random_flows(rng, 700, scanners=2), key=lambda f: f.first_seen_us)
    batch, _ = run_batch(flows, CFG)
    emissions, stats = _collect(flows, EngineConfig(watermark_lag_seconds=0.0))
    streamed = [v for _, verdicts in emissions for v in verdicts]
    assert streamed == batch
    assert stats.late_dropped == 0
    assert stats.verdicts_out == len(batch)


def test_streaming_emits_each_slice_once_ascending(rng: random.Random) -> None:
    flows = sorted(random_flows(rng, 500), key=lambda f: f.first_seen_us)
    emissions, _ = _collect(flows, EngineConfig(watermark_lag_seconds=2.0))
    indices = [index for index, _ in emissions]
    assert indices == sorted(indices)
    assert len(indices) == len(set(indices))
    touched = {(f.first_seen_us - 0) // CFG.slices.duration_us for f in flows}
    assert set(indices) == touched


def test_streaming_watermark_boundary() -> None:
    # lag 5s, slices 30s: slice 0 closes exactly when a flow reaches t=35s
    early = [mk_flow(src="10.0.0.1", dst="10.0.0.2", first=t * S) for t in (1, 2)]
    emissions, stats = _collect(
        early + [mk_flow(first=34_999_999)], EngineConfig(watermark_lag_seconds=5.0)
    )
    assert stats.late_dropped == 0  # watermark just short of 30s, slice 0 still open

    flows = early + [
        mk_flow(first=35 * S),
        mk_flow(src="10.0.0.3", dst="10.0.0.4", first=3 * S),  # arrives after close
    ]
    emissions, stats = _collect(flows, EngineConfig(watermark_lag_seconds=5.0))
    assert stats.late_dropped == 1
    assert stats.records_in == 4
    late_pair = {ip("10.0.0.3"), ip("10.0.0.4")}
    seen = {v.key.ip for _, verdicts in emissions for v in verdicts}
    assert not (seen & late_pair)


def test_streaming_disorder_within_lag_is_kept() -> None:
    flows = [
        mk_flow(src="10.0.0.1", first=10 * S),
        mk_flow(src="10.0.0.2", first=36 * S),
        mk_flow(src="10.0.0.3", first=33 * S),  # 3s behind newest, lag is 5s
    ]
    _, stats = _collect(flows, EngineConfig(watermark_lag_seconds=5.0))
    assert stats.late_dropped == 0
    assert stats.records_in == 3


def test_streaming_callback_errors_propagate() -> None:
    flows = [mk_flow(first=0), mk_flow(first=40 * S)]

    def boom(index: int, verdicts: list) -> None:
        raise RuntimeError("sink unavailable")

    with pytest.raises(RuntimeError, match="sink unavailable"):
        run_streaming(flows, CFG, EngineConfig(watermark_lag_seconds=0.0), boom)


def test_streaming_empty_stream() -> None:
    emissions, stats = _collect([], EngineConfig())
    assert emissions == []
    assert stats.records_in == 0
    assert stats.verdicts_out == 0


def test_streaming_pre_start_flow_rejected() -> None:
    with pytest.raises(ValueError, match="precedes trace start"):
        run_streaming([mk_flow(first=-1)], CFG, EngineConfig(), lambda i, v: None)


def test_streaming_pre_start_flow_after_a_close_is_not_late() -> None:
    # Slice 0 would have closed by the time the pre-start flow arrives; it
    # must raise rather than be dropped as late, and before any emission.
    flows = [mk_flow(first=0), mk_flow(first=40 * S), mk_flow(first=-1)]
    emissions: list[int] = []
    with pytest.raises(ValueError, match="precedes trace start"):
        run_streaming(
            flows,
            CFG,
            EngineConfig(watermark_lag_seconds=0.0),
            lambda index, verdicts: emissions.append(index),
        )
    assert emissions == []
