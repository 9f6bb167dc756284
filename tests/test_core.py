from __future__ import annotations

import ipaddress
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowscan.core import (
    ConfigError,
    FlowBatch,
    FlowRecord,
    SliceConfig,
    format_ip,
    format_protocol,
    ip_sort_key,
    parse_ip,
    parse_protocol,
    slice_at,
)

from helpers import ip, mk_flow

S = 1_000_000  # microseconds per second


def test_slice_at_trace_start_is_zero() -> None:
    cfg = SliceConfig(trace_start_us=1000, slice_seconds=30.0)
    assert slice_at(1000, cfg) == 0


def test_slice_boundary_is_half_open() -> None:
    cfg = SliceConfig(trace_start_us=0, slice_seconds=30.0)
    assert slice_at(30 * S, cfg) == 1
    assert slice_at(30 * S - 1, cfg) == 0


def test_slice_at_95_seconds_in() -> None:
    cfg = SliceConfig(trace_start_us=0, slice_seconds=30.0)
    assert slice_at(95 * S, cfg) == 3


def test_flow_before_trace_start_rejected() -> None:
    cfg = SliceConfig(trace_start_us=50 * S, slice_seconds=30.0)
    with pytest.raises(ValueError, match="precedes trace start"):
        slice_at(49 * S, cfg)


def test_slice_duration_must_be_positive() -> None:
    for seconds in (0, -1.5, 1e-9, math.nan, math.inf):
        with pytest.raises(ConfigError):
            SliceConfig(trace_start_us=0, slice_seconds=seconds)


@given(
    first=st.integers(min_value=0, max_value=10**13),
    start=st.integers(min_value=0, max_value=10**12),
    seconds=st.floats(min_value=0.001, max_value=3600, allow_nan=False),
)
def test_every_valid_flow_lands_in_exactly_one_slice(
    first: int, start: int, seconds: float
) -> None:
    cfg = SliceConfig(trace_start_us=start, slice_seconds=seconds)
    index = slice_at(start + first, cfg)
    assert index >= 0
    assert index * cfg.duration_us <= first < (index + 1) * cfg.duration_us


@given(st.ip_addresses())
def test_ip_parse_format_round_trip(addr) -> None:
    assert parse_ip(format_ip(addr)) == addr


def test_ip_sort_key_orders_mixed_families() -> None:
    addrs = [
        ipaddress.ip_address("255.0.0.1"),
        ipaddress.ip_address("::1"),
        ipaddress.ip_address("10.0.0.1"),
    ]
    ordered = sorted(addrs, key=ip_sort_key)
    assert [str(a) for a in ordered] == ["10.0.0.1", "255.0.0.1", "::1"]


def test_protocol_names_and_numbers() -> None:
    assert parse_protocol("TCP") == 6
    assert parse_protocol("udp") == 17
    assert parse_protocol("6") == 6
    assert parse_protocol("47") == 47
    assert format_protocol(6) == "TCP"
    assert format_protocol(17) == "UDP"
    assert format_protocol(1) == "1"


def test_protocol_out_of_range() -> None:
    with pytest.raises(ValueError):
        parse_protocol("256")
    with pytest.raises(ValueError):
        parse_protocol("tcpish")


@given(st.integers(min_value=0, max_value=255))
def test_protocol_format_parse_round_trip(code: int) -> None:
    assert parse_protocol(format_protocol(code)) == code


def test_flow_record_validation() -> None:
    with pytest.raises(ValueError, match="src_port"):
        mk_flow(sport=70000)
    with pytest.raises(ValueError, match="dst_port"):
        mk_flow(dport=-1)
    with pytest.raises(ValueError, match="first_seen"):
        mk_flow(first=10, last=9)
    with pytest.raises(ValueError, match="packet_count"):
        mk_flow(packets=0)
    with pytest.raises(ValueError, match="byte_count"):
        mk_flow(size=-5)
    with pytest.raises(ValueError, match="protocol"):
        mk_flow(proto=300)


def test_flow_record_is_hashable_value() -> None:
    assert mk_flow() == mk_flow()
    assert len({mk_flow(), mk_flow()}) == 1


def test_fractional_slice_seconds_use_microsecond_arithmetic() -> None:
    cfg = SliceConfig(trace_start_us=0, slice_seconds=0.5)
    assert cfg.duration_us == 500_000
    assert slice_at(499_999, cfg) == 0
    assert slice_at(500_000, cfg) == 1


def test_flow_record_is_frozen() -> None:
    flow = mk_flow()
    with pytest.raises(AttributeError):
        flow.src_port = 1  # type: ignore[misc]


def _columns(*rows: tuple) -> list[tuple]:
    """Rows in flow-file field order, as nine columns."""
    return list(zip(*rows))


def test_extend_interns_new_names_in_first_appearance_order() -> None:
    batch = FlowBatch()
    batch.append(mk_flow(src="10.0.0.1", dst="10.0.0.2"))
    ids = {"a": batch.id_of(ip("10.0.0.2"))}
    new = {"b": ip("2001:db8::1"), "c": ip("10.0.0.3"), "unused": ip("192.0.2.1")}
    # a row's source gets its id before its destination
    columns = _columns((5, 6, "c", "b", 1, 2, 17, 1, 0), (7, 7, "b", "a", 3, 4, 6, 2, 60))
    assert batch.extend(columns, ids, new.__getitem__) is None
    assert batch.ips == [ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3"), ip("2001:db8::1")]
    assert ids == {"a": 1, "c": 2, "b": 3}
    assert list(batch)[1:] == [
        mk_flow("10.0.0.3", "2001:db8::1", 5, 6, 1, 2, 17, 1, 0),
        mk_flow("2001:db8::1", "10.0.0.2", 7, 7, 3, 4, 6, 2, 60),
    ]
    assert [list(column) for column in batch.columns()] == [
        [0, 5, 7], [0, 6, 7], [0, 2, 3], [1, 3, 1], [40000, 1, 3], [80, 2, 4],
        [6, 17, 6], [1, 1, 2], [100, 0, 60],
    ]


@pytest.mark.parametrize(
    "at, value",
    [(7, 0), (8, -1), (0, 9), (4, 70000), (1, 2**63)],
    ids=["no-packets", "negative-bytes", "first-after-last", "port", "beyond-int64"],
)
def test_extend_rejects_invalid_columns_and_changes_nothing(at: int, value: int) -> None:
    batch = FlowBatch()
    batch.append(mk_flow(src="10.0.0.1", dst="10.0.0.2", first=1, last=2))
    before = [list(batch.ips), *map(list, batch.columns())]
    bounds = batch.earliest_us, batch.latest_us
    good = [3, 4, "new", "old", 1, 2, 6, 1, 60]
    bad = list(good)
    bad[at] = value
    ids = {"old": 0}
    new = {"new": ip("2001:db8::9")}
    with pytest.raises(ValueError):
        batch.extend(_columns(good, bad), ids, new.__getitem__)
    assert [list(batch.ips), *map(list, batch.columns())] == before
    assert (batch.earliest_us, batch.latest_us) == bounds
    assert ids == {"old": 0}
    assert batch.id_of(ip("2001:db8::9")) is None
    # the same rows without the bad one are accepted
    batch.extend(_columns(good), ids, new.__getitem__)
    assert batch.id_of(ip("2001:db8::9")) == 2


@pytest.mark.parametrize("new", [{}, {"new": ip("2001:db8::9")}], ids=["no-new", "new"])
def test_extend_with_a_name_it_cannot_map_raises_and_changes_nothing(new: dict) -> None:
    """A name that neither `ids` nor the address function maps raises the
    function's own exception, and every new name is resolved before the
    first is interned, so nothing changes."""
    batch = FlowBatch()
    batch.append(mk_flow(src="10.0.0.1", dst="10.0.0.2", first=1, last=2))
    before = [list(batch.ips), *map(list, batch.columns())]
    bounds = batch.earliest_us, batch.latest_us
    ids = {"old": 0}
    # "new" comes before "unknown", so with `new` given it would be
    # interned first if the lookup were not done ahead.
    rows = (0, 9, "new", "old", 1, 2, 6, 1, 60), (0, 9, "old", "unknown", 1, 2, 6, 1, 60)
    with pytest.raises(KeyError, match="unknown" if new else "new"):
        batch.extend(_columns(*rows), ids, new.__getitem__)
    assert [list(batch.ips), *map(list, batch.columns())] == before
    assert (batch.earliest_us, batch.latest_us) == bounds
    assert ids == {"old": 0}
    assert batch.id_of(ip("2001:db8::9")) is None


@pytest.mark.parametrize("short", [1, 3], ids=["last_seen_us", "dst"])
def test_extend_with_columns_of_different_lengths_raises_and_changes_nothing(
    short: int,
) -> None:
    """Nine columns where one holds a value fewer than the others raise
    ValueError before anything changes, new names included."""
    batch = FlowBatch()
    batch.append(mk_flow(src="10.0.0.1", dst="10.0.0.2", first=1, last=2))
    before = [list(batch.ips), *map(list, batch.columns())]
    bounds = batch.earliest_us, batch.latest_us
    ids = {"old": 0}
    new = {"new": ip("2001:db8::9")}
    columns = _columns((3, 4, "old", "new", 1, 2, 6, 1, 60), (5, 6, "new", "old", 1, 2, 6, 1, 60))
    columns[short] = columns[short][:1]
    with pytest.raises(ValueError, match="different lengths"):
        batch.extend(columns, ids, new.__getitem__)
    assert [list(batch.ips), *map(list, batch.columns())] == before
    assert (batch.earliest_us, batch.latest_us) == bounds
    assert ids == {"old": 0}
    assert batch.id_of(ip("2001:db8::9")) is None


_LEAN_ROWS = (5, 6, "c", "b", 1, 2, 17, 1, 0), (7, 9, "b", "a", 3, 4, 6, 2, 60)


def _lean_and_full() -> tuple[FlowBatch, FlowBatch]:
    """The same two rows in a lean batch and in a full one."""
    batches = FlowBatch(lean=True), FlowBatch()
    for batch in batches:
        new = {"a": ip("10.0.0.2"), "b": ip("2001:db8::1"), "c": ip("10.0.0.3")}
        batch.extend(_columns(*_LEAN_ROWS), {}, new.__getitem__)
    return batches


def test_lean_batch_stores_the_four_columns_the_job_reads() -> None:
    lean, full = _lean_and_full()
    assert lean.lean and not full.lean
    assert len(lean) == len(full) == 2
    assert lean.ips == full.ips == [ip("10.0.0.3"), ip("2001:db8::1"), ip("10.0.0.2")]
    for name in ("first_seen_us", "src", "dst", "dst_port"):
        assert getattr(lean, name) == getattr(full, name)
    for name in ("last_seen_us", "src_port", "protocol", "packet_count", "byte_count"):
        assert getattr(lean, name) is None
    assert (lean.earliest_us, lean.latest_us) == (full.earliest_us, full.latest_us) == (5, 9)


def test_lean_batch_raises_where_it_would_need_a_column_it_lacks() -> None:
    """Rows, the nine columns, one appended record and an extend from the
    lean batch's columns all raise ValueError; nothing is invented."""
    lean, full = _lean_and_full()
    with pytest.raises(ValueError, match="lean"):
        lean[0]
    with pytest.raises(ValueError, match="lean"):
        list(lean)
    with pytest.raises(ValueError, match="lean"):
        lean.columns()
    with pytest.raises(ValueError, match="lean"):
        full.extend(lean.columns(), {}, lean.ips.__getitem__)
    with pytest.raises(ValueError, match="lean"):
        lean.append(mk_flow(src="192.0.2.1"))
    assert lean.id_of(ip("192.0.2.1")) is None
    assert len(full) == len(lean) == 2


@pytest.mark.parametrize(
    "at, value",
    [(1, 2**63), (1, 4), (4, -1), (4, 65536), (6, 256), (6, -1), (7, 0), (7, 2**63),
     (8, -1), (8, 2**63)],
    ids=["last-beyond-int64", "last-before-first", "src-port-negative", "src-port-wide",
         "protocol-wide", "protocol-negative", "no-packets", "packets-beyond-int64",
         "negative-bytes", "bytes-beyond-int64"],
)
def test_lean_extend_checks_the_columns_it_drops(at: int, value: int) -> None:
    """A row bad only in a column that a lean batch does not store is
    rejected as a full batch rejects it, and nothing changes."""
    lean, full = _lean_and_full()
    good = [5, 6, "new", "c", 1, 2, 6, 1, 60]
    bad = list(good)
    bad[at] = value
    new = {"new": ip("2001:db8::9")}
    for batch in (lean, full):
        ids = {"c": 0}
        with pytest.raises(ValueError):
            batch.extend(_columns(good, bad), ids, new.__getitem__)
        assert len(batch) == 2 and len(batch.ips) == 3 and ids == {"c": 0}
        assert (batch.earliest_us, batch.latest_us) == (5, 9)
        batch.extend(_columns(good), ids, new.__getitem__)
        assert len(batch) == 3 and batch.id_of(ip("2001:db8::9")) == 3
