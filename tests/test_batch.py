"""FlowBatch and the columnar paths, checked against tests/oracles.py."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowscan import ingest
from flowscan.core import FlowBatch, FlowRecord, SliceConfig, as_batch
from flowscan.detector import DetectorConfig, detect
from flowscan.engine import EngineConfig, run_batch, run_streaming
from flowscan.evaluation import trace_universe
from flowscan.ingest import (
    FLOW_HEADER,
    SKIPPED_LINES_KEPT,
    FlowFileError,
    FlowFileReader,
    write_flow_file,
)
from flowscan.rules import RuleConfig, classify_all
from flowscan.synth import BackgroundSpec, SynthSpec, TraceSpec, generate

from helpers import ip, mk_flow
from oracles import (
    brute_force_labels,
    naive_stream,
    naive_verdicts,
    reference_parse,
    verdict_as_row,
)

S = 1_000_000
SLICE_US = 30 * S

_ADDRESSES = [ip("10.0.0.1"), ip("10.0.0.2"), ip("2001:db8::1"), ip("2001:db8:0:0:1::a")]
# A valid address that only ever appears in malformed rows.
_NOVEL = "192.0.2.99"


def _spellings(addr) -> st.SearchStrategy[str]:
    """Compressed, exploded (zero-padded) and upper-case spellings."""
    return st.sampled_from(
        [str(addr), str(addr).upper(), addr.exploded, addr.exploded.upper()]
    )


_address_texts = st.sampled_from(_ADDRESSES).flatmap(_spellings)


@st.composite
def _good_fields(draw) -> list[str]:
    first = draw(st.integers(0, 10**7))
    return [
        str(first),
        str(first + draw(st.integers(0, 10**6))),
        draw(_address_texts),
        draw(_address_texts),
        str(draw(st.integers(0, 65535))),
        str(draw(st.integers(0, 65535))),
        draw(st.sampled_from(["TCP", "udp", "6", "17", "1"])),
        str(draw(st.integers(1, 5))),
        str(draw(st.integers(0, 1500))),
    ]


# (field index, value): outside the signed 64-bit range, except the last
# one, which is the largest value that fits.
_WIDE_VALUES = [(1, 2**63), (0, -(2**63) - 1), (7, 2**63), (8, 2**64), (1, 2**63 - 1)]


@st.composite
def _line(draw) -> str:
    fields = draw(_good_fields())
    kind = draw(
        st.sampled_from(["good", "good", "bad_address", "fields", "wide", "range", "blank"])
    )
    if kind == "bad_address":
        # a good (and otherwise unseen) address, then a bad one
        fields[2] = _NOVEL
        fields[3] = draw(st.sampled_from(["10.0.0.256", "2001:db8::g", "010.0.0.1", ""]))
    elif kind == "fields":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
    elif kind == "wide":
        at, value = draw(st.sampled_from(_WIDE_VALUES))
        fields[at] = str(value)
        fields[2] = _NOVEL
    elif kind == "range":
        # parses, but no packets, negative bytes, or last before first
        at, value = draw(st.sampled_from([(7, "0"), (8, "-1"), (1, "-1")]))
        fields[at] = value
        fields[2] = _NOVEL
    elif kind == "blank":
        return ""
    return ",".join(fields)


@st.composite
def _flow_file_lines(draw) -> list[str]:
    lines = draw(st.lists(_line(), max_size=30))
    # Half the examples stay under the error-ratio limit.
    if draw(st.booleans()):
        lines += [",".join(draw(_good_fields()))] * (10 * len(lines))
    return draw(st.permutations(lines))


def _write_lines(
    directory: str, lines: list[str], newline: str = "\n", final_newline: bool = True
) -> Path:
    path = Path(directory) / "flows.csv"
    text = newline.join([FLOW_HEADER, *lines]) + (newline if final_newline else "")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _check_read(path: Path) -> None:
    """The file's lenient and strict reads agree with reference_parse."""
    reader = FlowFileReader(path)
    try:
        expected, bad_lines = reference_parse(path)
    except ValueError:
        with pytest.raises(FlowFileError, match="malformed"):
            reader.read()
        return
    batch = reader.read()
    strict = FlowFileReader(path, strict=True)
    if bad_lines:
        with pytest.raises(FlowFileError, match=f"^{path}:{bad_lines[0]}: "):
            strict.read()
    else:
        assert list(strict) == expected
    assert list(batch) == expected
    assert reader.errors == len(bad_lines)
    assert reader.rows == len(expected)
    assert reader.skipped_lines == bad_lines[:SKIPPED_LINES_KEPT]
    # one id per address value of the accepted rows, in first-appearance
    # order, a row's source before its destination
    assert batch.ips == list(dict.fromkeys(a for f in expected for a in (f.src, f.dst)))


@settings(max_examples=80)
@given(_flow_file_lines())
def test_reader_matches_reference_parse(lines: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _check_read(_write_lines(tmp, lines))


_GOOD = "0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1,60"


_ROWS = [f"{i},{i + 9},10.0.0.{i % 3 + 1},10.0.0.9,4000,80,TCP,1,60" for i in range(12)]


@settings(max_examples=80)
@given(
    _flow_file_lines(),
    st.integers(1, 160),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)
# Two spellings of one address, first seen in different chunks.
@example(
    lines=[_GOOD, "0,1,2001:db8::1,10.0.0.2,4000,80,TCP,1,60", _GOOD]
    + ["0,1,2001:DB8:0:0:0:0:0:1,10.0.0.2,4000,80,TCP,1,60"] * 3,
    chunk_bytes=100,
    newline="\r\n",
    final_newline=False,
)
# A blank line, then a valid, unseen address only in a chunk's bad row.
@example(
    lines=["", *[_GOOD] * 9, f"0,1,{_NOVEL},10.0.0.2,4000,80,TCP,0,60", _GOOD, _GOOD],
    chunk_bytes=100,
    newline="\n",
    final_newline=True,
)
# In one block, a line of 8 fields and one of 10: 18 in all, but the first
# line end falls in a first field. Taken as two rows of nine, both parse.
@example(
    lines=[*_ROWS, "0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1", f"60,{_ROWS[0]}"],
    chunk_bytes=32768,
    newline="\n",
    final_newline=True,
)
# In one block, a last line without a line end, of twice nine fields.
@example(lines=[*_ROWS, ",".join(_ROWS[:2])], chunk_bytes=32768, newline="\n", final_newline=False)
# A lone "\r" where int() would ignore it, in a block of nine-field lines.
# It ends a line, so the malformed line of a later block is line 28, not 27.
@example(
    lines=[*_ROWS, "0,1,10.0.0.1,10.0.0.2,4000,80\r,TCP,1,60", *_ROWS, "0,1,10.0.0.1"],
    chunk_bytes=100,
    newline="\n",
    final_newline=True,
)
def test_chunked_read_matches_reference_parse(
    lines: list[str], chunk_bytes: int, newline: str, final_newline: bool
) -> None:
    # Mostly blocks of a few lines each, so that a file spans many of them.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        ingest, "CHUNK_BYTES", chunk_bytes
    ):
        _check_read(_write_lines(tmp, lines, newline, final_newline))


# (field index, value) pairs bad only in a column that a lean batch does
# not store: src_port, protocol, packets, bytes and last_seen_us. A
# last_seen_us of "-1" comes before every generated first_seen_us.
_DROPPED_BAD = [
    (4, "-1"), (4, "65536"), (6, "256"), (7, "0"), (7, str(2**63)), (8, "-1"),
    (8, str(2**63)), (1, "-1"), (1, str(2**63)),
]


@st.composite
def _lean_line(draw) -> str:
    """A good row (its addresses in two spellings), a blank line, or a row
    bad only in a dropped column, whose source no accepted row holds."""
    fields = draw(_good_fields())
    kind = draw(st.sampled_from(["good", "good", "good", "blank", "dropped"]))
    if kind == "blank":
        return ""
    if kind == "dropped":
        at, value = draw(st.sampled_from(_DROPPED_BAD))
        fields[at] = value
        fields[2] = _NOVEL
    return ",".join(fields)


@st.composite
def _lean_file_lines(draw) -> list[str]:
    lines = draw(st.lists(_lean_line(), max_size=30))
    # Half the examples stay under the error-ratio limit.
    if draw(st.booleans()):
        lines += [",".join(draw(_good_fields()))] * (10 * len(lines))
    return draw(st.permutations(lines))


@settings(max_examples=80)
@given(
    _lean_file_lines(),
    st.integers(1, 160),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
def test_lean_read_matches_reference_parse(
    lines: list[str], chunk_bytes: int, newline: str, final_newline: bool
) -> None:
    """A lean read holds reference_parse's rows projected onto the four
    columns it stores, with the same addresses, trace bounds, counts of
    skipped lines and strict error line as reference_parse gives."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        ingest, "CHUNK_BYTES", chunk_bytes
    ):
        path = _write_lines(tmp, lines, newline, final_newline)
        reader = FlowFileReader(path)
        try:
            expected, bad_lines = reference_parse(path)
        except ValueError:
            with pytest.raises(FlowFileError, match="malformed"):
                reader.read(lean=True)
            return
        batch = reader.read(lean=True)
        if bad_lines:
            with pytest.raises(FlowFileError, match=f"^{path}:{bad_lines[0]}: "):
                FlowFileReader(path, strict=True).read(lean=True)
        else:
            assert len(FlowFileReader(path, strict=True).read(lean=True)) == len(expected)
    assert batch.lean
    rows = zip(batch.first_seen_us, batch.src, batch.dst, batch.dst_port)
    assert [(first, batch.ips[src], batch.ips[dst], port) for first, src, dst, port in rows] == [
        (f.first_seen_us, f.src, f.dst, f.dst_port) for f in expected
    ]
    assert batch.ips == list(dict.fromkeys(a for f in expected for a in (f.src, f.dst)))
    assert batch.earliest_us == min((f.first_seen_us for f in expected), default=math.inf)
    assert batch.latest_us == max((f.last_seen_us for f in expected), default=-math.inf)
    assert (reader.rows, reader.errors) == (len(expected), len(bad_lines))
    assert reader.skipped_lines == bad_lines[:SKIPPED_LINES_KEPT]


def test_lean_batch_is_not_written(tmp_path: Path) -> None:
    """write_flow_file raises for a lean batch before it opens the file."""
    path = _write_lines(str(tmp_path), [_GOOD])
    batch = FlowFileReader(path).read(lean=True)
    with pytest.raises(ValueError, match="lean"):
        write_flow_file(tmp_path / "out.csv", batch)
    assert not (tmp_path / "out.csv").exists()


def _check_column_read(path: Path, chunk_bytes: int) -> None:
    """_check_read in blocks of `chunk_bytes`, and the per-row loop never runs."""
    with mock.patch.object(ingest, "CHUNK_BYTES", chunk_bytes), mock.patch.object(
        FlowFileReader, "_append_rows", autospec=True, side_effect=FlowFileReader._append_rows
    ) as row_loop:
        _check_read(path)
    assert row_loop.call_count == 0


@pytest.mark.parametrize("straddler", ["\r\n", "\u0661"], ids=["crlf", "utf8"])
def test_block_boundary_inside_a_line_end_or_a_character(tmp_path: Path, straddler: str) -> None:
    """A clean CRLF file whose first CHUNK_BYTES bytes end between the two
    characters of a "\r\n", or between the two bytes of U+0661 (ARABIC-INDIC
    DIGIT ONE, a packet count that int() reads as 1), is read a column at a
    time throughout and agrees with reference_parse."""
    rows = list(_ROWS)
    rows[5] = rows[5][: -len("1,60")] + "\u0661,60"
    text = "\r\n".join(rows) + "\r\n"
    at = text.index(straddler, len(text) // 3)
    assert text[:at].isascii()  # so the first block ends inside the straddler
    chunk_bytes = len(text[:at].encode()) + 1
    _check_column_read(_write_lines(str(tmp_path), rows, "\r\n"), chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [7, 100, 32768])
@pytest.mark.parametrize("ends", [["\r"], ["\r", "\n", "\r\n"]], ids=["cr", "mixed"])
def test_every_line_end_is_read_as_columns(
    tmp_path: Path, ends: list[str], chunk_bytes: int
) -> None:
    """A clean file whose lines end in "\r" alone, or in "\r", "\n" and
    "\r\n" by turns, is read a column at a time throughout, in blocks of
    any size, and agrees with reference_parse."""
    lines = [FLOW_HEADER, *_ROWS]
    path = tmp_path / "flows.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + ends[i % len(ends)] for i, line in enumerate(lines)))
    _check_column_read(path, chunk_bytes)


def _read_lenient(path: Path) -> tuple[FlowBatch, int]:
    reader = FlowFileReader(path)
    return reader.read(), reader.errors


_V6 = "0,1,2001:db8::1,10.0.0.2,4000,80,TCP,1,60"
_V6_EXPLODED = "0,1,2001:0DB8:0:0:0:0:0:1,10.0.0.2,4000,80,TCP,1,60"


@st.composite
def _cut_file(draw) -> tuple[list[str], int]:
    lines = draw(_flow_file_lines())
    return lines, draw(st.integers(0, len(lines)))


@settings(max_examples=80)
@given(_cut_file(), st.integers(1, 160))
# One address spelled two ways on either side of the cut, with a blank
# and a malformed line next to it.
@example(
    cut_file=(
        [_GOOD, _V6, "", f"0,1,{_NOVEL},10.0.0.256,4000,80,TCP,1,60", _V6_EXPLODED, _GOOD],
        3,
    ),
    chunk_bytes=100,
)
def test_merged_halves_equal_one_read(
    cut_file: tuple[list[str], int], chunk_bytes: int
) -> None:
    """Two reads of a file cut at a line, merged with FlowBatch.extend,
    give the one-file read: the merge primitive of a partitioned read."""
    lines, cut = cut_file
    # The error budget is applied per read, and one half can exceed it
    # when the whole file does not, so it is lifted here.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        ingest, "CHUNK_BYTES", chunk_bytes
    ), mock.patch.object(ingest, "MAX_ERROR_RATIO", 1.0):
        whole, errors = _read_lenient(_write_lines(tmp, lines))
        head, head_errors = _read_lenient(_write_lines(tmp, lines[:cut]))
        tail, tail_errors = _read_lenient(_write_lines(tmp, lines[cut:]))
    head.extend(tail.columns(), {}, tail.ips.__getitem__)
    assert head.ips == whole.ips
    assert head.columns() == whole.columns()
    assert head_errors + tail_errors == errors
    assert (head.earliest_us, head.latest_us) == (whole.earliest_us, whole.latest_us)
    assert _bounds_hold(whole)


def _bounds_hold(batch: FlowBatch) -> bool:
    """The batch's kept bounds are those of its timestamp columns."""
    return (batch.earliest_us, batch.latest_us) == (
        min(batch.first_seen_us, default=math.inf),
        max(batch.last_seen_us, default=-math.inf),
    )


_spans = st.lists(st.tuples(st.integers(-(10**9), 10**9), st.integers(0, 10**9)), max_size=6)
# Rows that make extend reject its whole call: one that ends before it
# starts, and one whose start does not fit 64 bits.
_BAD_ROWS = [(5, 4, "a", "b", 1, 2, 6, 1, 60), (-(2**63) - 1, 0, "a", "b", 1, 2, 6, 1, 60)]


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(st.sampled_from(["append", "extend", "rejected"]), _spans), max_size=10
    ),
    st.sampled_from(_BAD_ROWS),
)
def test_bounds_follow_every_way_rows_enter(calls: list, bad_row: tuple) -> None:
    batch = FlowBatch()
    ids: dict = {}
    new = {"a": ip("10.0.0.1"), "b": ip("2001:db8::1")}
    for how, spans in calls:
        rows = [(first, first + span, "a", "b", 1, 2, 6, 1, 60) for first, span in spans]
        before = batch.earliest_us, batch.latest_us
        if how == "append":
            for first, span in spans:
                batch.append(mk_flow(first=first, last=first + span))
        elif how == "extend":
            batch.extend(tuple(zip(*rows)) or ((),) * 9, ids, new.__getitem__)
        else:
            with pytest.raises(ValueError):
                batch.extend(tuple(zip(*rows, bad_row)), ids, new.__getitem__)
            assert (batch.earliest_us, batch.latest_us) == before
        assert _bounds_hold(batch)


def test_reader_and_synth_batches_keep_their_bounds(tmp_path: Path) -> None:
    rows = [
        f"{first},{last},10.0.0.1,10.0.0.2,4000,80,TCP,1,60"
        for first, last in ((7, 7), (3, 12), (-5, 6), (9, 10))
    ]
    path = _write_lines(str(tmp_path), rows)
    with mock.patch.object(FlowFileReader, "_append_rows", side_effect=AssertionError):
        fast = FlowFileReader(path).read()
    with mock.patch.object(ingest, "_append_columns", return_value=False):
        fallback = FlowFileReader(path).read()
    for batch in (fast, fallback):
        assert (batch.earliest_us, batch.latest_us) == (-5, 12)
    spec = SynthSpec(
        trace=TraceSpec(start_us=10**9, slices=3), background=BackgroundSpec(hosts=8)
    )
    generated, _ = generate(spec, seed=4)
    assert generated.earliest_us >= 10**9
    assert _bounds_hold(generated)
    assert _bounds_hold(FlowBatch())


def test_two_spellings_share_one_id(tmp_path: Path) -> None:
    rows = [
        "0,1,2001:db8::1,10.0.0.1,4000,80,TCP,1,60",
        "0,1,2001:0DB8:0000:0000:0000:0000:0000:0001,10.0.0.1,4000,80,TCP,1,60",
    ]
    batch = FlowFileReader(_write_lines(str(tmp_path), rows)).read()
    assert batch.ips == [ip("2001:db8::1"), ip("10.0.0.1")]
    assert list(batch.src) == [0, 0]


@pytest.mark.parametrize("at, value", _WIDE_VALUES[:4])
def test_value_beyond_int64_is_a_malformed_row(tmp_path: Path, at: int, value: int) -> None:
    good = "0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1,60"
    fields = good.split(",")
    fields[at] = str(value)
    path = _write_lines(str(tmp_path), [good] * 10 + [",".join(fields)])
    reader = FlowFileReader(path)
    assert len(reader.read()) == 10
    assert (reader.errors, reader.skipped_lines) == (1, [12])
    with pytest.raises(FlowFileError, match=f"^{path}:12: .*64-bit"):
        FlowFileReader(path, strict=True).read()


@pytest.mark.parametrize("at", [0, 3, 5, 6, 8])
def test_non_utf8_byte_is_a_malformed_row(tmp_path: Path, at: int) -> None:
    # An address, a port, the protocol or a count holding a byte that is
    # not UTF-8, on line 12 of a file that spans several 100-byte chunks.
    rows = [f"{i},{i + 1},10.0.0.{i % 3 + 1},10.0.0.9,4000,80,TCP,1,60" for i in range(20)]
    fields = [field.encode() for field in rows[10].split(",")]
    fields[at] += b"\xff"
    lines = [FLOW_HEADER.encode(), *(row.encode() for row in rows)]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines[:11] + [b",".join(fields)] + lines[12:]) + b"\n")
    clean = _write_lines(str(tmp_path), rows[:10] + rows[11:])
    with mock.patch.object(ingest, "CHUNK_BYTES", 100), mock.patch.object(
        FlowFileReader, "_append_rows", autospec=True, side_effect=FlowFileReader._append_rows
    ) as row_loop:
        reader = FlowFileReader(bad)
        batch = reader.read()
        # Only the chunk holding the byte is parsed row by row.
        assert row_loop.call_count == 1
        expected = FlowFileReader(clean).read()
        assert row_loop.call_count == 1
        with pytest.raises(FlowFileError, match=f"^{bad}:12: "):
            FlowFileReader(bad, strict=True).read()
    assert list(batch) == list(expected)
    assert batch.ips == expected.ips
    assert (reader.rows, reader.errors, reader.skipped_lines) == (19, 1, [12])


def test_largest_int64_values_are_kept(tmp_path: Path) -> None:
    top = 2**63 - 1
    row = f"{-(2**63)},{top},10.0.0.1,10.0.0.2,1,2,TCP,{top},{top}"
    path = _write_lines(str(tmp_path), [row])
    (flow,) = FlowFileReader(path).read()
    assert (flow.first_seen_us, flow.last_seen_us) == (-(2**63), top)
    assert (flow.packet_count, flow.byte_count) == (top, top)


def test_flow_record_beyond_int64_rejected() -> None:
    with pytest.raises(ValueError, match="64-bit"):
        mk_flow(first=0, last=2**63)
    with pytest.raises(ValueError, match="64-bit"):
        mk_flow(size=2**63)


def test_universe_skips_addresses_of_skipped_rows(tmp_path: Path) -> None:
    good = "0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1,60"
    path = _write_lines(
        str(tmp_path),
        [good] * 20
        + [
            f"0,1,{_NOVEL},10.0.0.256,4000,80,TCP,1,60",
            f"0,{2**63},{_NOVEL},10.0.0.1,4000,80,TCP,1,60",
        ],
    )
    reader = FlowFileReader(path)
    batch = reader.read()
    assert reader.errors == 2
    assert trace_universe(batch) == {ip("10.0.0.1"), ip("10.0.0.2")}
    assert trace_universe(batch) == trace_universe(list(batch))


_HOSTS = [
    ip("10.0.0.1"),
    ip("10.0.0.2"),
    ip("10.0.0.3"),
    ip("10.0.0.4"),
    ip("10.0.1.1"),
    ip("2001:db8::1"),
    ip("2001:db8::2"),
    ip("2001:db8::3"),
]
_flows = st.lists(
    st.builds(
        lambda src, dst, dport, first: FlowRecord(src, dst, 40000, dport, 6, first, first),
        st.sampled_from(_HOSTS),
        st.sampled_from(_HOSTS),
        st.sampled_from([22, 80, 443, 3000, 8080]),
        st.integers(0, 3 * SLICE_US),
    ),
    max_size=60,
)
# The pool holds three IPv6 hosts in one subnet, so that a sender can reach
# netscan_min_hosts in either family.
_RULES = RuleConfig(netscan_min_hosts=3, portscan_min_ports=2, combined_min_hosts=3)


@settings(max_examples=40)
@given(_flows, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
# A net scan of the three IPv6 hosts alone.
@example(
    flows=[FlowRecord(_HOSTS[0], dst, 40000, 80, 6, 0, 0) for dst in _HOSTS[-3:]],
    threshold=1.0,
)
def test_batch_paths_match_oracles(flows: list[FlowRecord], threshold: float) -> None:
    slices = SliceConfig(trace_start_us=0, slice_seconds=30.0)
    cfg = DetectorConfig(slices=slices, threshold=threshold)
    expected = naive_verdicts(flows, 0, SLICE_US, threshold)
    ordered = sorted(flows, key=lambda f: f.first_seen_us)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_flow_file(path, ordered)
        read = FlowFileReader(path).read()
    for batch in (as_batch(flows), read):
        assert [verdict_as_row(v) for v in detect(batch, cfg)] == expected
        assert [verdict_as_row(v) for v in run_batch(batch, cfg)[0]] == expected
    streamed: list = []
    run_streaming(
        read, cfg, EngineConfig(watermark_lag_seconds=0.0), lambda i, v: streamed.extend(v)
    )
    assert [verdict_as_row(v) for v in streamed] == expected

    senders = {f.src for f in flows} | {ip("192.0.2.1")}  # one sends nothing
    for batch in (as_batch(flows), read):
        classified = classify_all(senders, batch, _RULES, slices)
        assert classified.keys() == senders
        for sender, result in classified.items():
            assert {label.value for label in result.labels} == brute_force_labels(
                sender, flows, 0, SLICE_US, netscan_min=3, portscan_min=2, combined_min=3
            )


# (source, destination, first_seen_us, arrival delay) over ten 2 s slices
_delayed_flows = st.lists(
    st.tuples(
        st.sampled_from(_HOSTS),
        st.sampled_from(_HOSTS),
        st.integers(0, 20 * S),
        st.integers(0, 20 * S),
    ),
    min_size=5,
    max_size=60,
)


@settings(max_examples=60)
@given(
    _delayed_flows,
    st.sampled_from([0.0, 1e-6, 2.0, 2.5, 5.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
# With a lag of one slice, a flow starting at the end of slice 0 plus the
# lag closes slice 0; the next flow starts 1 us before slice 1, so it is
# late, and the one after it starts at slice 1, so it is not.
@example(
    raw=[
        (_HOSTS[0], _HOSTS[1], 0, 0),
        (_HOSTS[0], _HOSTS[2], 4 * S, 0),
        (_HOSTS[0], _HOSTS[3], 2 * S - 1, 2 * S + 1),
        (_HOSTS[0], _HOSTS[4], 2 * S, 2 * S + 1),
    ],
    lag_s=2.0,
    threshold=0.5,
)
def test_stream_matches_watermark_oracle(raw: list, lag_s: float, threshold: float) -> None:
    # A flow arrives up to 20 s after it starts, so flows are out of
    # order by more than the lag, and some are late, at every lag.
    arrival = [
        FlowRecord(src, dst, 40000, 80, 6, first, first)
        for src, dst, first, _ in sorted(raw, key=lambda r: r[2] + r[3])
    ]
    slices = SliceConfig(trace_start_us=0, slice_seconds=2.0)
    cfg = DetectorConfig(slices=slices, threshold=threshold)
    expected, late = naive_stream(arrival, 0, 2 * S, round(lag_s * S), threshold)
    for flows in (as_batch(arrival), iter(arrival)):
        emissions: list = []
        stats = run_streaming(
            flows,
            cfg,
            EngineConfig(watermark_lag_seconds=lag_s),
            lambda index, verdicts: emissions.append((index, list(map(verdict_as_row, verdicts)))),
        )
        assert emissions == expected
        assert (stats.late_dropped, stats.records_in) == (late, len(arrival))
