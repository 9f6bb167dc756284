from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowscan import ingest
from flowscan.core import FlowBatch, FlowRecord, as_batch
from flowscan.ingest import (
    FLOW_HEADER,
    Category,
    FlowFileError,
    GroundTruthError,
    SourceFile,
    parse_ground_truth,
    read_flow_file,
    read_ground_truth,
    write_flow_file,
)

from helpers import ip

FIXTURE = """\
first_seen_us,last_seen_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes
1000000,2000000,10.0.0.1,10.0.0.2,40000,80,TCP,3,1800
2500000,2500000,10.0.0.2,10.0.0.1,80,40000,6,1,60
3000000,4000000,2001:db8::1,10.0.0.3,5353,53,UDP,2,240
"""


def _write(tmp_path: Path, text: str, name: str = "flows.csv") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_file_with_header(tmp_path: Path) -> None:
    path = _write(tmp_path, FLOW_HEADER + "\n")
    reader = read_flow_file(path)
    assert list(reader) == []
    assert reader.errors == 0


def test_three_line_fixture_field_by_field(tmp_path: Path) -> None:
    path = _write(tmp_path, FIXTURE)
    flows = list(read_flow_file(path))
    assert len(flows) == 3
    first = flows[0]
    assert first.src == ip("10.0.0.1")
    assert first.dst == ip("10.0.0.2")
    assert first.src_port == 40000
    assert first.dst_port == 80
    assert first.protocol == 6
    assert first.first_seen_us == 1_000_000
    assert first.last_seen_us == 2_000_000
    assert first.packet_count == 3
    assert first.byte_count == 1800
    # decimal protocol spelled as a number reads the same as TCP
    assert flows[1].protocol == 6
    assert flows[2].src == ip("2001:db8::1")
    assert flows[2].protocol == 17


def test_out_of_range_port_skipped_and_counted(tmp_path: Path) -> None:
    bad = FLOW_HEADER + "\n" + "0,1,10.0.0.1,10.0.0.2,70000,80,TCP,1,60\n"
    good = "0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1,60\n"
    path = _write(tmp_path, bad + good * 20)
    reader = read_flow_file(path)
    assert len(list(reader)) == 20
    assert reader.errors == 1


def test_strict_mode_aborts_on_first_malformed_line(tmp_path: Path) -> None:
    path = _write(tmp_path, FLOW_HEADER + "\n0,1,10.0.0.1,10.0.0.2,70000,80,TCP,1,60\n")
    with pytest.raises(FlowFileError, match=":2:"):
        list(read_flow_file(path, strict=True))


def test_header_mismatch(tmp_path: Path) -> None:
    path = _write(tmp_path, "time,src,dst\n")
    with pytest.raises(FlowFileError, match="header"):
        list(read_flow_file(path))


def test_missing_file_raises_oserror(tmp_path: Path) -> None:
    with pytest.raises(OSError):
        list(read_flow_file(tmp_path / "nope.csv"))


def test_error_ratio_guard_in_lenient_mode(tmp_path: Path) -> None:
    lines = [FLOW_HEADER]
    lines += ["garbage"] * 3
    lines += ["0,1,10.0.0.1,10.0.0.2,4000,80,TCP,1,60"] * 5
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(FlowFileError, match="malformed"):
        list(read_flow_file(path))


def test_reader_extends_each_block_once_when_every_block_names_a_new_address(
    tmp_path: Path,
) -> None:
    """A block whose names the batch lacks still takes one extend call: the
    call parses the new names itself, and the block is not appended twice."""
    lines = [f"{i},{i},10.0.0.{i},10.0.1.{i},4000,80,TCP,1,60\n" for i in range(10, 30)]
    path = _write(tmp_path, FLOW_HEADER + "\n" + "".join(lines))
    blocks = []
    ingest_blocks = ingest._blocks

    def counted(fh):
        for block in ingest_blocks(fh):
            blocks.append(block)
            yield block

    # Every line has the same length, so each block is one line.
    with mock.patch.object(ingest, "CHUNK_BYTES", len(lines[0])), mock.patch.object(
        ingest, "_blocks", counted
    ), mock.patch.object(
        FlowBatch, "extend", autospec=True, side_effect=FlowBatch.extend
    ) as extend:
        batch = read_flow_file(path).read(lean=True)
    assert blocks == lines
    assert extend.call_count == len(blocks)
    assert len(batch) == len(lines) and len(batch.ips) == 2 * len(lines)


def test_round_trip_is_bit_identical(tmp_path: Path) -> None:
    src = _write(tmp_path, FIXTURE)
    flows = list(read_flow_file(src))
    out = tmp_path / "copy.csv"
    write_flow_file(out, flows)
    # the fixture spells TCP as 6; the writer spells it TCP
    assert out.read_text(encoding="utf-8") == FIXTURE.replace(",6,", ",TCP,")
    assert list(read_flow_file(out)) == flows


def test_writer_same_bytes_for_records_and_batch(tmp_path: Path) -> None:
    flows = [
        FlowRecord(ip("2001:db8::1"), ip("10.0.0.3"), 5353, 53, 17, 3, 4, 2, 240),
        FlowRecord(ip("10.0.0.3"), ip("2001:db8::1"), 0, 0, 1, -5, -5, 1, 0),
        FlowRecord(ip("10.0.0.1"), ip("10.0.0.3"), 40000, 80, 6, 1, 2, 3, 1800),
    ]
    records, batch = tmp_path / "records.csv", tmp_path / "batch.csv"
    assert write_flow_file(records, flows) == 3
    assert write_flow_file(batch, as_batch(flows)) == 3
    assert records.read_bytes() == batch.read_bytes()
    assert records.read_text(encoding="utf-8").splitlines()[1:] == [
        "3,4,2001:db8::1,10.0.0.3,5353,53,UDP,2,240",
        "-5,-5,10.0.0.3,2001:db8::1,0,0,1,1,0",
        "1,2,10.0.0.1,10.0.0.3,40000,80,TCP,3,1800",
    ]


_flow_strategy = st.builds(
    FlowRecord,
    src=st.ip_addresses(),
    dst=st.ip_addresses(),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    protocol=st.integers(0, 255),
    first_seen_us=st.integers(0, 10**9),
    last_seen_us=st.integers(10**9, 10**10),
    packet_count=st.integers(1, 100),
    byte_count=st.integers(0, 10**6),
)


@given(st.lists(_flow_strategy, max_size=30))
def test_write_read_round_trip_property(flows: list[FlowRecord]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_flow_file(path, flows)
        first_pass = path.read_bytes()
        back = list(read_flow_file(path))
        write_flow_file(path, back)
        assert back == flows
        assert path.read_bytes() == first_pass


ANOMALOUS_XML = """\
<?xml version="1.0" encoding="UTF-8"?>
<admd:data xmlns:admd="http://example.invalid/admd" type="mawi">
  <anomaly type="anomalous" value="ntscACK">
    <filter>
      <filter_details src_ip="192.0.2.7" extra="ignored"/>
    </filter>
  </anomaly>
  <anomaly type="suspicious" value="ptscSYN">
    <filter_details src_ip="192.0.2.8" src_port="1234"/>
    <filter_details src_ip="192.0.2.9"/>
    <filter_details dst_ip="198.51.100.1" dst_port="80"/>
  </anomaly>
</admd:data>
"""

NOTICE_XML = """\
<?xml version="1.0" encoding="UTF-8"?>
<data>
  <anomaly type="notice" value="dosAttack">
    <filter_details dst_ip="203.0.113.5"/>
  </anomaly>
  <anomaly type="benign" value="heavyHitter">
    <filter_details src_ip="203.0.113.6"/>
  </anomaly>
</data>
"""


def test_zero_anomalies_parse_to_empty_set(tmp_path: Path) -> None:
    path = _write(tmp_path, '<?xml version="1.0"?><data></data>', "empty.xml")
    assert parse_ground_truth(path, SourceFile.ANOMALOUS).entries == []


def test_single_anomaly_entry(tmp_path: Path) -> None:
    path = _write(tmp_path, ANOMALOUS_XML, "anomalous.xml")
    entries = parse_ground_truth(path, SourceFile.ANOMALOUS).entries
    assert len(entries) == 2
    first = entries[0]
    assert first.category is Category.ANOMALOUS
    assert first.taxonomy_label == "ntscACK"
    assert first.src_ips == frozenset({ip("192.0.2.7")})
    assert first.dst_ips == frozenset()
    assert first.source_file is SourceFile.ANOMALOUS


def test_multi_ip_entry_ip_set(tmp_path: Path) -> None:
    path = _write(tmp_path, ANOMALOUS_XML, "anomalous.xml")
    entries = parse_ground_truth(path, SourceFile.ANOMALOUS).entries
    entry = entries[1]
    assert entry.ip_set() == {
        ip("192.0.2.8"),
        ip("192.0.2.9"),
        ip("198.51.100.1"),
    }
    # port filters are captured but play no further role
    assert entry.src_ports == frozenset({1234})
    assert entry.dst_ports == frozenset({80})


def test_both_files_combine_with_source_tags(tmp_path: Path) -> None:
    anomalous = _write(tmp_path, ANOMALOUS_XML, "anomalous.xml")
    notice = _write(tmp_path, NOTICE_XML, "notice.xml")
    gt = read_ground_truth(anomalous, notice)
    assert len(gt.entries) == 4
    notice_ips = set().union(
        *(e.ip_set() for e in gt.entries if e.source_file is SourceFile.NOTICE)
    )
    assert notice_ips == {ip("203.0.113.5"), ip("203.0.113.6")}
    benign_ips = set().union(
        *(e.ip_set() for e in gt.entries if e.category is Category.BENIGN)
    )
    assert benign_ips == {ip("203.0.113.6")}
    assert len(set().union(*(e.ip_set() for e in gt.entries))) == 6


def test_unknown_category_lenient_vs_strict(tmp_path: Path) -> None:
    xml = """<?xml version="1.0"?>
    <data>
      <anomaly type="weird" value="x"><f src_ip="10.0.0.1"/></anomaly>
      <anomaly type="notice" value="ok"><f src_ip="10.0.0.2"/></anomaly>
    </data>
    """
    path = _write(tmp_path, xml, "odd.xml")
    entries = parse_ground_truth(path, SourceFile.NOTICE).entries
    assert len(entries) == 1
    assert entries[0].taxonomy_label == "ok"
    with pytest.raises(GroundTruthError, match="weird"):
        parse_ground_truth(path, SourceFile.NOTICE, strict=True)


def test_entry_without_ips_dropped(tmp_path: Path) -> None:
    xml = '<?xml version="1.0"?><data><anomaly type="notice" value="x"/></data>'
    path = _write(tmp_path, xml, "noip.xml")
    assert parse_ground_truth(path, SourceFile.NOTICE).entries == []
    with pytest.raises(GroundTruthError, match="without any IP"):
        parse_ground_truth(path, SourceFile.NOTICE, strict=True)


def test_unparseable_xml(tmp_path: Path) -> None:
    path = _write(tmp_path, "<data><anomaly", "broken.xml")
    with pytest.raises(GroundTruthError, match="XML"):
        parse_ground_truth(path, SourceFile.ANOMALOUS)
