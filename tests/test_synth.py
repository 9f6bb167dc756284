from __future__ import annotations

import dataclasses
import hashlib
from ipaddress import ip_network
from xml.sax.saxutils import quoteattr as saxutils_quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscan.core import ConfigError, PROTO_TCP, SliceConfig
from flowscan.detector import DetectorConfig, anomalous_ips, detect
from flowscan.ingest import (
    Category,
    FLOW_HEADER,
    SourceFile,
    read_flow_file,
    read_ground_truth,
)
from flowscan.synth import (
    BackgroundSpec,
    DecoySpec,
    ScannerSpec,
    SynthSpec,
    TraceSpec,
    generate,
    load_spec,
    quoteattr,
    render_ground_truth_xml,
    write_outputs,
)

from helpers import ip

SPEC_TEXT = """\
[trace]
slices = 4
slice_seconds = 30

[background]
hosts = 40
flows_per_host_per_slice = 2

[scanner:alpha]
kind = netscan
ip = 192.0.2.10
flows_per_slice = 150
target_subnet = 10.99.0.0/24
port = 22

[scanner:beta]
kind = portscan
ip = 192.0.2.20
flows_per_slice = 60
target = 10.0.0.1
port_start = 1000
labeled = no

[decoy:dos]
label = dosAttack
src_ip = 10.0.0.5
category = notice
file = notice
"""


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "trace.ini"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    return load_spec(path)


def test_load_spec_fields(spec: SynthSpec) -> None:
    assert spec.trace == TraceSpec(start_us=0, slice_seconds=30.0, slices=4)
    assert spec.background == BackgroundSpec(
        hosts=40, flows_per_host_per_slice=2, subnet=spec.background.subnet
    )
    alpha, beta = spec.scanners
    assert alpha.kind == "netscan"
    assert alpha.ip == ip("192.0.2.10")
    assert alpha.port == 22
    assert alpha.labeled
    assert alpha.taxonomy_label() == "ntscSYN"
    assert beta.kind == "portscan"
    assert beta.target == ip("10.0.0.1")
    assert not beta.labeled
    (decoy,) = spec.decoys
    assert decoy.category is Category.NOTICE
    assert decoy.file is SourceFile.NOTICE
    assert decoy.src_ip == ip("10.0.0.5")


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("[bogus]\nx = 1\n", "unknown section"),
        ("[trace]\nslices = 0\n", "trace.slices"),
        (
            "[trace]\nslice_seconds = 0\n",
            "trace.slice_seconds must be finite and >= 1e-06, got 0.0",
        ),
        ("[scanner:x]\nkind = dos\nip = 192.0.2.1\n", "kind"),
        (
            "[scanner:x]\nkind = netscan\nip = 10.0.0.1\ntarget_subnet = 10.99.0.0/24\n"
            "[background]\nhosts = 10\n",
            "collides",
        ),
        (
            "[scanner:x]\nkind = netscan\nip = 192.0.2.1\ntarget_subnet = 10.99.0.0/24\n"
            "[scanner:y]\nkind = netscan\nip = 192.0.2.1\ntarget_subnet = 10.98.0.0/24\n",
            "duplicate scanner ip",
        ),
        ("[background]\nhosts = 300\nsubnet = 10.0.0.0/24\n", "does not fit"),
        ("[decoy:d]\nlabel = dosAttack\n", "src_ip or dst_ip"),
        ("not an ini file", "File contains no section headers"),
        ("[trace]\nslice_secs = 10\n", "unknown spec key trace.slice_secs"),
        (
            "[background]\nflow_per_host_per_slice = 3\n",
            "unknown spec key background.flow_per_host_per_slice",
        ),
        (
            "[scanner:x]\nkind = netscan\nip = 192.0.2.1\ntarget_subnet = 10.99.0.0/24\n"
            "flows_per_slise = 5\n",
            "unknown spec key scanner:x.flows_per_slise",
        ),
        (
            "[scanner:x]\nkind = portscan\nip = 192.0.2.1\ntarget = 10.0.0.1\n"
            "labelled = no\n",
            "unknown spec key scanner:x.labelled",
        ),
        (
            "[decoy:d]\nlabel = dosAttack\nsrc = 10.0.0.5\n",
            "unknown spec key decoy:d.src",
        ),
        (
            "[scanner:x]\nkind = netscan\nip = 192.0.2.1\ntarget_subnet = 10.99.0.0/24\n"
            "port = 70000\n",
            "scanner:x.port must be in 0-65535, got 70000",
        ),
        (
            "[scanner:x]\nkind = netscan\nip = 192.0.2.1\ntarget_subnet = 10.99.0.0/24\n"
            "port = -1\n",
            "scanner:x.port must be in 0-65535, got -1",
        ),
        (
            "[scanner:x]\nkind = netscan\nip = 192.0.2.1\n",
            "scanner:x.target_subnet is required",
        ),
        (
            "[scanner:x]\nkind = portscan\nip = 192.0.2.1\n",
            "scanner:x.target is required",
        ),
        ("[scanner:x]\nkind = netscan\n", "scanner:x.ip is required"),
        (
            "[scanner:x]\nkind = portscan\nip = 192.0.2.1\ntarget = 10.0.0.1\n"
            "labeled = maybe\n",
            "scanner:x.labeled: not a boolean",
        ),
    ],
)
def test_load_spec_rejects_bad_input(tmp_path, mutation: str, message: str) -> None:
    path = tmp_path / "bad.ini"
    path.write_text(mutation, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_spec(path)


NETSCAN = ScannerSpec(name="x", ip=ip("192.0.2.1"), target_subnet=ip_network("10.99.0.0/24"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TraceSpec(slices=0), "slices must be >= 1, got 0"),
        (
            lambda: TraceSpec(slice_seconds=0),
            "slice_seconds must be finite and >= 1e-06, got 0",
        ),
        (
            lambda: BackgroundSpec(hosts=300, subnet=ip_network("10.0.0.0/24")),
            "hosts 300 does not fit in 10.0.0.0/24",
        ),
        (
            lambda: ScannerSpec(name="x", ip=ip("192.0.2.1")),
            "target_subnet is required",
        ),
        (
            lambda: dataclasses.replace(NETSCAN, port=70000),
            "port must be in 0-65535, got 70000",
        ),
        (
            lambda: dataclasses.replace(NETSCAN, flows_per_slice=0),
            "flows_per_slice must be >= 1, got 0",
        ),
        (
            lambda: dataclasses.replace(NETSCAN, kind="dos"),
            "kind must be netscan or portscan, got 'dos'",
        ),
        (lambda: DecoySpec(name="d"), "src_ip or dst_ip is required"),
        (
            lambda: SynthSpec(scanners=(NETSCAN, dataclasses.replace(NETSCAN, name="y"))),
            "duplicate scanner ip 192.0.2.1",
        ),
    ],
    ids=[
        "trace-slices",
        "trace-slice_seconds",
        "background-hosts",
        "scanner-target_subnet",
        "scanner-port",
        "scanner-flows_per_slice",
        "scanner-kind",
        "decoy-ips",
        "synth-duplicate-ip",
    ],
)
def test_spec_built_in_code_checks_itself(build, message: str) -> None:
    # The same rule and wording as load_spec, which puts `section.` first.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# sha256 of the files write_outputs writes for SPEC_TEXT at seed 5: any
# change to the trace or ground-truth bytes shows here.
SYNTH_GOLDEN = {
    "g.flows.csv": "8582f702c5184ab4e279e84987a752c57f27381ec21c772134f34ef555a9d299",
    "g.anomalous.xml": "24742dc5ed2cca2e1cb840aab8d382741a2c4e593dd6bd46d61adc40ede86ba3",
    "g.notice.xml": "1007ba078efa077a182eb64cd8fc9946bfbf33133c92a2861ebe66d3316b98ab",
}


def test_write_outputs_match_golden(tmp_path, spec: SynthSpec) -> None:
    outputs = write_outputs(spec, seed=5, out_base=tmp_path / "g")
    paths = (outputs.flow_path, outputs.anomalous_path, outputs.notice_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == SYNTH_GOLDEN


# A spec that forces the sort's ties and edges: 1 us slices make every
# flow of a slice share first_seen_us, an IPv6 ring, a netscan of more
# flows than its /30 has hosts, and a portscan wrapping past 65535.
EDGE_SPEC_TEXT = """\
[trace]
slices = 3
slice_seconds = 0.000001
start_us = 7

[background]
subnet = 2001:db8::/64
hosts = 30
flows_per_host_per_slice = 3

[scanner:net]
kind = netscan
ip = 192.0.2.1
target_subnet = 172.16.0.0/30
flows_per_slice = 9
port = 443

[scanner:port]
kind = portscan
ip = 2001:db8:1::1
target = 2001:db8::5
port_start = 65533
flows_per_slice = 6
"""

# sha256 of the files write_outputs writes for EDGE_SPEC_TEXT at seed 2
# (315 flows).
EDGE_GOLDEN = {
    "e.flows.csv": "bc47351959d14aca3276c4fd87731f4f5a89cd963dd813b829ac47f32da9026e",
    "e.anomalous.xml": "5a077d1613a5e13a9c67c7e82e1aae857d7612ba371771b1734723d063bb5ec1",
    "e.notice.xml": "83f8672697d55cc2db73407a4e81f1daeac078e2cb0ad369e6e7f88c3437f2b2",
}


@pytest.fixture
def edge_spec(tmp_path):
    path = tmp_path / "edge.ini"
    path.write_text(EDGE_SPEC_TEXT, encoding="utf-8")
    return load_spec(path)


def test_write_outputs_match_edge_golden(tmp_path, edge_spec: SynthSpec) -> None:
    outputs = write_outputs(edge_spec, seed=2, out_base=tmp_path / "e")
    assert outputs.flow_count == 315
    paths = (outputs.flow_path, outputs.anomalous_path, outputs.notice_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == EDGE_GOLDEN


def test_generate_is_deterministic(spec: SynthSpec) -> None:
    # generate returns a FlowBatch, which compares by identity: compare rows.
    first_flows, first_gt = generate(spec, seed=7)
    second_flows, second_gt = generate(spec, seed=7)
    assert list(first_flows) == list(second_flows)
    assert first_gt == second_gt
    other_flows, _ = generate(spec, seed=8)
    assert list(other_flows) != list(first_flows)


def test_generate_counts(spec: SynthSpec) -> None:
    flows, _ = generate(spec, seed=0)
    # 40 hosts x 2 flows x 4 slices + (150 + 60) scanner flows x 4 slices
    assert len(flows) == 40 * 2 * 4 + 210 * 4


def test_generate_flows_are_stream_ordered(spec: SynthSpec) -> None:
    flows, _ = generate(spec, seed=3)
    starts = [f.first_seen_us for f in flows]
    assert starts == sorted(starts)


def test_background_ring_is_balanced() -> None:
    spec = SynthSpec(
        trace=TraceSpec(slices=3),
        background=BackgroundSpec(hosts=12, flows_per_host_per_slice=3),
    )
    flows, gt = generate(spec, seed=1)
    assert len(flows) == 12 * 3 * 3
    assert gt.entries == []
    gen: dict = {}
    recv: dict = {}
    for flow in flows:
        gen[flow.src] = gen.get(flow.src, 0) + 1
        recv[flow.dst] = recv.get(flow.dst, 0) + 1
        assert flow.dst_port == 80
        assert flow.protocol == PROTO_TCP
        assert 1024 <= flow.src_port < 65536
    assert set(gen.values()) == {9}
    assert gen == recv
    cfg = DetectorConfig(slices=SliceConfig(trace_start_us=0), threshold=50)
    assert detect(flows, cfg) == []


def test_scanner_traffic_shape(spec: SynthSpec) -> None:
    flows, _ = generate(spec, seed=0)
    alpha = [f for f in flows if f.src == ip("192.0.2.10")]
    assert len(alpha) == 150 * 4
    assert all(f.dst_port == 22 for f in alpha)
    assert all(f.dst in spec.scanners[0].target_subnet for f in alpha)
    assert not any(f.dst == ip("192.0.2.10") for f in flows)  # nothing inbound

    beta = [f for f in flows if f.src == ip("192.0.2.20")]
    assert len(beta) == 60 * 4
    assert {f.dst for f in beta} == {ip("10.0.0.1")}
    assert {f.dst_port for f in beta} == set(range(1000, 1060))


def test_scanners_trip_the_detector(spec: SynthSpec) -> None:
    flows, _ = generate(spec, seed=0)
    cfg = DetectorConfig(slices=SliceConfig(trace_start_us=0), threshold=50)
    flagged = {addr for addr, _ in anomalous_ips(detect(flows, cfg))}
    # ring hosts balance out, victims absorb too little per slice to trip
    assert flagged == {ip("192.0.2.10"), ip("192.0.2.20")}


def test_ground_truth_entries(spec: SynthSpec) -> None:
    _, gt = generate(spec, seed=0)
    labels = [e.taxonomy_label for e in gt.entries]
    assert labels == ["ntscSYN", "dosAttack"]  # beta is unlabeled
    scan_entry = gt.entries[0]
    assert scan_entry.src_ips == frozenset({ip("192.0.2.10")})
    assert scan_entry.category is Category.ANOMALOUS
    assert scan_entry.source_file is SourceFile.ANOMALOUS
    decoy_entry = gt.entries[1]
    assert decoy_entry.source_file is SourceFile.NOTICE
    assert decoy_entry.category is Category.NOTICE


def test_xml_render_includes_manifest_comment() -> None:
    spec = SynthSpec(decoys=(DecoySpec(name="d", label="x", src_ip=ip("10.0.0.1")),))
    _, gt = generate(spec)
    text = render_ground_truth_xml(gt, SourceFile.ANOMALOUS, manifest_name="m.json")
    assert "<!-- manifest=m.json -->" in text
    assert 'value="x"' in text


def test_write_outputs_round_trip(tmp_path, spec: SynthSpec) -> None:
    outputs = write_outputs(spec, seed=5, out_base=tmp_path / "t")
    assert outputs.flow_path.name == "t.flows.csv"
    assert outputs.anomalous_path.name == "t.anomalous.xml"
    assert outputs.notice_path.name == "t.notice.xml"

    header = outputs.flow_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == FLOW_HEADER

    flows, _ = generate(spec, seed=5)
    read_back = list(read_flow_file(outputs.flow_path))
    assert read_back == list(flows)
    assert outputs.flow_count == len(flows)

    gt = read_ground_truth(outputs.anomalous_path, outputs.notice_path, strict=True)
    _, expected = generate(spec, seed=5)
    assert list(gt.entries) == list(expected.entries)


BATCH_COLUMNS = (
    "src", "dst", "src_port", "dst_port", "protocol",
    "first_seen_us", "last_seen_us", "packet_count", "byte_count",
)


@pytest.mark.parametrize("fixture", ["spec", "edge_spec"])
def test_read_back_batch_equals_generated_batch(tmp_path, request, fixture) -> None:
    spec = request.getfixturevalue(fixture)
    generated, _ = generate(spec, seed=2)
    outputs = write_outputs(spec, seed=2, out_base=tmp_path / "r")
    read_back = read_flow_file(outputs.flow_path).read()
    # the reader interns addresses in file order, as generate does
    assert read_back.ips == generated.ips
    for column in BATCH_COLUMNS:
        assert getattr(read_back, column) == getattr(generated, column), column


def test_write_outputs_byte_identical_across_runs(tmp_path, spec: SynthSpec) -> None:
    a = write_outputs(spec, seed=11, out_base=tmp_path / "a")
    b = write_outputs(spec, seed=11, out_base=tmp_path / "b")
    assert a.flow_path.read_bytes() == b.flow_path.read_bytes()
    assert a.anomalous_path.read_bytes() == b.anomalous_path.read_bytes()
    assert a.notice_path.read_bytes() == b.notice_path.read_bytes()


def test_empty_spec_still_writes_valid_files(tmp_path) -> None:
    outputs = write_outputs(SynthSpec(), seed=0, out_base=tmp_path / "empty")
    assert outputs.flow_count == 0
    assert outputs.flow_path.read_text(encoding="utf-8") == FLOW_HEADER + "\n"
    gt = read_ground_truth(outputs.anomalous_path, outputs.notice_path)
    assert gt.entries == []


def test_portscan_port_wraparound() -> None:
    scanner = ScannerSpec(
        name="w",
        kind="portscan",
        ip=ip("192.0.2.1"),
        flows_per_slice=4,
        target=ip("10.0.0.1"),
        port_start=65534,
    )
    spec = SynthSpec(trace=TraceSpec(slices=1), scanners=(scanner,))
    flows, _ = generate(spec, seed=0)
    assert sorted(f.dst_port for f in flows) == [1, 2, 65534, 65535]


@settings(max_examples=500)
@given(st.text(alphabet="&<>\"'\n\r\t é", max_size=20) | st.text(max_size=20))
def test_quoteattr_matches_saxutils(text: str) -> None:
    """synth's own quoteattr writes what xml.sax.saxutils.quoteattr does."""
    assert quoteattr(text) == saxutils_quoteattr(text)
