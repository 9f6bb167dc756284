"""Acceptance checks, one test per criterion.

Each test prints a single `[acceptance] C<n> <name>: PASS|FAIL` line on
the real stdout so the outcome survives pytest's capture. The parallel
speedup clause in C6 needs at least two physical cores; on a single-CPU
host it fails while the determinism clause still holds.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from ipaddress import ip_network
from pathlib import Path

import pytest

from flowscan.cli import main
from flowscan.core import SliceConfig, as_batch
from flowscan.detector import DetectorConfig, anomalous_ips, detect
from flowscan.engine import EngineConfig, run_batch, run_streaming
from flowscan.evaluation import (
    ConfusionMatrix,
    EvalCase,
    evaluate_case,
    filter_scan_labels,
    precision_recall,
    trace_universe,
)
from flowscan.ingest import (
    Category,
    GroundTruthEntry,
    SourceFile,
    read_flow_file,
    read_ground_truth,
)
from flowscan.rules import RuleConfig, classify_all
from flowscan.synth import (
    BackgroundSpec,
    DecoySpec,
    KIND_NETSCAN,
    KIND_PORTSCAN,
    ScannerSpec,
    SynthSpec,
    TraceSpec,
    generate,
)

from helpers import ip, random_flows
from oracles import naive_verdicts, render_rows, verdict_as_row

S = 1_000_000
SLICE_US = 30 * S


@pytest.fixture
def crit(capsys):
    """Context manager factory printing the criterion outcome past
    pytest's capture, so the line lands in plain `pytest -v` output.
    Yields an emit() for extra detail lines."""

    @contextmanager
    def _criterion(tag: str):
        def emit(line: str) -> None:
            with capsys.disabled():
                sys.stdout.write("\n" + line + "\n")
                sys.stdout.flush()

        try:
            yield emit
        except BaseException:
            emit(f"[acceptance] {tag}: FAIL")
            raise
        emit(f"[acceptance] {tag}: PASS")

    return _criterion


def _slices(start_us: int = 0) -> SliceConfig:
    return SliceConfig(trace_start_us=start_us, slice_seconds=30.0)


def _rendered(flows, cfg: DetectorConfig, engine: EngineConfig = EngineConfig()) -> bytes:
    verdicts, _ = run_batch(flows, cfg, engine)
    return render_rows([verdict_as_row(v) for v in verdicts])


def test_c1_oracle_equivalence(crit) -> None:
    with crit("C1 oracle equivalence"):
        rng = random.Random(0xC1)
        started = time.perf_counter()
        for _ in range(100):
            start_us = rng.choice((0, 7 * S, 3600 * S))
            flows = random_flows(
                rng,
                rng.randrange(200, 10_001),
                host_count=rng.randrange(10, 60),
                slice_count=rng.randrange(1, 8),
                start_us=start_us,
                scanners=rng.randrange(3),
            )
            threshold = rng.choice((50.0, 100.0, 200.0))
            cfg = DetectorConfig(slices=_slices(start_us), threshold=threshold)
            mine = render_rows([verdict_as_row(v) for v in detect(flows, cfg)])
            reference = render_rows(
                naive_verdicts(flows, start_us, SLICE_US, threshold)
            )
            assert mine == reference
        assert time.perf_counter() - started < 60.0


C2_SPEC = """\
[trace]
slices = 4
slice_seconds = 30

[background]
hosts = 200
flows_per_host_per_slice = 2
subnet = 10.0.0.0/16

[scanner:s1]
kind = netscan
ip = 198.51.100.1
flows_per_slice = 150
target_subnet = 10.101.0.0/24

[scanner:s2]
kind = netscan
ip = 198.51.100.2
flows_per_slice = 130
target_subnet = 10.102.0.0/24

[scanner:s3]
kind = netscan
ip = 198.51.100.3
flows_per_slice = 200
target_subnet = 10.103.0.0/24
"""

C2_SCANNERS = {ip("198.51.100.1"), ip("198.51.100.2"), ip("198.51.100.3")}


def _c2_trace(tmp_path: Path) -> tuple[list, object]:
    spec_path = tmp_path / "c2.ini"
    spec_path.write_text(C2_SPEC, encoding="utf-8")
    base = tmp_path / "c2"
    assert main(["synth", str(spec_path), "-o", str(base), "--seed", "0"]) == 0
    flows = list(read_flow_file(base.with_name("c2.flows.csv")))
    gt = read_ground_truth(
        base.with_name("c2.anomalous.xml"), base.with_name("c2.notice.xml")
    )
    return flows, gt


def test_c2_planted_scan_recovery(tmp_path, crit) -> None:
    with crit("C2 planted scan recovery"):
        started = time.perf_counter()
        flows, gt = _c2_trace(tmp_path)
        for threshold in (50.0, 100.0):
            cfg = DetectorConfig(slices=_slices(), threshold=threshold)
            flagged = {addr for addr, _ in anomalous_ips(detect(flows, cfg))}
            assert flagged == C2_SCANNERS
            result = evaluate_case(
                EvalCase.FILTERED, flagged, gt, trace_universe(flows)
            )
            assert result.score.recall == 1.0
            assert result.score.precision == 1.0
        assert time.perf_counter() - started < 10.0


def test_c3_threshold_monotonicity(tmp_path, crit) -> None:
    with crit("C3 threshold monotonicity"):
        started = time.perf_counter()
        rng = random.Random(0xC3)
        fixtures = [_c2_trace(tmp_path)[0]]
        for _ in range(20):
            fixtures.append(
                random_flows(
                    rng,
                    rng.randrange(500, 4000),
                    host_count=rng.randrange(10, 50),
                    slice_count=rng.randrange(1, 6),
                    scanners=rng.randrange(3),
                )
            )
        for flows in fixtures:
            flagged = {}
            for threshold in (50.0, 100.0, 200.0):
                cfg = DetectorConfig(slices=_slices(), threshold=threshold)
                flagged[threshold] = {
                    (v.key.ip, v.key.slice_index, v.direction)
                    for v in detect(flows, cfg)
                }
            assert flagged[200.0] <= flagged[100.0] <= flagged[50.0]
        assert time.perf_counter() - started < 10.0


def _c4_spec(unlabeled: int, with_decoy: bool) -> SynthSpec:
    scanners = [
        ScannerSpec(
            name="lab",
            kind=KIND_NETSCAN,
            ip=ip("198.51.100.1"),
            flows_per_slice=140,
            target_subnet=ip_network("10.50.0.0/24"),
        )
    ]
    for j in range(unlabeled):
        if j % 2 == 0:
            scanners.append(
                ScannerSpec(
                    name=f"u{j}",
                    kind=KIND_NETSCAN,
                    ip=ip(f"198.51.100.{10 + j}"),
                    flows_per_slice=130 + 10 * j,
                    target_subnet=ip_network(f"10.{60 + j}.0.0/24"),
                    labeled=False,
                )
            )
        else:
            scanners.append(
                ScannerSpec(
                    name=f"u{j}",
                    kind=KIND_PORTSCAN,
                    ip=ip(f"198.51.100.{10 + j}"),
                    flows_per_slice=130,
                    target=ip(f"10.0.0.{j}"),
                    labeled=False,
                )
            )
    decoys = (
        (DecoySpec(name="dos", label="dosAttack", src_ip=ip("10.0.0.7")),)
        if with_decoy
        else ()
    )
    return SynthSpec(
        trace=TraceSpec(slices=3),
        background=BackgroundSpec(hosts=80),
        scanners=tuple(scanners),
        decoys=decoys,
    )


def test_c4_case3_improvement(crit) -> None:
    with crit("C4 case-3 improvement"):
        started = time.perf_counter()
        fixtures = [
            _c4_spec(unlabeled=1, with_decoy=False),
            _c4_spec(unlabeled=2, with_decoy=False),
            _c4_spec(unlabeled=2, with_decoy=True),
            _c4_spec(unlabeled=3, with_decoy=True),
        ]
        for seed, spec in enumerate(fixtures):
            flows, gt = generate(spec, seed=seed)
            cfg = DetectorConfig(slices=_slices(), threshold=100.0)
            detected = {addr for addr, _ in anomalous_ips(detect(flows, cfg))}
            universe = trace_universe(flows)
            case2 = evaluate_case(EvalCase.FILTERED, detected, gt, universe)
            case3 = evaluate_case(
                EvalCase.FILTERED_PLUS_RULES,
                detected,
                gt,
                universe,
                classifications=classify_all(
                    detected, flows, RuleConfig(), _slices()
                ),
            )
            assert case3.reintegrated == len(spec.scanners) - 1
            assert case3.score.precision >= case2.score.precision
            assert case3.score.recall >= case2.score.recall
        assert time.perf_counter() - started < 10.0


# (tp, fp, fn, tn) -> expected (recall, precision); None marks undefined
C5_MATRICES = [
    ((3, 0, 1, 10), (0.75, 1.0)),
    ((0, 5, 0, 10), (None, 0.0)),
    ((0, 0, 0, 10), (None, None)),
    ((0, 0, 7, 3), (0.0, None)),
    ((293, 0, 707, 0), (0.293, 1.0)),
    ((1, 1, 1, 1), (0.5, 0.5)),
    ((7, 3, 0, 0), (1.0, 0.7)),
    ((2, 8, 3, 100), (0.4, 0.2)),
    ((1, 0, 0, 0), (1.0, 1.0)),
    ((1, 2, 4, 8), (0.2, 1 / 3)),
]


def test_c5_confusion_pr_correctness(crit) -> None:
    with crit("C5 confusion/PR correctness"):
        assert len(C5_MATRICES) == 10
        for (tp, fp, fn, tn), (want_recall, want_precision) in C5_MATRICES:
            score = precision_recall(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            for got, want in ((score.recall, want_recall), (score.precision, want_precision)):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-12)


def test_c6_parallel_determinism(crit) -> None:
    with crit("C6 parallel determinism") as emit:
        rng = random.Random(0xC6)
        # Built once: run_batch would otherwise convert the records on each
        # of its 15 calls, outside the timed region but inside the test.
        flows = as_batch(
            random_flows(rng, 1_000_000, host_count=500, slice_count=20, scanners=3)
        )
        cfg = DetectorConfig(slices=_slices(), threshold=50.0)
        rendered: dict[int, bytes] = {}
        medians: dict[int, float] = {}
        for workers in (1, 2, 8):
            walls = []
            for _ in range(5):
                started = time.perf_counter()
                verdicts, _ = run_batch(flows, cfg, EngineConfig(workers=workers))
                walls.append(time.perf_counter() - started)
            rendered[workers] = render_rows([verdict_as_row(v) for v in verdicts])
            medians[workers] = statistics.median(walls)
        assert rendered[1] == rendered[2] == rendered[8]
        emit(
            "[acceptance] C6 median wall seconds: "
            + ", ".join(f"workers={w} {medians[w]:.3f}" for w in (1, 2, 8))
        )
        assert medians[2] <= 0.9 * medians[1], (
            f"workers=2 median {medians[2]:.3f}s vs 0.9x workers=1 "
            f"{0.9 * medians[1]:.3f}s; needs >= 2 physical cores"
        )


def test_c7_streaming_batch_equivalence(crit) -> None:
    with crit("C7 streaming-batch equivalence"):
        rng = random.Random(0xC7)
        for _ in range(50):
            flows = sorted(
                random_flows(
                    rng,
                    rng.randrange(300, 3000),
                    host_count=rng.randrange(10, 40),
                    slice_count=rng.randrange(1, 6),
                    scanners=rng.randrange(3),
                ),
                key=lambda f: f.first_seen_us,
            )
            cfg = DetectorConfig(
                slices=_slices(), threshold=rng.choice((50.0, 100.0))
            )
            batch, _ = run_batch(flows, cfg)
            streamed: list = []
            stats = run_streaming(
                iter(flows),
                cfg,
                EngineConfig(watermark_lag_seconds=rng.choice((0.0, 2.5, 5.0))),
                lambda _index, verdicts: streamed.extend(verdicts),
            )
            assert streamed == batch
            assert stats.late_dropped == 0


C8_ANOMALOUS_XML = """<?xml version="1.0" encoding="UTF-8"?>
<admd:data xmlns:admd="http://www.nict.go.jp/anomaly/data/">
  <anomaly type="anomalous" value="ntscSYN">
    <filter src_ip="192.0.2.1"/>
    <filter src_ip="192.0.2.2" dst_ip="10.0.0.5"/>
  </anomaly>
  <anomaly type="anomalous" value="dosAttack">
    <filter dst_ip="10.0.0.9" dst_port="80"/>
  </anomaly>
  <anomaly type="suspicious" value="ntscICMP">
    <filter src_ip="192.0.2.3"/>
  </anomaly>
</admd:data>
"""

C8_NOTICE_XML = """<?xml version="1.0" encoding="UTF-8"?>
<admd:data xmlns:admd="http://www.nict.go.jp/anomaly/data/">
  <anomaly type="suspicious" value="ptscACK">
    <filter src_ip="192.0.2.4" src_port="40000"/>
  </anomaly>
  <anomaly type="notice" value="ddosAmpl">
    <filter dst_ip="10.0.0.11"/>
  </anomaly>
  <anomaly type="benign" value="heavyHitter">
    <filter src_ip="192.0.2.5"/>
  </anomaly>
  <anomaly type="anomalous" value="poscNull">
    <filter src_ip="192.0.2.6"/>
  </anomaly>
</admd:data>
"""

C8_EXPECTED = [
    GroundTruthEntry(
        category=Category.ANOMALOUS,
        taxonomy_label="ntscSYN",
        src_ips=frozenset({ip("192.0.2.1"), ip("192.0.2.2")}),
        dst_ips=frozenset({ip("10.0.0.5")}),
        source_file=SourceFile.ANOMALOUS,
    ),
    GroundTruthEntry(
        category=Category.ANOMALOUS,
        taxonomy_label="dosAttack",
        src_ips=frozenset(),
        dst_ips=frozenset({ip("10.0.0.9")}),
        source_file=SourceFile.ANOMALOUS,
        dst_ports=frozenset({80}),
    ),
    GroundTruthEntry(
        category=Category.SUSPICIOUS,
        taxonomy_label="ntscICMP",
        src_ips=frozenset({ip("192.0.2.3")}),
        dst_ips=frozenset(),
        source_file=SourceFile.ANOMALOUS,
    ),
    GroundTruthEntry(
        category=Category.SUSPICIOUS,
        taxonomy_label="ptscACK",
        src_ips=frozenset({ip("192.0.2.4")}),
        dst_ips=frozenset(),
        source_file=SourceFile.NOTICE,
        src_ports=frozenset({40000}),
    ),
    GroundTruthEntry(
        category=Category.NOTICE,
        taxonomy_label="ddosAmpl",
        src_ips=frozenset(),
        dst_ips=frozenset({ip("10.0.0.11")}),
        source_file=SourceFile.NOTICE,
    ),
    GroundTruthEntry(
        category=Category.BENIGN,
        taxonomy_label="heavyHitter",
        src_ips=frozenset({ip("192.0.2.5")}),
        dst_ips=frozenset(),
        source_file=SourceFile.NOTICE,
    ),
    GroundTruthEntry(
        category=Category.ANOMALOUS,
        taxonomy_label="poscNull",
        src_ips=frozenset({ip("192.0.2.6")}),
        dst_ips=frozenset(),
        source_file=SourceFile.NOTICE,
    ),
]


def test_c8_ground_truth_goldens(tmp_path, crit) -> None:
    with crit("C8 ground truth goldens"):
        anomalous = tmp_path / "c8.anomalous.xml"
        notice = tmp_path / "c8.notice.xml"
        anomalous.write_text(C8_ANOMALOUS_XML, encoding="utf-8")
        notice.write_text(C8_NOTICE_XML, encoding="utf-8")
        gt = read_ground_truth(anomalous, notice, strict=True)
        assert list(gt.entries) == C8_EXPECTED
        kept = filter_scan_labels(gt)
        assert [e.taxonomy_label for e in kept.entries] == [
            "ntscSYN",
            "ptscACK",
            "poscNull",
        ]
        removed = {e.taxonomy_label for e in gt.entries} - {
            e.taxonomy_label for e in kept.entries
        }
        assert removed == {"dosAttack", "ntscICMP", "ddosAmpl", "heavyHitter"}


C9_SPEC = """\
[trace]
slices = 30
slice_seconds = 30

[background]
hosts = 120
flows_per_host_per_slice = 2
subnet = 10.0.0.0/16

[scanner:sweep]
kind = netscan
ip = 198.51.100.1
flows_per_slice = 160
target_subnet = 10.120.0.0/24

[scanner:probe]
kind = portscan
ip = 198.51.100.2
flows_per_slice = 120
target = 10.0.0.1

[decoy:dos]
label = dosAttack
src_ip = 10.0.0.7
category = notice
file = notice
"""


def test_c9_end_to_end_evaluation(tmp_path, crit) -> None:
    with crit("C9 end-to-end evaluation") as emit:
        supplied = os.environ.get("FLOWSCAN_MAWI")
        if supplied:
            trace_arg = supplied
            flow_path = Path(supplied.split(",")[0])
        else:
            spec_path = tmp_path / "c9.ini"
            spec_path.write_text(C9_SPEC, encoding="utf-8")
            base = tmp_path / "c9"
            assert main(["synth", str(spec_path), "-o", str(base)]) == 0
            flow_path = base.with_name("c9.flows.csv")
            trace_arg = (
                f"{flow_path},{base.with_name('c9.anomalous.xml')},"
                f"{base.with_name('c9.notice.xml')}"
            )
        out = tmp_path / "c9.report.csv"
        started = time.perf_counter()
        code = main(
            [
                "evaluate",
                "--trace",
                trace_arg,
                "-o",
                str(out),
                "--thresholds",
                "50,100,200",
                "--case",
                "2",
            ]
        )
        wall = time.perf_counter() - started
        assert code == 0

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == (
            "trace_id,case,threshold,source,tp,fp,fn,tn,reintegrated,recall,precision"
        )
        data = [l for l in lines[2:] if not l.startswith("#")]
        split = data.index("case,threshold,source,metric,mean,variance,traces,excluded")
        rows, aggregate_rows = data[:split], data[split + 1 :]
        thresholds = {row.split(",")[2] for row in rows}
        assert thresholds == {"50", "100", "200"}
        assert aggregate_rows
        if supplied:
            emit("[acceptance] C9 report rows for value parity (not asserted):")
            for row in rows:
                emit(f"[acceptance]   {row}")

        flows = list(read_flow_file(flow_path))
        first = min(f.first_seen_us for f in flows)
        last = max(f.last_seen_us for f in flows)
        duration_s = (last - first) / S
        assert wall < duration_s
