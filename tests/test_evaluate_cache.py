"""Evaluation does not change when shared work is cached.

`flowscan evaluate` runs the detect job once per trace, at its lowest
threshold, which classifies every IP flagged at it once; it then keeps for
each threshold the verdicts whose |ratio| is above it. Its report must
equal one built the uncached way: a full `run_batch` per threshold, and
the case 3 candidates classified again for every report row.
"""

from __future__ import annotations

import io
import random
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from flowscan.cli import EXIT_OK, main
from flowscan.core import SliceConfig
from flowscan.detector import DetectorConfig, Direction, anomalous_ips
from flowscan.engine import EngineConfig, run_batch
from flowscan.evaluation import (
    EvalCase,
    EvalRow,
    evaluate_case,
    trace_universe,
    write_report,
)
from flowscan.ingest import (
    Category,
    GroundTruthEntry,
    GroundTruthSet,
    SourceFile,
    read_flow_file,
    read_ground_truth,
    write_flow_file,
    write_ground_truth,
)
from flowscan.rules import RuleConfig, classify_all

from helpers import random_flows

LABELS = ("ntscSYN", "ptscACK", "sshScan", "icmpScan", "dosAttack", "alphaFlow")


def _write_trace(rng: random.Random, base: Path) -> tuple[Path, Path, Path]:
    """A random trace with scan bursts, and random labels on its hosts
    split over an anomalous and a notice file."""
    flows = random_flows(
        rng, rng.randrange(50, 400), host_count=30, scanners=rng.randrange(1, 4)
    )
    hosts = sorted({f.src for f in flows} | {f.dst for f in flows})
    entries = []
    for _ in range(rng.randrange(6)):
        src = rng.sample(hosts, rng.randrange(3))
        dst = rng.sample(hosts, rng.randrange(2))
        entries.append(
            GroundTruthEntry(
                category=rng.choice((Category.ANOMALOUS, Category.NOTICE)),
                taxonomy_label=rng.choice(LABELS),
                src_ips=frozenset(src),
                dst_ips=frozenset(dst),
                source_file=rng.choice(tuple(SourceFile)),
            )
        )
    gt = GroundTruthSet(entries)
    flow_path = base.with_name(base.name + ".flows.csv")
    write_flow_file(flow_path, flows)
    xml_paths = []
    for source in (SourceFile.ANOMALOUS, SourceFile.NOTICE):
        path = base.with_name(f"{base.name}.{source.value}.xml")
        write_ground_truth(path, gt, source)
        xml_paths.append(path)
    return flow_path, xml_paths[0], xml_paths[1]


def _reference_report(
    traces: list[tuple[Path, Path, Path | None]],
    thresholds: list[float],
    case: EvalCase,
    directional: bool,
    workers: int,
    rules: RuleConfig,
) -> str:
    """The report as evaluate built it before any work was shared."""
    engine = EngineConfig(workers=workers)
    rows = []
    for flow_path, anomalous, notice in traces:
        flows = list(read_flow_file(flow_path))
        gt = read_ground_truth(anomalous, notice)
        universe = trace_universe(flows)
        slices = SliceConfig(
            trace_start_us=min(f.first_seen_us for f in flows), slice_seconds=30.0
        )
        sources = [("anomalous", (SourceFile.ANOMALOUS,))]
        if notice is not None:
            sources.append(("notice", (SourceFile.NOTICE,)))
            sources.append(("total", (SourceFile.ANOMALOUS, SourceFile.NOTICE)))
        for threshold in thresholds:
            verdicts, _ = run_batch(flows, DetectorConfig(slices, threshold), engine)
            pairs = anomalous_ips(verdicts)
            detected = pairs if directional else {ip for ip, _ in pairs}
            senders = {ip for ip, d in pairs if not directional or d is Direction.SENDER}
            for name, wanted in sources:
                result = evaluate_case(
                    case,
                    detected,
                    GroundTruthSet([e for e in gt.entries if e.source_file in wanted]),
                    universe,
                    directional=directional,
                    classifications=classify_all(senders, flows, rules, slices)
                    if case is EvalCase.FILTERED_PLUS_RULES
                    else {},
                )
                trace_id = flow_path.name[: -len(".flows.csv")]
                rows.append(EvalRow(trace_id, case, threshold, name, result))
    buf = io.StringIO()
    write_report(buf, rows)
    return buf.getvalue()


@given(
    seed=st.integers(0, 2**32 - 1),
    trace_count=st.integers(1, 2),
    with_notice=st.booleans(),
    thresholds=st.lists(
        # low cuts flag background hosts both ways, high ones split the
        # scan bursts (150 to 400 flows in one slice)
        st.sampled_from((1.5, 3.0, 10.0, 150.0, 200.0, 250.0, 300.0, 350.0)),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    case=st.sampled_from(tuple(EvalCase)),
    directional=st.booleans(),
    workers=st.sampled_from((1, 2)),
    # a low host cutoff lets the rules confirm background hosts too
    netscan_min_hosts=st.sampled_from((4, 20)),
)
def test_cached_evaluate_matches_uncached_reference(
    seed: int,
    trace_count: int,
    with_notice: bool,
    thresholds: list[float],
    case: EvalCase,
    directional: bool,
    workers: int,
    netscan_min_hosts: int,
) -> None:
    rng = random.Random(seed)
    rules = RuleConfig(netscan_min_hosts=netscan_min_hosts)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "flowscan.ini"
        config.write_text(
            f"[rules]\nnetscan_min_hosts = {netscan_min_hosts}\n", encoding="utf-8"
        )
        traces = []
        for i in range(trace_count):
            flow_path, anomalous, notice = _write_trace(rng, Path(tmp) / f"t{i}")
            traces.append((flow_path, anomalous, notice if with_notice else None))
        out = Path(tmp) / "report.csv"
        argv = ["evaluate", "-o", str(out), "--config", str(config)]
        argv += ["--case", str(case.value)]
        for flow_path, anomalous, notice in traces:
            paths = [flow_path, anomalous] + ([notice] if notice else [])
            argv += ["--trace", ",".join(str(p) for p in paths)]
        argv += ["--thresholds", ",".join(repr(t) for t in thresholds)]
        argv += ["--workers", str(workers)] + (["--directional"] if directional else [])
        assert main(argv) == EXIT_OK
        report = out.read_text(encoding="utf-8").split("\n", 1)[1]
        assert report == _reference_report(
            traces, thresholds, case, directional, workers, rules
        )
