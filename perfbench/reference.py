"""Expected outputs of the benchmark workloads, built without flowscan.

The flow file and the ground truth XML are parsed here with plain
string splitting and ElementTree. Verdict rows and rule labels come
from the test oracles (`tests/oracles.py`: `naive_verdicts`,
`brute_force_labels`); the evaluation report is derived from those
verdicts and the ground truth by restating the scoring rules. The
result is the exact text a correct run writes after its `# manifest=`
line, so checking a run is a string comparison.
"""

from __future__ import annotations

import ipaddress
import statistics
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path
from typing import Callable, Optional, Sequence

import oracles

SLICE_US = 30_000_000
DETECT_THRESHOLD = 100.0

VERDICT_HEADER = "slice_index,ip,direction,generated,received,ratio,labels"
REPORT_HEADER = "trace_id,case,threshold,source,tp,fp,fn,tn,reintegrated,recall,precision"
AGGREGATE_HEADER = "case,threshold,source,metric,mean,variance,traces,excluded"

# Case 3 keeps ground truth entries whose label names a scan, unless an
# excluded term vetoes it; both match case-insensitive substrings.
SCAN_TERMS = ("ntsc", "ptsc", "posc", "netscan", "portscan", "scan")
EXCLUDED_TERMS = ("icmp",)
GT_CATEGORIES = ("anomalous", "suspicious", "notice", "benign")

# The fields the oracles read.
Flow = namedtuple("Flow", "src dst dst_port first_seen_us")


def read_flows(path: Path) -> list[Flow]:
    interned: dict[str, object] = {}

    def ip(text: str):
        addr = interned.get(text)
        if addr is None:
            addr = interned[text] = ipaddress.ip_address(text)
        return addr

    flows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            first, _last, src, dst, _sport, dport, _rest = line.split(",", 6)
            flows.append(Flow(ip(src), ip(dst), int(dport), int(first)))
    return flows


def read_truth(path: Path) -> list[tuple[str, set]]:
    """(taxonomy label, IPs) for each entry of one ground truth file."""
    entries = []
    for elem in ET.parse(path).getroot().iter():
        if elem.get("type", "").lower() not in GT_CATEGORIES:
            continue
        ips = {
            ipaddress.ip_address(node.get(side))
            for node in elem.iter()
            for side in ("src_ip", "dst_ip")
            if node.get(side)
        }
        entries.append((elem.get("value", ""), ips))
    return entries


def _labeler(flows: Sequence[Flow], start_us: int) -> Callable[[object], set[str]]:
    """Memoized brute-force rule labels. Each IP's outbound flows are
    grouped first; the rules only look at those."""
    outbound: dict = {}
    for flow in flows:
        outbound.setdefault(flow.src, []).append(flow)
    cache: dict = {}

    def labels(ip) -> set[str]:
        if ip not in cache:
            cache[ip] = oracles.brute_force_labels(
                ip, outbound.get(ip, []), start_us, SLICE_US
            )
        return cache[ip]

    return labels


def expected_verdicts(flow_path: Path) -> str:
    """Verdict file body of `flowscan detect` at the default threshold."""
    flows = read_flows(flow_path)
    start = min(f.first_seen_us for f in flows)
    labels = _labeler(flows, start)
    lines = [VERDICT_HEADER]
    for index, ip, direction, gen, recv, ratio in oracles.naive_verdicts(
        flows, start, SLICE_US, DETECT_THRESHOLD
    ):
        text = ";".join(sorted(labels(ip))) if direction == "sender" else ""
        lines.append(f"{index},{ip},{direction},{gen},{recv},{ratio!r},{text}")
    return "\n".join(lines) + "\n"


def _is_scan(label: str) -> bool:
    lowered = label.lower()
    if any(term in lowered for term in EXCLUDED_TERMS):
        return False
    return any(term in lowered for term in SCAN_TERMS)


def _metric(value: Optional[float]) -> str:
    return "undefined" if value is None else repr(value)


def _threshold(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def expected_case3_report(
    trace_id: str,
    flow_path: Path,
    anomalous_path: Path,
    notice_path: Path,
    thresholds: Sequence[float],
) -> str:
    """Report body of `flowscan evaluate --case 3` over one trace with a
    notice file, undirected matching."""
    flows = read_flows(flow_path)
    start = min(f.first_seen_us for f in flows)
    labels = _labeler(flows, start)
    universe = {f.src for f in flows} | {f.dst for f in flows}
    anomalous = read_truth(anomalous_path)
    notice = read_truth(notice_path)
    sources = (
        ("anomalous", anomalous),
        ("notice", notice),
        ("total", anomalous + notice),
    )

    rows = []
    scores = []
    for threshold in thresholds:
        verdicts = oracles.naive_verdicts(flows, start, SLICE_US, threshold)
        detected = {row[1] for row in verdicts}
        for source, entries in sources:
            truth = set()
            for label, ips in entries:
                if _is_scan(label):
                    truth |= ips
            truth &= universe
            tp = len(detected & truth)
            false_pos = detected - truth
            fn = len(truth - detected)
            tn = len(universe) - tp - len(false_pos) - fn
            moved = sum(1 for ip in false_pos if labels(ip))
            tp, fp = tp + moved, len(false_pos) - moved
            recall = tp / (tp + fn) if tp + fn else None
            precision = tp / (tp + fp) if tp + fp else None
            rows.append(
                f"{trace_id},3,{_threshold(threshold)},{source},{tp},{fp},{fn},{tn},"
                f"{moved},{_metric(recall)},{_metric(precision)}"
            )
            scores.append((threshold, source, recall, precision))

    lines = [REPORT_HEADER, *rows, "# aggregate", AGGREGATE_HEADER]
    for threshold, source, recall, precision in scores:
        for metric, value in (("recall", recall), ("precision", precision)):
            if value is None:
                stats = "undefined,undefined,0,1"
            else:
                # One trace: the mean is the value, the variance is zero.
                mean = statistics.fmean([value])
                variance = statistics.pvariance([value])
                stats = f"{mean!r},{variance!r},1,0"
            lines.append(f"3,{_threshold(threshold)},{source},{metric},{stats}")
    return "\n".join(lines) + "\n"
