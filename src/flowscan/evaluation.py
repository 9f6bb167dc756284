"""Scoring detector output against labeled ground truth.

Three evaluation cases of increasing leniency:

1. raw: every ground truth entry counts as a positive
2. filtered: only entries whose taxonomy label names a scan count
3. filtered plus rules: as 2, but detected IPs that the scan rules
   confirm are moved from false positives to true positives

Precision and recall with a zero denominator are reported as undefined
(None), never as zero, and are excluded from aggregation.

Comparison is over undirected IP sets by default. The directional mode
is stricter: a sender verdict only matches ground truth listing the IP
as a source, a receiver verdict only truth listing it as a destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence, TextIO, TypeVar

from .core import FlowBatch, FlowRecord, IpAddress, as_batch
from .detector import Direction
from .ingest import GroundTruthSet
# classify_all is unused here; perfbench/tracing.py wraps it on this module.
from .rules import Classification, classify_all, reintegrate  # noqa: F401

DEFAULT_SCAN_WHITELIST = frozenset(
    {"ntsc", "ptsc", "posc", "netscan", "portscan", "scan"}
)
DEFAULT_SCAN_EXCLUDE = frozenset({"icmp"})

T = TypeVar("T", bound=Hashable)


class EvalCase(Enum):
    RAW = 1
    FILTERED = 2
    FILTERED_PLUS_RULES = 3


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True, slots=True)
class PRScore:
    recall: Optional[float]
    precision: Optional[float]


@dataclass(frozen=True, slots=True)
class AggregateScore:
    mean: Optional[float]
    variance: Optional[float]
    n_traces: int
    excluded: int = 0


@dataclass(frozen=True)
class CaseResult:
    matrix: ConfusionMatrix
    score: PRScore
    reintegrated: int = 0


def label_is_scan(
    label: str,
    whitelist: frozenset[str] = DEFAULT_SCAN_WHITELIST,
    exclude: frozenset[str] = DEFAULT_SCAN_EXCLUDE,
) -> bool:
    """Substring match against the whitelist, vetoed by the exclude set."""
    lowered = label.lower()
    if any(term in lowered for term in exclude):
        return False
    return any(term in lowered for term in whitelist)


def filter_scan_labels(
    gt: GroundTruthSet,
    whitelist: frozenset[str] = DEFAULT_SCAN_WHITELIST,
    exclude: frozenset[str] = DEFAULT_SCAN_EXCLUDE,
) -> GroundTruthSet:
    """Ground truth restricted to entries labeled as some kind of scan."""
    return GroundTruthSet(
        [e for e in gt.entries if label_is_scan(e.taxonomy_label, whitelist, exclude)]
    )


def trace_universe(flows: Iterable[FlowRecord] | FlowBatch) -> set[IpAddress]:
    """Every distinct IP appearing in the trace, as source or destination."""
    return set(as_batch(flows).ips)


def _split(
    detected: set[T], truth: set[T], universe: set[T]
) -> tuple[set[T], set[T], set[T], int]:
    if not universe:
        raise ValueError("universe is empty")
    stray = detected - universe
    if stray:
        raise ValueError(
            f"{len(stray)} detected entries outside the trace universe, "
            f"e.g. {next(iter(stray))!r}"
        )
    truth = truth & universe
    tp_set = detected & truth
    fp_set = detected - truth
    fn_set = truth - detected
    tn = len(universe) - len(tp_set) - len(fp_set) - len(fn_set)
    return tp_set, fp_set, fn_set, tn


def confusion(
    detected: set[T], truth: set[T], universe: set[T]
) -> ConfusionMatrix:
    """Set-algebra confusion counts over the trace universe.

    Detected entries must lie inside the universe; ground truth is
    quietly restricted to it (labels may reference hosts the trace
    never saw).
    """
    tp_set, fp_set, fn_set, tn = _split(detected, truth, universe)
    return ConfusionMatrix(tp=len(tp_set), fp=len(fp_set), fn=len(fn_set), tn=tn)


def precision_recall(matrix: ConfusionMatrix) -> PRScore:
    recall = matrix.tp / (matrix.tp + matrix.fn) if matrix.tp + matrix.fn else None
    precision = matrix.tp / (matrix.tp + matrix.fp) if matrix.tp + matrix.fp else None
    return PRScore(recall=recall, precision=precision)


def _directional_truth(gt: GroundTruthSet) -> set[tuple[IpAddress, Direction]]:
    truth: set[tuple[IpAddress, Direction]] = set()
    for entry in gt.entries:
        truth.update((ip, Direction.SENDER) for ip in entry.src_ips)
        truth.update((ip, Direction.RECEIVER) for ip in entry.dst_ips)
    return truth


def evaluate_case(
    case: EvalCase,
    detected: set,
    gt: GroundTruthSet,
    universe: set[IpAddress],
    whitelist: frozenset[str] = DEFAULT_SCAN_WHITELIST,
    exclude: frozenset[str] = DEFAULT_SCAN_EXCLUDE,
    directional: bool = False,
    classifications: Mapping[IpAddress, Classification] = MappingProxyType({}),
) -> CaseResult:
    """Score one detector run under the chosen case.

    `detected` holds IP addresses, or (IP, Direction) pairs when
    directional is set; `universe` is every IP of the trace, as
    `trace_universe` gives it. Case 3 looks its candidates, the false
    positives, up in `classifications`, which must cover every one of
    them; only sender-side false positives can be rule-confirmed since
    the rules judge outbound flows.
    """
    truth_entries = (
        gt if case is EvalCase.RAW else filter_scan_labels(gt, whitelist, exclude)
    )
    if directional:
        truth = _directional_truth(truth_entries)
        scope = {(ip, d) for ip in universe for d in Direction}
    else:
        truth = set()
        for entry in truth_entries.entries:
            truth |= entry.ip_set()
        scope = universe

    tp_set, fp_set, fn_set, tn = _split(detected, truth, scope)
    reintegrated = 0
    if case is EvalCase.FILTERED_PLUS_RULES and fp_set:
        if directional:
            candidates = {ip for ip, d in fp_set if d is Direction.SENDER}
        else:
            candidates = set(fp_set)
        missing = candidates - classifications.keys()
        if missing:
            raise ValueError(
                f"{len(missing)} case 3 candidates are not classified, "
                f"e.g. {next(iter(missing))}"
            )
        reintegrated = len(reintegrate(candidates, classifications))
    matrix = ConfusionMatrix(
        tp=len(tp_set) + reintegrated,
        fp=len(fp_set) - reintegrated,
        fn=len(fn_set),
        tn=tn,
    )
    return CaseResult(
        matrix=matrix, score=precision_recall(matrix), reintegrated=reintegrated
    )


def _aggregate_values(values: Sequence[Optional[float]]) -> AggregateScore:
    """Mean and population variance of the defined values; both are None
    when no value is defined."""
    included = [v for v in values if v is not None]
    n = len(included)
    mean = variance = None
    if n:
        # statistics.fmean and pvariance, without loading statistics and
        # with it decimal and fractions: each float is an integer over a
        # power of two, so over their largest denominator the variance is
        # an exact integer ratio, rounded once by the true division.
        ratios = [v.as_integer_ratio() for v in included]
        scale = max(d for _, d in ratios)
        scaled = [k * (scale // d) for k, d in ratios]
        mean = math.fsum(included) / n
        variance = (n * sum(x * x for x in scaled) - sum(scaled) ** 2) / (n * scale) ** 2
    return AggregateScore(mean, variance, n_traces=n, excluded=len(values) - n)


def aggregate(
    scores: Sequence[PRScore],
) -> tuple[AggregateScore, AggregateScore]:
    """Mean and population variance of recall and precision across
    traces, skipping undefined values per metric."""
    recall = _aggregate_values([s.recall for s in scores])
    precision = _aggregate_values([s.precision for s in scores])
    if not recall.n_traces or not precision.n_traces:
        raise ValueError("no defined values to aggregate")
    return recall, precision


@dataclass(frozen=True)
class EvalRow:
    """One line of the evaluation report."""

    trace_id: str
    case: EvalCase
    threshold: float
    source: str
    result: CaseResult


_REPORT_HEADER = "trace_id,case,threshold,source,tp,fp,fn,tn,reintegrated,recall,precision"
_AGGREGATE_HEADER = "case,threshold,source,metric,mean,variance,traces,excluded"


def _fmt_metric(value: Optional[float]) -> str:
    return "undefined" if value is None else repr(value)


def _fmt_threshold(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def write_report(fh: TextIO, rows: Sequence[EvalRow]) -> None:
    """Emit the per-trace table followed by an aggregate block.

    Aggregates are grouped by (case, threshold, source) over the trace
    ids present; metrics undefined for a trace are excluded and counted.
    """

    def line(*fields: object) -> None:
        fh.write(",".join(map(str, fields)) + "\n")

    line(_REPORT_HEADER)
    for row in rows:
        m, s, t = row.result.matrix, row.result.score, _fmt_threshold(row.threshold)
        line(row.trace_id, row.case.value, t, row.source, m.tp, m.fp, m.fn, m.tn,
             row.result.reintegrated, _fmt_metric(s.recall), _fmt_metric(s.precision))
    line("# aggregate")
    line(_AGGREGATE_HEADER)
    groups: dict[tuple[EvalCase, float, str], list[PRScore]] = {}
    for row in rows:
        groups.setdefault((row.case, row.threshold, row.source), []).append(row.result.score)
    for (case, threshold, source), scores in groups.items():
        for metric in ("recall", "precision"):
            agg = _aggregate_values([getattr(s, metric) for s in scores])
            line(case.value, _fmt_threshold(threshold), source, metric, _fmt_metric(agg.mean),
                 _fmt_metric(agg.variance), agg.n_traces, agg.excluded)
