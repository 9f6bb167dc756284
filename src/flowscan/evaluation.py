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

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Mapping, Optional, Sequence, TextIO, TypeVar

from .core import FlowBatch, FlowRecord, IpAddress, SliceConfig, as_batch
from .detector import Direction
from .ingest import GroundTruthSet
from .rules import Classification, RuleConfig, classify_all, reintegrate

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
    mean: float
    variance: float
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
    flows: Iterable[FlowRecord] | FlowBatch | None = None,
    rule_cfg: Optional[RuleConfig] = None,
    slice_cfg: Optional[SliceConfig] = None,
    universe: Optional[set[IpAddress]] = None,
    whitelist: frozenset[str] = DEFAULT_SCAN_WHITELIST,
    exclude: frozenset[str] = DEFAULT_SCAN_EXCLUDE,
    directional: bool = False,
    classifications: Optional[Mapping[IpAddress, Classification]] = None,
) -> CaseResult:
    """Score one detector run under the chosen case.

    `detected` holds IP addresses, or (IP, Direction) pairs when
    directional is set. The universe is derived from the flows unless
    passed in. Case 3 additionally needs rule and slice configuration
    to classify false positives; only sender-side false positives can
    be rule-confirmed since the rules judge outbound flows. Case 3 looks
    candidates up in `classifications` when given, which must then
    cover every one of them, instead of classifying them here.
    """
    if universe is None:
        if flows is None:
            raise ValueError("need flows or an explicit universe")
        universe = trace_universe(flows)
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
        if classifications is None:
            if flows is None or rule_cfg is None or slice_cfg is None:
                raise ValueError("case 3 requires flows, rule_cfg and slice_cfg")
            classifications = classify_all(candidates, flows, rule_cfg, slice_cfg)
        else:
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
    import statistics  # here, so that detect does not pay for the import

    included = [v for v in values if v is not None]
    if not included:
        raise ValueError("no defined values to aggregate")
    return AggregateScore(
        mean=statistics.fmean(included),
        variance=statistics.pvariance(included),
        n_traces=len(included),
        excluded=len(values) - len(included),
    )


def aggregate(
    scores: Sequence[PRScore],
) -> tuple[AggregateScore, AggregateScore]:
    """Mean and population variance of recall and precision across
    traces, skipping undefined values per metric."""
    recall = _aggregate_values([s.recall for s in scores])
    precision = _aggregate_values([s.precision for s in scores])
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


def write_report(
    fh: TextIO, rows: Sequence[EvalRow], manifest_name: Optional[str] = None
) -> None:
    """Emit the per-trace table followed by an aggregate block.

    Aggregates are grouped by (case, threshold, source) over the trace
    ids present; metrics undefined for a trace are excluded and counted.
    """
    if manifest_name:
        fh.write(f"# manifest={manifest_name}\n")
    fh.write(_REPORT_HEADER + "\n")
    for row in rows:
        m = row.result.matrix
        s = row.result.score
        fh.write(
            ",".join(
                (
                    row.trace_id,
                    str(row.case.value),
                    _fmt_threshold(row.threshold),
                    row.source,
                    str(m.tp),
                    str(m.fp),
                    str(m.fn),
                    str(m.tn),
                    str(row.result.reintegrated),
                    _fmt_metric(s.recall),
                    _fmt_metric(s.precision),
                )
            )
            + "\n"
        )
    fh.write("# aggregate\n")
    fh.write(_AGGREGATE_HEADER + "\n")
    groups: dict[tuple[EvalCase, float, str], list[PRScore]] = {}
    for row in rows:
        groups.setdefault((row.case, row.threshold, row.source), []).append(
            row.result.score
        )
    for (case, threshold, source), scores in groups.items():
        for metric, values in (
            ("recall", [s.recall for s in scores]),
            ("precision", [s.precision for s in scores]),
        ):
            defined = [v for v in values if v is not None]
            excluded = len(values) - len(defined)
            if defined:
                agg = _aggregate_values(values)
                mean, variance = repr(agg.mean), repr(agg.variance)
            else:
                mean = variance = "undefined"
            fh.write(
                ",".join(
                    (
                        str(case.value),
                        _fmt_threshold(threshold),
                        source,
                        metric,
                        mean,
                        variance,
                        str(len(defined)),
                        str(excluded),
                    )
                )
                + "\n"
            )
