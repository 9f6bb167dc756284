"""Flow-level scan detection via per-slice generated/received ratios."""

from .core import FlowBatch, FlowRecord, SliceConfig, SliceKey, as_batch, slice_at
from .detector import (
    DetectorConfig,
    Direction,
    RatioVerdict,
    anomalous_ips,
    detect,
    ratio_of,
)
from .engine import EngineConfig, Mode, RunStats, run_batch, run_streaming
from .evaluation import (
    AggregateScore,
    ConfusionMatrix,
    EvalCase,
    PRScore,
    aggregate,
    confusion,
    evaluate_case,
    filter_scan_labels,
    precision_recall,
    write_report,
)
from .ingest import (
    FlowFileReader,
    GroundTruthSet,
    read_flow_file,
    read_ground_truth,
    write_flow_file,
)
from .rules import Classification, RuleConfig, ScanLabel, classify, classify_all, reintegrate

__version__ = "0.1.0"

__all__ = [
    "AggregateScore",
    "Classification",
    "ConfusionMatrix",
    "DetectorConfig",
    "Direction",
    "EngineConfig",
    "EvalCase",
    "FlowBatch",
    "FlowFileReader",
    "FlowRecord",
    "GroundTruthSet",
    "Mode",
    "PRScore",
    "RatioVerdict",
    "RuleConfig",
    "RunStats",
    "ScanLabel",
    "SliceConfig",
    "SliceKey",
    "aggregate",
    "anomalous_ips",
    "as_batch",
    "classify",
    "classify_all",
    "confusion",
    "detect",
    "evaluate_case",
    "filter_scan_labels",
    "precision_recall",
    "ratio_of",
    "read_flow_file",
    "read_ground_truth",
    "reintegrate",
    "run_batch",
    "run_streaming",
    "slice_at",
    "write_flow_file",
    "write_report",
]
