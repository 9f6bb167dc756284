from __future__ import annotations

import io
import random
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscan.core import SliceConfig
from flowscan.detector import DetectorConfig, Direction, anomalous_ips, detect
from flowscan.evaluation import (
    AggregateScore,
    CaseResult,
    ConfusionMatrix,
    EvalCase,
    EvalRow,
    PRScore,
    _aggregate_values,
    aggregate,
    confusion,
    evaluate_case,
    filter_scan_labels,
    label_is_scan,
    precision_recall,
    trace_universe,
    write_report,
)
from flowscan.ingest import Category, GroundTruthEntry, GroundTruthSet, SourceFile
from flowscan.rules import RuleConfig, classify_all

from helpers import ip, mk_flow

S = 1_000_000
SLICES = SliceConfig(trace_start_us=0, slice_seconds=30.0)
RULES = RuleConfig()


def _entry(
    label: str,
    src: tuple[str, ...] = (),
    dst: tuple[str, ...] = (),
    category: Category = Category.ANOMALOUS,
    source: SourceFile = SourceFile.ANOMALOUS,
) -> GroundTruthEntry:
    return GroundTruthEntry(
        category=category,
        taxonomy_label=label,
        src_ips=frozenset(ip(a) for a in src),
        dst_ips=frozenset(ip(a) for a in dst),
        source_file=source,
    )


def test_label_whitelist_matching() -> None:
    assert label_is_scan("ntscSYN")
    assert label_is_scan("ptscACK")
    assert label_is_scan("sscan")
    assert label_is_scan("ptmpposca")
    assert not label_is_scan("dosAttack")
    assert not label_is_scan("DDoS")
    assert not label_is_scan("ntscICMP")  # excluded despite the scan prefix
    assert not label_is_scan("heavyHitter")
    assert not label_is_scan("")


def test_filter_keeps_only_scan_entries() -> None:
    gt = GroundTruthSet(
        [
            _entry("ntscSYN", src=("10.0.0.1",)),
            _entry("dosAttack", src=("10.0.0.2",)),
            _entry("ntscICMP", src=("10.0.0.3",)),
            _entry("heavyHitter", src=("10.0.0.4",), category=Category.BENIGN),
            _entry("ptscFIN", dst=("10.0.0.5",)),
        ]
    )
    kept = filter_scan_labels(gt)
    assert [e.taxonomy_label for e in kept.entries] == ["ntscSYN", "ptscFIN"]


@given(
    st.lists(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
            max_size=12,
        ),
        max_size=20,
    )
)
def test_filter_never_adds_entries(labels: list[str]) -> None:
    gt = GroundTruthSet([_entry(label, src=("10.0.0.1",)) for label in labels])
    kept = filter_scan_labels(gt)
    assert len(kept.entries) <= len(gt.entries)
    assert set(kept.entries) <= set(gt.entries)


def _universe(n: int) -> set:
    return {ip(f"10.1.{i // 250}.{i % 250 + 1}") for i in range(n)}


def test_confusion_perfect_detector() -> None:
    universe = _universe(10)
    truth = set(list(universe)[:2])
    matrix = confusion(truth, truth, universe)
    assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (2, 0, 0, 8)
    assert matrix.total == 10


def test_confusion_disjoint_sets() -> None:
    a, b, c = ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3")
    matrix = confusion({a}, {b}, {a, b, c})
    assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (0, 1, 1, 1)


def test_confusion_truth_outside_universe_is_ignored() -> None:
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    matrix = confusion({a}, {a, ip("192.0.2.99")}, {a, b})
    assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (1, 0, 0, 1)


def test_confusion_empty_universe_rejected() -> None:
    with pytest.raises(ValueError, match="universe"):
        confusion(set(), set(), set())


def test_confusion_detected_outside_universe_rejected() -> None:
    a = ip("10.0.0.1")
    with pytest.raises(ValueError, match="outside"):
        confusion({ip("192.0.2.1")}, set(), {a})


def test_confusion_matches_set_algebra_oracle(rng: random.Random) -> None:
    universe = sorted(_universe(50), key=lambda a: int(a))
    for _ in range(20):
        detected = {a for a in universe if rng.random() < 0.3}
        truth = {a for a in universe if rng.random() < 0.3}
        matrix = confusion(detected, truth, set(universe))
        assert matrix.tp == len(detected & truth)
        assert matrix.fp == len(detected - truth)
        assert matrix.fn == len(truth - detected)
        assert matrix.tn == len(set(universe) - detected - truth)
        assert matrix.total == 50


def test_precision_recall_basic() -> None:
    score = precision_recall(ConfusionMatrix(tp=3, fp=0, fn=1, tn=10))
    assert score.recall == 0.75
    assert score.precision == 1.0


def test_precision_recall_degenerate_cases() -> None:
    score = precision_recall(ConfusionMatrix(tp=0, fp=5, fn=0, tn=10))
    assert score.recall is None
    assert score.precision == 0.0
    score = precision_recall(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
    assert score.recall is None
    assert score.precision is None


def test_precision_recall_published_magnitude() -> None:
    score = precision_recall(ConfusionMatrix(tp=293, fp=0, fn=707, tn=0))
    assert score.recall == pytest.approx(0.293, abs=1e-12)


@given(
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.integers(1, 9),
)
def test_precision_recall_scale_free(tp: int, fp: int, fn: int, k: int) -> None:
    base = precision_recall(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=7))
    scaled = precision_recall(ConfusionMatrix(tp=tp * k, fp=fp * k, fn=fn * k, tn=7 * k))
    assert base == scaled


# Hand-computed three-case fixture. Scanner A is in ground truth, scanner
# B is not, host C only appears in a DoS entry, D is C's peer, and the
# scan victims fill out the universe.
A, B, C, D = "203.0.113.1", "203.0.113.2", "10.0.0.1", "10.0.0.2"


def _fixture_flows() -> list:
    flows = [
        mk_flow(src=A, dst=f"10.0.1.{i % 250 + 1}", dport=80, first=i)
        for i in range(150)
    ]
    flows += [
        mk_flow(src=B, dst=f"10.0.2.{i % 250 + 1}", dport=80, first=i)
        for i in range(150)
    ]
    flows += [mk_flow(src=C, dst=D, first=1000 + i) for i in range(3)]
    flows += [mk_flow(src=D, dst=C, first=2000 + i) for i in range(3)]
    return flows


def _fixture_gt() -> GroundTruthSet:
    return GroundTruthSet(
        [
            _entry("ntscSYN", src=(A,)),
            _entry("dosAttack", src=(C,)),
        ]
    )


def _fixture_detected() -> set:
    verdicts = detect(_fixture_flows(), DetectorConfig(slices=SLICES, threshold=100))
    return {addr for addr, _ in anomalous_ips(verdicts)}


def test_fixture_detects_both_scanners() -> None:
    assert _fixture_detected() == {ip(A), ip(B)}


def _fixture_universe() -> set:
    return trace_universe(_fixture_flows())


def test_case1_hand_computed() -> None:
    result = evaluate_case(
        EvalCase.RAW, _fixture_detected(), _fixture_gt(), _fixture_universe()
    )
    # universe: 2 scanners + 2 chatting hosts + 150 + 150 victims = 304
    assert result.matrix == ConfusionMatrix(tp=1, fp=1, fn=1, tn=301)
    assert result.score == PRScore(recall=0.5, precision=0.5)
    assert result.reintegrated == 0


def test_case2_hand_computed() -> None:
    result = evaluate_case(
        EvalCase.FILTERED, _fixture_detected(), _fixture_gt(), _fixture_universe()
    )
    assert result.matrix == ConfusionMatrix(tp=1, fp=1, fn=0, tn=302)
    assert result.score == PRScore(recall=1.0, precision=0.5)


def test_case3_hand_computed() -> None:
    detected = _fixture_detected()
    result = evaluate_case(
        EvalCase.FILTERED_PLUS_RULES,
        detected,
        _fixture_gt(),
        _fixture_universe(),
        classifications=classify_all(detected, _fixture_flows(), RULES, SLICES),
    )
    assert result.reintegrated == 1
    assert result.matrix == ConfusionMatrix(tp=2, fp=0, fn=0, tn=302)
    assert result.score == PRScore(recall=1.0, precision=1.0)


def test_case2_recall_at_least_case1_with_nonscan_truth() -> None:
    case1 = evaluate_case(
        EvalCase.RAW, _fixture_detected(), _fixture_gt(), _fixture_universe()
    )
    case2 = evaluate_case(
        EvalCase.FILTERED, _fixture_detected(), _fixture_gt(), _fixture_universe()
    )
    assert case2.score.recall >= case1.score.recall


def test_case3_never_worse_than_case2(rng: random.Random) -> None:
    flows = _fixture_flows()
    universe = trace_universe(flows)
    gt = _fixture_gt()
    for _ in range(10):
        detected = {a for a in universe if rng.random() < 0.05} | {ip(A)}
        case2 = evaluate_case(EvalCase.FILTERED, detected, gt, universe)
        case3 = evaluate_case(
            EvalCase.FILTERED_PLUS_RULES,
            detected,
            gt,
            universe,
            classifications=classify_all(detected, flows, RULES, SLICES),
        )
        if case2.score.precision is not None:
            assert case3.score.precision >= case2.score.precision
        if case2.score.recall is not None:
            assert case3.score.recall >= case2.score.recall


def test_case3_all_fps_confirmed_gives_perfect_precision() -> None:
    detected = _fixture_detected()
    gt = GroundTruthSet([_entry("ntscSYN", src=("198.51.100.77",))])  # not in trace
    result = evaluate_case(
        EvalCase.FILTERED_PLUS_RULES,
        detected,
        gt,
        _fixture_universe(),
        classifications=classify_all(detected, _fixture_flows(), RULES, SLICES),
    )
    assert result.reintegrated == 2
    assert result.score.precision == 1.0


def test_case3_requires_rule_inputs() -> None:
    with pytest.raises(ValueError, match="case 3 candidates are not classified"):
        evaluate_case(
            EvalCase.FILTERED_PLUS_RULES,
            _fixture_detected(),
            _fixture_gt(),
            _fixture_universe(),
        )


def test_case3_classifications_missing_a_candidate_raise() -> None:
    # B is the only false positive; classify A alone
    partial = classify_all({ip(A)}, _fixture_flows(), RULES, SLICES)
    with pytest.raises(ValueError, match="1 case 3 candidates are not classified"):
        evaluate_case(
            EvalCase.FILTERED_PLUS_RULES,
            _fixture_detected(),
            _fixture_gt(),
            _fixture_universe(),
            classifications=partial,
        )


def test_directional_mode_distinguishes_sides() -> None:
    universe = _fixture_universe()
    gt = GroundTruthSet([_entry("ntscSYN", dst=(A,))])  # wrong side on purpose
    detected_pairs = {(ip(A), Direction.SENDER)}
    result = evaluate_case(
        EvalCase.FILTERED, detected_pairs, gt, universe, directional=True
    )
    assert result.matrix.tp == 0
    assert result.matrix.fp == 1
    right_side = GroundTruthSet([_entry("ntscSYN", src=(A,))])
    result = evaluate_case(
        EvalCase.FILTERED, detected_pairs, right_side, universe, directional=True
    )
    assert result.matrix.tp == 1
    assert result.matrix.fp == 0


def test_directional_universe_doubles() -> None:
    universe = trace_universe([mk_flow(src=C, dst=D)])
    result = evaluate_case(
        EvalCase.RAW, set(), GroundTruthSet([]), universe, directional=True
    )
    assert result.matrix.total == 4


def test_aggregate_single_score() -> None:
    recall, precision = aggregate([PRScore(recall=0.5, precision=1.0)])
    assert recall == AggregateScore(mean=0.5, variance=0.0, n_traces=1, excluded=0)
    assert precision.mean == 1.0


def test_aggregate_two_scores_hand_arithmetic() -> None:
    recall, _ = aggregate(
        [PRScore(recall=0.2, precision=1.0), PRScore(recall=0.4, precision=1.0)]
    )
    assert recall.mean == pytest.approx(0.3, abs=1e-12)
    assert recall.variance == pytest.approx(0.01, abs=1e-12)
    assert recall.n_traces == 2


def test_aggregate_eight_equal_scores() -> None:
    recall, precision = aggregate([PRScore(recall=0.7, precision=0.9)] * 8)
    assert recall.variance == 0.0
    assert precision.variance == 0.0
    assert recall.n_traces == 8


def test_aggregate_excludes_undefined_with_count() -> None:
    recall, precision = aggregate(
        [
            PRScore(recall=None, precision=0.5),
            PRScore(recall=0.8, precision=None),
            PRScore(recall=0.6, precision=0.5),
        ]
    )
    assert recall.mean == pytest.approx(0.7)
    assert recall.n_traces == 2
    assert recall.excluded == 1
    assert precision.excluded == 1


_SCORES = st.one_of(
    st.none(), st.sampled_from([0.0, 1.0, 5e-324, 1e-310]), st.floats(0.0, 1.0)
)


@settings(max_examples=300)
@given(st.lists(_SCORES, min_size=1).map(lambda v: v + v[: len(v) // 2]))
def test_aggregate_values_match_statistics(values: list) -> None:
    """The mean is statistics.fmean's and the variance the exact population
    variance rounded once, which is statistics.pvariance's since 3.11."""
    included = [v for v in values if v is not None]
    got = _aggregate_values(values)
    assert (got.n_traces, got.excluded) == (len(included), len(values) - len(included))
    if not included:
        assert got.mean is got.variance is None
        return
    exact = [Fraction(v) for v in included]
    mu = sum(exact) / len(exact)
    assert got.mean == statistics.fmean(included)
    assert got.variance == float(sum((x - mu) ** 2 for x in exact) / len(exact))
    if sys.version_info >= (3, 11):  # 3.10's pvariance rounds along the way
        assert got.variance == statistics.pvariance(included)


def test_aggregate_all_undefined_is_an_error() -> None:
    with pytest.raises(ValueError, match="aggregate"):
        aggregate([PRScore(recall=None, precision=None)])


def test_report_layout_golden() -> None:
    rows = [
        EvalRow(
            trace_id="t1",
            case=EvalCase.FILTERED,
            threshold=50.0,
            source="anomalous",
            result=CaseResult(
                matrix=ConfusionMatrix(tp=2, fp=1, fn=1, tn=6),
                score=PRScore(recall=2 / 3, precision=2 / 3),
            ),
        ),
    ]
    buffer = io.StringIO()
    write_report(buffer, rows)
    assert buffer.getvalue().splitlines() == [
        "trace_id,case,threshold,source,tp,fp,fn,tn,reintegrated,recall,precision",
        "t1,2,50,anomalous,2,1,1,6,0,0.6666666666666666,0.6666666666666666",
        "# aggregate",
        "case,threshold,source,metric,mean,variance,traces,excluded",
        "2,50,anomalous,recall,0.6666666666666666,0.0,1,0",
        "2,50,anomalous,precision,0.6666666666666666,0.0,1,0",
    ]


def test_report_renders_undefined() -> None:
    rows = [
        EvalRow(
            trace_id="t",
            case=EvalCase.RAW,
            threshold=200.0,
            source="notice",
            result=CaseResult(
                matrix=ConfusionMatrix(tp=0, fp=0, fn=0, tn=5),
                score=PRScore(recall=None, precision=None),
            ),
        )
    ]
    buffer = io.StringIO()
    write_report(buffer, rows)
    text = buffer.getvalue()
    assert "t,1,200,notice,0,0,0,5,0,undefined,undefined" in text
    assert "1,200,notice,recall,undefined,undefined,0,1" in text
