from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import signal
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowscan.cli
import flowscan.engine
from flowscan.cli import (
    BENCH_HEADER,
    BENCH_SUMMARY_HEADER,
    EXIT_CONFIG,
    EXIT_GROUND_TRUTH,
    EXIT_IO,
    EXIT_OK,
    VERDICT_HEADER,
    _iso,
    _hashed,
    _resolve_config,
    _sha256,
    build_parser,
    main,
    manifest_path_for,
)
from flowscan.config import AppConfig
from flowscan.core import SliceConfig
from flowscan.ingest import write_flow_file
from flowscan.rules import RuleConfig, ScanLabel, classify

from helpers import assert_no_child, ip, mk_flow

S = 1_000_000


@pytest.fixture
def scan_trace(tmp_path):
    """One scanner bursting in slice 0 over quiet ring chatter."""
    flows = [
        mk_flow(src="198.51.100.9", dst=f"10.0.0.{i % 120 + 1}", dport=80, first=i * 7)
        for i in range(120)
    ]
    flows += [mk_flow(src="10.0.0.1", dst="10.0.0.2", first=40 * S)]
    flows += [mk_flow(src="10.0.0.2", dst="10.0.0.1", first=41 * S)]
    flows.sort(key=lambda f: f.first_seen_us)
    path = tmp_path / "scan.flows.csv"
    write_flow_file(path, flows)
    return path


GT_XML = """<?xml version="1.0" encoding="UTF-8"?>
<data>
  <anomaly type="anomalous" value="ntscSYN">
    <filter src_ip="198.51.100.9"/>
  </anomaly>
</data>
"""


@pytest.fixture
def gt_path(tmp_path):
    path = tmp_path / "scan.anomalous.xml"
    path.write_text(GT_XML, encoding="utf-8")
    return path


def test_detect_golden_output(scan_trace, tmp_path, capsys) -> None:
    out = tmp_path / "verdicts.csv"
    code = main(
        ["detect", str(scan_trace), "-o", str(out), "--trace-start-us", "0"]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# manifest=verdicts.csv.manifest.json"
    assert lines[1] == VERDICT_HEADER
    assert lines[2] == (
        "0,198.51.100.9,sender,120,0,120.0,netscan;netscan_and_portscan"
    )
    assert len(lines) == 3
    assert "1 verdicts from 122 flows" in capsys.readouterr().out


def test_detect_manifest_digests(scan_trace, gt_path, tmp_path) -> None:
    """detect, evaluate and bench each name their manifest on the output's
    first line, and the manifest of each command, synth included, digests
    every input and output."""
    keys = {"tool", "version", "command", "config", "inputs", "outputs"}
    keys |= {"started_at", "finished_at", "ingest"}
    sha256 = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    for command, flags, inputs, extra_keys in (
        ("detect", [str(scan_trace)], [scan_trace], {"stats"}),
        ("evaluate", ["--trace", f"{scan_trace},{gt_path}"], [scan_trace, gt_path], set()),
        ("bench", [str(scan_trace), "--workers", "2,1", "--reps", "2"], [scan_trace], {"bench"}),
    ):
        out = tmp_path / f"{command}.csv"
        assert main([command, *flags, "-o", str(out)]) == EXIT_OK
        first_line = out.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == f"# manifest={command}.csv.manifest.json"
        manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
        assert set(manifest) == keys | extra_keys
        assert manifest["tool"] == "flowscan"
        assert manifest["command"] == command
        assert manifest["config"]["threshold"] == 100.0
        assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
        assert manifest["outputs"] == {str(out): sha256(out)}
        assert manifest["ingest"] == {
            str(scan_trace): {
                "rows_read": 122,
                "rows_skipped": 0,
                "first_skipped_lines": [],
                "late_dropped": 0,
            }
        }
        if command == "detect":
            assert manifest["stats"]["records_in"] == 122
        if command == "bench":
            # The sweep as given, not the config's engine.workers.
            assert manifest["bench"] == {"workers": [2, 1], "reps": 2}
            assert manifest["config"]["workers"] == 1
    spec = tmp_path / "trace.ini"
    spec.write_text("[trace]\nslices = 2\n[background]\nhosts = 10\n", encoding="utf-8")
    base = tmp_path / "synth"
    assert main(["synth", str(spec), "-o", str(base), "--seed", "4"]) == EXIT_OK
    manifest = json.loads(manifest_path_for(base).read_text(encoding="utf-8"))
    assert set(manifest) == keys - {"ingest"}
    assert (manifest["command"], manifest["config"]) == ("synth", {"seed": 4})
    assert manifest["inputs"] == {str(spec): sha256(spec)}
    made = [tmp_path / f"synth{s}" for s in (".flows.csv", ".anomalous.xml", ".notice.xml")]
    assert manifest["outputs"] == {str(p): sha256(p) for p in made}


@pytest.mark.parametrize("size", [0, 3 * (1 << 16) + 5])
def test_sha256_matches_one_read(tmp_path, size) -> None:
    """The manifest digests, which the hasher child reads in blocks, are
    the digests of the whole files: an input hashed while the job runs,
    an output once it is written."""
    data = random.Random(size).randbytes(size)
    path, out = tmp_path / "data.bin", tmp_path / "out.bin"
    path.write_bytes(data)
    with _hashed([path], [out]) as digests:
        out.write_bytes(data[::-1])
        found, made = digests()
    assert found == {str(path): hashlib.sha256(data).hexdigest()}
    assert made == {str(out): hashlib.sha256(data[::-1]).hexdigest()}
    assert _sha256(path) == hashlib.sha256(data).hexdigest()


def test_manifest_digests_without_fork(scan_trace, tmp_path, monkeypatch) -> None:
    """Where the platform cannot fork, the digests are made in this process."""
    monkeypatch.delattr(os, "fork")
    out = tmp_path / "verdicts.csv"
    assert main(["detect", str(scan_trace), "-o", str(out)]) == EXIT_OK
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    sha256 = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["inputs"] == {str(scan_trace): sha256(scan_trace)}
    assert manifest["outputs"] == {str(out): sha256(out)}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_input_is_recorded_without_a_digest(scan_trace, tmp_path) -> None:
    """An input that is a pipe, as a shell's `<(...)` gives, is left to
    the job: the hasher child reads none of its rows, even when they
    arrive while the job runs, and the manifest records it without a
    digest, not as the digest of an empty file."""
    out = tmp_path / "piped.csv"
    # The file in 20 pieces, 20 ms apart.
    writer = (
        "import sys, time; data = open(sys.argv[1], 'rb').read(); step = -(-len(data) // 20)\n"
        "for at in range(0, len(data), step):\n"
        "    sys.stdout.buffer.write(data[at:at + step]); sys.stdout.flush(); time.sleep(0.02)"
    )
    argv = [sys.executable, "-c", writer, str(scan_trace)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as pipe:
        path = f"/dev/fd/{pipe.stdout.fileno()}"
        assert main(["detect", path, "-o", str(out), "--trace-start-us", "0"]) == EXIT_OK
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["ingest"][path]["rows_read"] == 122
    assert manifest["inputs"] == {path: None}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_input_ends_and_is_recorded_without_a_digest(scan_trace, tmp_path) -> None:
    """detect on a named pipe exits once it has written its outputs: the
    hasher never opens the pipe again, which would block with no writer
    left. Its verdicts are those of the same rows read from a file."""
    fifo = tmp_path / "flows.fifo"
    os.mkfifo(fifo)
    out, expected = tmp_path / "fifo.csv", tmp_path / "file.csv"
    assert main(["detect", str(scan_trace), "-o", str(expected)]) == EXIT_OK
    copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(scan_trace), str(fifo)])

    def timed_out(*args):
        pytest.fail("detect on a named pipe did not end")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        assert main(["detect", str(fifo), "-o", str(out)]) == EXIT_OK
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.kill()
        writer.wait()
    assert_no_child()
    body = lambda path: path.read_text(encoding="utf-8").splitlines()[1:]
    assert body(out) == body(expected)
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(fifo): None}


def test_no_child_outlives_main(scan_trace, gt_path, tmp_path, monkeypatch, capfd) -> None:
    """main ends and reaps the hasher child and the count workers on every
    way out: success, an error of each kind raised after the fork, a
    hasher that dies without answering, a count worker that fails, and ^C.
    Each error is one stderr line, the children's none."""
    bad_flows = tmp_path / "bad.flows.csv"
    bad_flows.write_text("not,a,flow,header\n", encoding="utf-8")
    empty_flows = tmp_path / "empty.flows.csv"
    empty_flows.write_text(scan_trace.read_text(encoding="utf-8").splitlines()[0] + "\n")
    bad_gt = tmp_path / "bad.anomalous.xml"
    bad_gt.write_text(GT_XML.replace("198.51.100.9", "10.0.0.300"), encoding="utf-8")
    bad_spec = tmp_path / "bad.ini"
    bad_spec.write_text("[trace]\nslices = 0\n", encoding="utf-8")
    out = str(tmp_path / "out.csv")
    evaluate = ["evaluate", "--trace", f"{scan_trace},{gt_path}"]
    for code, kind, argv in (
        (EXIT_OK, None, ["detect", str(scan_trace), "--mode", "stream"]),
        (EXIT_OK, None, [*evaluate, "--case", "3"]),
        (EXIT_IO, "io", ["detect", str(bad_flows)]),
        (EXIT_IO, "io", ["bench", str(empty_flows), "--workers", "1,2", "--reps", "1"]),
        (EXIT_CONFIG, "config", [*evaluate, "--case", "9"]),
        (EXIT_CONFIG, "config", ["synth", str(bad_spec)]),
        (EXIT_GROUND_TRUTH, "ground-truth",
         ["evaluate", "--trace", f"{scan_trace},{bad_gt}", "--strict"]),
    ):
        assert main([*argv, "-o", out]) == code, argv
        assert_no_child()
        err = capfd.readouterr().err.splitlines()
        if kind is None:
            assert err == []
        else:
            assert len(err) == 1 and err[0].startswith(f"flowscan: error kind={kind} "), err

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(flowscan.cli, "_detect", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["detect", str(scan_trace), "-o", out])
    assert_no_child()
    monkeypatch.undo()

    def broken(path):
        raise OSError(f"{path}: unreadable")

    # The forked child inherits the patch, so it dies without answering.
    monkeypatch.setattr(flowscan.cli, "_sha256", broken)
    assert main(["detect", str(scan_trace), "-o", out]) == EXIT_IO
    assert_no_child()
    (line,) = capfd.readouterr().err.splitlines()
    assert line == (
        "flowscan: error kind=io exit=1 detail=the manifest's hasher process ended without digests"
    )
    monkeypatch.undo()
    parent, count_flows = os.getpid(), flowscan.engine.count_flows

    def broken_in_workers(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker crashed")
        return count_flows(*args)

    monkeypatch.setattr(flowscan.engine, "count_flows", broken_in_workers)
    assert main(["detect", str(scan_trace), "-o", out, "--workers", "2"]) == EXIT_IO
    assert_no_child()
    (line,) = capfd.readouterr().err.splitlines()
    assert line == (
        "flowscan: error kind=io exit=1 detail=count worker failed after 0 of 1 partitions: "
        "worker crashed"
    )


# Run in a fresh interpreter: prints which of the late imports are loaded
# after `import flowscan.cli` and when `cli._write_manifest` is called,
# after the job, runs the command line on its arguments, then prints which
# of the modules that this process never needs are loaded: OpenSSL, which
# only the hasher child loads, multiprocessing, which the forked count
# workers do without, and what only bench and synth need.
_LATE_IMPORTS_SCRIPT = """
import sys
import flowscan.cli as cli
late = ("xml.etree.ElementTree",)
never = ("_hashlib", "datetime", "statistics", "decimal", "fractions", "multiprocessing")
print([name for name in late if name in sys.modules])
write_manifest = cli._write_manifest
def checked(*args, **kwargs):
    print([name for name in late if name in sys.modules])
    return write_manifest(*args, **kwargs)
cli._write_manifest = checked
code = cli.main(sys.argv[1:])
print([name for name in never if name in sys.modules])
sys.exit(code)
"""


def _late_imports(*argv: str) -> list[str]:
    """The lines _LATE_IMPORTS_SCRIPT prints for a run on `argv`. A fresh
    process, since this test module imports hashlib and datetime itself."""
    src = Path(flowscan.cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _LATE_IMPORTS_SCRIPT, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    return done.stdout.splitlines()


def test_detect_job_loads_neither_digest_nor_xml_code(scan_trace, tmp_path) -> None:
    """OpenSSL, the XML parser, datetime, statistics and multiprocessing
    never load in a detect process, in stream mode or with count workers:
    the manifest's digests are made in a forked child."""
    for flags in (["--mode", "stream"], ["--workers", "2"]):
        out = tmp_path / f"{flags[-1]}.csv"
        at_import, at_manifest, summary, at_end = _late_imports(
            "detect", str(scan_trace), "-o", str(out), *flags
        )
        assert at_import == at_manifest == at_end == "[]", flags
        assert summary.startswith("1 verdicts from 122 flows")
        manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
        assert manifest["inputs"] == {str(scan_trace): _sha256(scan_trace)}


def test_evaluate_job_loads_no_digest_code(scan_trace, gt_path, tmp_path) -> None:
    """evaluate --case 3 reads its ground truth as XML, but OpenSSL,
    datetime and statistics never load in its process."""
    out = tmp_path / "report.csv"
    at_import, at_manifest, summary, at_end = _late_imports(
        "evaluate", "--trace", f"{scan_trace},{gt_path}", "--case", "3", "-o", str(out)
    )
    assert at_import == at_end == "[]"
    assert at_manifest == "['xml.etree.ElementTree']"
    assert summary.startswith("3 report rows")


@settings(max_examples=200)
@given(
    st.one_of(
        st.integers(0, 2**34).map(float),
        # ties: (us + 0.5) microseconds past a whole second
        st.builds(
            lambda s, us: s + (us + 0.5) / 1e6, st.integers(0, 2**20), st.integers(0, 999_999)
        ),
        st.floats(0, 2**34),
    )
)
def test_iso_matches_datetime(ts: float) -> None:
    """The manifest's timestamps read as datetime would write them."""
    assert _iso(ts) == datetime.fromtimestamp(ts, timezone.utc).isoformat()


def test_detect_is_idempotent(scan_trace, tmp_path) -> None:
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["detect", str(scan_trace), "-o", str(first), "--workers", "2"])
    main(["detect", str(scan_trace), "-o", str(second), "--workers", "2"])
    strip = lambda p: p.read_text(encoding="utf-8").splitlines()[1:]
    assert strip(first) == strip(second)


def test_detect_stream_mode_matches_batch(scan_trace, tmp_path) -> None:
    batch = tmp_path / "batch.csv"
    stream = tmp_path / "stream.csv"
    main(["detect", str(scan_trace), "-o", str(batch), "--trace-start-us", "0"])
    main(
        [
            "detect",
            str(scan_trace),
            "-o",
            str(stream),
            "--trace-start-us",
            "0",
            "--mode",
            "stream",
        ]
    )
    tail = lambda p: p.read_text(encoding="utf-8").splitlines()[1:]
    assert tail(stream) == tail(batch)


def _late_trace(scan_trace, tmp_path, late: int | None):
    """The trace with its first `late` slice-0 rows moved to the end, past
    the flows that close slice 0; late=None shuffles every row instead."""
    lines = scan_trace.read_text(encoding="utf-8").splitlines()
    rows = lines[1:]
    if late is None:
        random.Random(3).shuffle(rows)
    else:
        rows = rows[late:] + rows[:late]
    path = tmp_path / "late.flows.csv"
    path.write_text("\n".join([lines[0], *rows]) + "\n", encoding="utf-8")
    return path


def test_detect_stream_reports_late_drops(scan_trace, tmp_path, capsys) -> None:
    # 12 of 122 flows late is under the 10% limit.
    late_trace = _late_trace(scan_trace, tmp_path, 12)
    out = tmp_path / "stream.csv"
    assert main(["detect", str(late_trace), "-o", str(out), "--mode", "stream"]) == EXIT_OK
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["stats"]["late_dropped"] == 12
    assert manifest["ingest"][str(late_trace)]["late_dropped"] == 12
    assert "122 flows, 12 late flows dropped ->" in capsys.readouterr().out

    batch = tmp_path / "b.csv"
    assert main(["detect", str(late_trace), "-o", str(batch)]) == EXIT_OK
    assert "late" not in capsys.readouterr().out
    manifest = json.loads(manifest_path_for(batch).read_text(encoding="utf-8"))
    assert manifest["ingest"][str(late_trace)]["late_dropped"] == 0


def test_bench_stream_reports_late_drops(scan_trace, tmp_path, capsys) -> None:
    """bench names the late flows of its stream runs as detect does, and
    records them in its manifest's ingest record."""
    config = tmp_path / "stream.ini"
    config.write_text("[engine]\nmode = stream\n", encoding="utf-8")
    late_trace = _late_trace(scan_trace, tmp_path, 12)
    out = tmp_path / "bench.csv"
    bench = ["bench", str(late_trace), "-o", str(out), "--workers", "1", "--reps", "1"]
    assert main([*bench, "--config", str(config)]) == EXIT_OK
    assert "workers [1], 12 late flows dropped ->" in capsys.readouterr().out
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["ingest"][str(late_trace)]["late_dropped"] == 12


@pytest.mark.parametrize(
    "late, dropped", [(13, 13), (None, 86)], ids=["just-over", "shuffled"]
)
def test_detect_stream_too_many_late_flows_exits_1(
    scan_trace, tmp_path, capsys, late, dropped
) -> None:
    late_trace = _late_trace(scan_trace, tmp_path, late)
    out = tmp_path / "stream.csv"
    code = main(["detect", str(late_trace), "-o", str(out), "--mode", "stream"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("flowscan: error kind=io exit=1 detail=")
    assert err.count("\n") == 1
    assert f"{dropped} of 122 flows arrived after their slice closed" in err
    assert "--mode" not in err  # evaluate has no such flag
    assert not out.exists()
    assert not manifest_path_for(out).exists()


def test_evaluate_follows_engine_mode(scan_trace, gt_path, tmp_path, monkeypatch, capsys) -> None:
    """evaluate runs the detect job in the mode its config names: in stream
    mode it counts late flows and enforces the late-flow limit as detect does."""
    config = tmp_path / "stream.ini"
    config.write_text("[engine]\nmode = stream\n", encoding="utf-8")
    streamed = []
    run_streaming = flowscan.cli.run_streaming

    def counted(*args):
        streamed.append(1)
        return run_streaming(*args)

    monkeypatch.setattr(flowscan.cli, "run_streaming", counted)
    tail = lambda p: p.read_text(encoding="utf-8").splitlines()[1:]

    batch, stream = tmp_path / "batch.csv", tmp_path / "stream.csv"
    assert main(_eval_args(scan_trace, gt_path, batch, "--case", "3")) == EXIT_OK
    assert streamed == []
    args = _eval_args(scan_trace, gt_path, stream, "--case", "3", "--config", str(config))
    assert main(args) == EXIT_OK
    assert streamed == [1]
    assert tail(stream) == tail(batch)
    assert "late" not in capsys.readouterr().out

    # 12 of 122 flows late is under the 10% limit.
    late_trace = _late_trace(scan_trace, tmp_path, 12)
    for out, flags, late in (("late.csv", ["--config", str(config)], 12), ("late.batch.csv", [], 0)):
        out = tmp_path / out
        assert main(_eval_args(late_trace, gt_path, out, *flags)) == EXIT_OK
        note = ", 12 late flows dropped" if late else ""
        assert f"3 report rows{note} ->" in capsys.readouterr().out
        manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
        assert manifest["ingest"][str(late_trace)]["late_dropped"] == late

    out = tmp_path / "shuffled.csv"
    shuffled = _late_trace(scan_trace, tmp_path, None)
    assert main(_eval_args(shuffled, gt_path, out, "--config", str(config))) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("flowscan: error kind=io exit=1 detail=")
    assert err.count("\n") == 1
    assert "86 of 122 flows arrived after their slice closed" in err
    assert not out.exists()
    assert not manifest_path_for(out).exists()


def test_detect_labels_only_sender_rows(tmp_path) -> None:
    """An IP flagged only as a receiver gets no labels on its verdict rows,
    even when its own outbound flows trip a rule."""
    victim = "10.9.9.9"
    # Slice 0: 120 hosts each send the victim one flow, a receiver verdict.
    flows = [mk_flow(src=f"10.1.0.{i + 1}", dst=victim, first=i * 7) for i in range(120)]
    # Slice 1: the victim probes one host on 15 ports, too few flows to flag.
    flows += [
        mk_flow(src=victim, dst="10.8.8.8", dport=port, first=40 * S + port)
        for port in range(1, 16)
    ]
    trace = tmp_path / "victim.flows.csv"
    write_flow_file(trace, flows)
    slices = SliceConfig(trace_start_us=0, slice_seconds=30)
    assert classify(ip(victim), flows, RuleConfig(), slices).labels == {ScanLabel.PORTSCAN}

    out = tmp_path / "v.csv"
    assert main(["detect", str(trace), "-o", str(out), "--trace-start-us", "0"]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines()[2:] == [
        f"0,{victim},receiver,0,120,-120.0,"
    ]


def test_rules_run_only_where_labels_are_read(tmp_path, gt_path, monkeypatch) -> None:
    """detect and each bench rep classify the flagged senders once; evaluate
    classifies each trace's flagged IPs once in case 3 and never in cases 1
    and 2, which read no labels."""
    scanner, victim = "198.51.100.9", "10.9.9.9"
    # Slice 0: the scanner sends 120 hosts one flow each, and 120 other
    # hosts each send the victim one flow: a sender and a receiver verdict.
    flows = [mk_flow(src=scanner, dst=f"10.0.0.{i + 1}", first=i * 7) for i in range(120)]
    flows += [mk_flow(src=f"10.1.0.{i + 1}", dst=victim, first=i * 7 + 1) for i in range(120)]
    flows.sort(key=lambda f: f.first_seen_us)
    traces = [tmp_path / f"{name}.flows.csv" for name in ("a", "b")]
    for trace in traces:
        write_flow_file(trace, flows)
    calls: list[set] = []
    classify_all = flowscan.cli.classify_all

    def counted(ips, *args):
        calls.append(set(ips))
        return classify_all(ips, *args)

    monkeypatch.setattr(flowscan.cli, "classify_all", counted)
    out = str(tmp_path / "out.csv")
    assert main(["detect", str(traces[0]), "-o", out, "--threshold", "50"]) == EXIT_OK
    assert calls == [{ip(scanner)}]
    calls.clear()
    bench = ["bench", str(traces[0]), "-o", out, "--workers", "1", "--reps", "2"]
    assert main([*bench, "--threshold", "50"]) == EXIT_OK
    assert calls == [{ip(scanner)}] * 2
    evaluate = ["evaluate", *(f"--trace={t},{gt_path}" for t in traces), "-o", out]
    for case, expected in (("1", []), ("2", []), ("3", [{ip(scanner), ip(victim)}] * 2)):
        calls.clear()
        assert main([*evaluate, "--case", case, "--thresholds", "50,100"]) == EXIT_OK
        assert calls == expected, case


@pytest.mark.parametrize(
    "extra",
    [(), ("--workers", "2"), ("--mode", "stream")],
    ids=["batch", "workers2", "stream"],
)
def test_detect_pre_start_flow_exits_2(scan_trace, tmp_path, capsys, extra) -> None:
    out = tmp_path / "v.csv"
    code = main(
        ["detect", str(scan_trace), "-o", str(out), "--trace-start-us", "5", *extra]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("flowscan: error kind=config exit=2 detail=")
    assert "detector.trace_start_us 5" in err
    assert "earliest flow first_seen_us 0" in err
    assert not out.exists()


def test_detect_missing_input(tmp_path, capsys) -> None:
    out = tmp_path / "v.csv"
    code = main(["detect", str(tmp_path / "nope.csv"), "-o", str(out)])
    assert code == EXIT_IO
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("flowscan: error kind=io exit=1 detail=")


def test_detect_bad_threshold(scan_trace, tmp_path, capsys) -> None:
    code = main(
        ["detect", str(scan_trace), "-o", str(tmp_path / "v.csv"), "--threshold", "0"]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "kind=config exit=2" in err
    assert "detector.threshold" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_detect_non_finite_threshold(scan_trace, tmp_path, capsys, value) -> None:
    out = tmp_path / "v.csv"
    code = main(["detect", str(scan_trace), "-o", str(out), "--threshold", value])
    assert code == EXIT_CONFIG
    assert "detector.threshold" in capsys.readouterr().err
    assert not out.exists()


def test_detect_strict_aborts_on_malformed_line(scan_trace, tmp_path, capsys) -> None:
    mangled = tmp_path / "mangled.csv"
    text = scan_trace.read_text(encoding="utf-8").splitlines()
    text.insert(3, "garbage,line")
    mangled.write_text("\n".join(text) + "\n", encoding="utf-8")
    out = tmp_path / "v.csv"
    assert main(["detect", str(mangled), "-o", str(out), "--strict"]) == EXIT_IO
    assert "kind=io" in capsys.readouterr().err
    # lenient run shrugs it off: one bad row in 122 good ones
    assert main(["detect", str(mangled), "-o", str(out)]) == EXIT_OK


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_detect_timestamp_beyond_int64(scan_trace, tmp_path, capsys, mode) -> None:
    # A timestamp of 2**63 does not fit the int64 column: a malformed row,
    # never an OverflowError.
    lines = scan_trace.read_text(encoding="utf-8").splitlines()
    lines.insert(5, f"0,{2**63},10.0.0.7,10.0.0.8,4000,80,TCP,1,60")
    bad = tmp_path / "huge.flows.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "v.csv"
    flags = ["--mode", mode]
    assert main(["detect", str(bad), "-o", str(out), *flags, "--strict"]) == EXIT_IO
    err = capsys.readouterr().err
    assert f"kind=io exit=1 detail={bad}:6: " in err
    assert "Traceback" not in err
    assert main(["detect", str(bad), "-o", str(out), *flags]) == EXIT_OK
    assert "122 flows, 1 malformed rows skipped ->" in capsys.readouterr().out
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["ingest"][str(bad)]["first_skipped_lines"] == [6]


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_detect_non_utf8_byte(scan_trace, tmp_path, capsys, mode) -> None:
    # A byte that is not UTF-8 makes a malformed row, never a traceback.
    lines = scan_trace.read_bytes().splitlines()
    lines.insert(5, b"0,1,10.0.0.\xff,10.0.0.8,4000,80,TCP,1,60")
    bad = tmp_path / "bytes.flows.csv"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "v.csv"
    flags = ["--mode", mode]
    assert main(["detect", str(bad), "-o", str(out), *flags, "--strict"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"flowscan: error kind=io exit=1 detail={bad}:6: ")
    assert err.count("\n") == 1
    assert main(["detect", str(bad), "-o", str(out), *flags]) == EXIT_OK
    assert "122 flows, 1 malformed rows skipped ->" in capsys.readouterr().out
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["ingest"][str(bad)]["first_skipped_lines"] == [6]


def _eval_args(scan_trace, gt_path, out, *extra: str) -> list[str]:
    return [
        "evaluate",
        "--trace",
        f"{scan_trace},{gt_path}",
        "-o",
        str(out),
        "--trace-start-us",
        "0",
        *extra,
    ]


def test_evaluate_threshold_sweep_rows(scan_trace, gt_path, tmp_path) -> None:
    out = tmp_path / "report.csv"
    code = main(_eval_args(scan_trace, gt_path, out))
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# manifest=report.csv.manifest.json"
    header = lines[1]
    assert header == (
        "trace_id,case,threshold,source,tp,fp,fn,tn,reintegrated,recall,precision"
    )
    body = [l for l in lines[2:] if not l.startswith("#")]
    data_rows = body[: body.index("case,threshold,source,metric,mean,variance,traces,excluded")]
    # one trace, default sweep 50/100/200, anomalous-only source
    assert len(data_rows) == 3
    assert data_rows[0].startswith("scan,1,50,anomalous,")
    # universe is the scanner plus 120 victims (the chatty hosts are victims too);
    # the scanner's ratio of 120 clears thresholds 50 and 100 but not 200
    for row in data_rows[:2]:
        fields = row.split(",")
        assert fields[4:8] == ["1", "0", "0", "120"]
        assert fields[9] == fields[10] == "1.0"
    missed = data_rows[2].split(",")
    assert missed[2] == "200"
    assert missed[4:8] == ["0", "0", "1", "120"]
    assert missed[9] == "0.0"
    assert missed[10] == "undefined"


def test_evaluate_case3_reintegrates_unlabeled_scanner(scan_trace, tmp_path) -> None:
    empty_gt = tmp_path / "empty.xml"
    empty_gt.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<data>\n</data>\n', encoding="utf-8"
    )
    out = tmp_path / "r3.csv"
    code = main(_eval_args(scan_trace, empty_gt, out, "--case", "3"))
    assert code == EXIT_OK
    rows = [
        l
        for l in out.read_text(encoding="utf-8").splitlines()
        if l.startswith("scan,3,100,")
    ]
    fields = rows[0].split(",")
    assert fields[8] == "1"  # reintegrated
    assert fields[4] == "1" and fields[5] == "0"


def test_evaluate_notice_file_adds_sources(scan_trace, gt_path, tmp_path) -> None:
    notice = tmp_path / "scan.notice.xml"
    notice.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<data>\n'
        '  <anomaly type="notice" value="dosAttack">\n'
        '    <filter src_ip="10.0.0.1"/>\n'
        "  </anomaly>\n</data>\n",
        encoding="utf-8",
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "evaluate",
            "--trace",
            f"{scan_trace},{gt_path},{notice}",
            "-o",
            str(out),
            "--thresholds",
            "100",
        ]
    )
    assert code == EXIT_OK
    body = out.read_text(encoding="utf-8").splitlines()
    sources = [l.split(",")[3] for l in body if l.startswith("scan,")]
    assert sources == ["anomalous", "notice", "total"]


def test_evaluate_directional_flag(scan_trace, gt_path, tmp_path) -> None:
    out = tmp_path / "rd.csv"
    code = main(
        _eval_args(scan_trace, gt_path, out, "--directional", "--thresholds", "100")
    )
    assert code == EXIT_OK
    row = [
        l for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("scan,")
    ][0]
    fields = row.split(",")
    # scanner flagged as sender, truth lists it as src: still a clean hit,
    # universe doubles to (ip, direction) pairs
    assert fields[4] == "1" and fields[5] == "0"
    assert fields[7] == str(2 * 121 - 1)


@pytest.mark.parametrize("thresholds", ["nan", "50,inf", "100,nan,200"])
def test_evaluate_non_finite_thresholds(
    scan_trace, gt_path, tmp_path, capsys, thresholds
) -> None:
    out = tmp_path / "r.csv"
    code = main(_eval_args(scan_trace, gt_path, out, "--thresholds", thresholds))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "kind=config exit=2" in err
    assert "evaluation.thresholds" in err
    assert not out.exists()


@pytest.mark.parametrize("thresholds", ["100,100", "50,100,100.0", "200,50,200"])
def test_evaluate_repeated_thresholds_flag(
    scan_trace, gt_path, tmp_path, capsys, thresholds
) -> None:
    out = tmp_path / "r.csv"
    code = main(_eval_args(scan_trace, gt_path, out, "--thresholds", thresholds))
    assert code == EXIT_CONFIG
    assert "evaluation.thresholds repeats" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_repeated_thresholds_config(
    scan_trace, gt_path, tmp_path, capsys
) -> None:
    cfg = tmp_path / "dup.ini"
    cfg.write_text("[evaluation]\nthresholds = 100,50,100\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    code = main(_eval_args(scan_trace, gt_path, out, "--config", str(cfg)))
    assert code == EXIT_CONFIG
    assert "evaluation.thresholds repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "ini, field",
    [
        ("[detector]\nthreshold = nan\n", "detector.threshold"),
        ("[detector]\nthreshold = inf\n", "detector.threshold"),
        ("[evaluation]\nthresholds = 50,nan\n", "evaluation.thresholds"),
        ("[evaluation]\nthresholds = inf\n", "evaluation.thresholds"),
    ],
)
def test_non_finite_thresholds_in_config(
    scan_trace, gt_path, tmp_path, capsys, ini, field
) -> None:
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "r.csv"
    code = main(_eval_args(scan_trace, gt_path, out, "--config", str(cfg)))
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err


def _with_bad_rows(trace, tmp_path):
    """The trace with three malformed rows planted among its 122 good ones."""
    lines = trace.read_text(encoding="utf-8").splitlines()
    for at, bad in ((3, "garbage,line"), (50, "1,2,3"), (100, "x" * 40)):
        lines.insert(at, bad)
    path = tmp_path / "planted.flows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_detect_reports_skipped_rows(scan_trace, tmp_path, capsys) -> None:
    planted = _with_bad_rows(scan_trace, tmp_path)
    bench_flags = ["--workers", "1", "--reps", "1"]
    for command, flags, line in (
        ("detect", [], "122 flows, 3 malformed rows skipped ->"),
        ("bench", bench_flags, "workers [1], 3 malformed rows skipped ->"),
    ):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(planted), "-o", str(out), *flags]) == EXIT_OK
        assert line in capsys.readouterr().out
        manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
        assert manifest["ingest"] == {
            str(planted): {
                "rows_read": 122,
                "rows_skipped": 3,
                "first_skipped_lines": [4, 51, 101],
                "late_dropped": 0,
            }
        }

        clean = tmp_path / f"{command}.clean.csv"
        assert main([command, str(scan_trace), "-o", str(clean), *flags]) == EXIT_OK
        assert "malformed" not in capsys.readouterr().out
        manifest = json.loads(manifest_path_for(clean).read_text(encoding="utf-8"))
        assert manifest["ingest"] == {
            str(scan_trace): {
                "rows_read": 122,
                "rows_skipped": 0,
                "first_skipped_lines": [],
                "late_dropped": 0,
            }
        }


def test_evaluate_reports_skipped_rows(scan_trace, gt_path, tmp_path, capsys) -> None:
    planted = _with_bad_rows(scan_trace, tmp_path)
    out = tmp_path / "r.csv"
    args = [
        "evaluate",
        "--trace",
        f"{planted},{gt_path}",
        "--trace",
        f"{scan_trace},{gt_path}",
        "-o",
        str(out),
    ]
    assert main(args) == EXIT_OK
    assert "6 report rows, 3 malformed rows skipped ->" in capsys.readouterr().out
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["ingest"] == {
        str(planted): {
            "rows_read": 122,
            "rows_skipped": 3,
            "first_skipped_lines": [4, 51, 101],
            "late_dropped": 0,
        },
        str(scan_trace): {
            "rows_read": 122,
            "rows_skipped": 0,
            "first_skipped_lines": [],
            "late_dropped": 0,
        },
    }


def test_evaluate_pre_start_flow_exits_2(scan_trace, gt_path, tmp_path, capsys) -> None:
    out = tmp_path / "r.csv"
    args = _eval_args(scan_trace, gt_path, out, "--trace-start-us", "5")
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "kind=config exit=2" in err
    assert "detector.trace_start_us 5" in err
    assert "earliest flow first_seen_us 0" in err
    assert not out.exists()


def test_evaluate_without_flow_rows_exits_1(gt_path, tmp_path, capsys) -> None:
    empty = tmp_path / "empty.flows.csv"
    write_flow_file(empty, [])
    out = tmp_path / "r.csv"
    bench = ["bench", str(empty), "-o", str(out), "--workers", "1", "--reps", "1"]
    for args in (_eval_args(empty, gt_path, out), bench):
        assert main(args) == EXIT_IO
        err = capsys.readouterr().err
        assert err == (
            f"flowscan: error kind=io exit=1 detail={empty}: no accepted flow rows\n"
        )
        assert not out.exists()
    # detect has nothing to flag in it, which is no error
    assert main(["detect", str(empty), "-o", str(out)]) == EXIT_OK
    assert f"0 verdicts from 0 flows -> {out}" in capsys.readouterr().out


def test_detect_without_flow_rows_accepts_trace_start(tmp_path, capsys) -> None:
    # No flow precedes the given start when there is no flow at all.
    empty = tmp_path / "empty.flows.csv"
    write_flow_file(empty, [])
    out = tmp_path / "v.csv"
    args = ["detect", str(empty), "-o", str(out), "--trace-start-us", "5"]
    assert main(args) == EXIT_OK
    assert f"0 verdicts from 0 flows -> {out}" in capsys.readouterr().out


@pytest.mark.parametrize("second", ["same path", "copy elsewhere"])
def test_evaluate_repeated_trace_exits_2(
    scan_trace, gt_path, tmp_path, capsys, second
) -> None:
    flows = scan_trace
    if second == "copy elsewhere":
        flows = tmp_path / "copy" / scan_trace.name
        flows.parent.mkdir()
        flows.write_bytes(scan_trace.read_bytes())
    out = tmp_path / "r.csv"
    args = ["--trace", f"{scan_trace},{gt_path}", "--trace", f"{flows},{gt_path}"]
    assert main(["evaluate", *args, "-o", str(out)]) == EXIT_CONFIG
    assert "trace id 'scan' is given more than once" in _one_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target",
    [
        ("detect", "flows"),
        ("detect", "manifest"),
        ("bench", "flows"),
        ("evaluate", "flows"),
        ("evaluate", "anomalous"),
        ("evaluate", "notice"),
    ],
)
def test_output_that_is_an_input_exits_2(
    scan_trace, gt_path, tmp_path, capsys, monkeypatch, command, target
) -> None:
    """An -o that resolves to one of the command's inputs, here spelled
    through a relative path with "..", or whose manifest would, exits 2
    before anything is written."""
    notice = tmp_path / "notice.xml"
    notice.write_text(GT_XML, encoding="utf-8")
    # a flow file named like the manifest of -o v.csv
    manifest_named = tmp_path / "v.csv.manifest.json"
    manifest_named.write_bytes(scan_trace.read_bytes())
    victim = {
        "flows": scan_trace, "anomalous": gt_path, "notice": notice, "manifest": manifest_named
    }[target]
    flows = manifest_named if target == "manifest" else scan_trace
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    out = "../v.csv" if target == "manifest" else f"../{victim.name}"
    argv = {
        "detect": ["detect", str(flows), "-o", out],
        "bench": ["bench", str(flows), "-o", out, "--workers", "1", "--reps", "1"],
        "evaluate": ["evaluate", "--trace", f"{flows},{gt_path},{notice}", "-o", out],
    }[command]
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir() if p.is_file())
    assert main(argv) == EXIT_CONFIG
    assert f"-o {out} would overwrite an input of {command}" in _one_error(capsys)
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir() if p.is_file()) == before


def test_output_that_is_an_input_exits_2_before_the_input_is_read(tmp_path, capsys) -> None:
    """The -o check comes before the job: reading this flow file would
    fail on its header with exit 1, but the -o that names it exits 2."""
    flows = tmp_path / "bad.flows.csv"
    flows.write_text("not,a,flow,header\n", encoding="utf-8")
    assert main(["detect", str(flows), "-o", str(flows)]) == EXIT_CONFIG
    assert f"-o {flows} would overwrite an input of detect" in _one_error(capsys)
    assert flows.read_text(encoding="utf-8") == "not,a,flow,header\n"


def test_evaluate_bad_xml_exits_3(scan_trace, tmp_path, capsys) -> None:
    bad = tmp_path / "broken.xml"
    bad.write_text("<data><anomaly type=", encoding="utf-8")
    code = main(_eval_args(scan_trace, bad, tmp_path / "r.csv"))
    assert code == EXIT_GROUND_TRUTH
    assert "kind=ground-truth exit=3" in capsys.readouterr().err


def test_evaluate_malformed_trace_arg(tmp_path, capsys) -> None:
    code = main(
        ["evaluate", "--trace", "just-one-path", "-o", str(tmp_path / "r.csv")]
    )
    assert code == EXIT_CONFIG
    assert "kind=config" in capsys.readouterr().err


@pytest.mark.parametrize("fields", ["{flows},,{gt}", "{flows},{gt},"])
def test_evaluate_empty_trace_field_exits_2(
    scan_trace, gt_path, tmp_path, capsys, fields
) -> None:
    trace = fields.format(flows=scan_trace, gt=gt_path)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--trace", trace, "-o", str(out)]) == EXIT_CONFIG
    err = _one_error(capsys)
    assert f"--trace expects FLOWS,ANOMALOUS_XML[,NOTICE_XML], got {trace!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "attr, value", [("src_ip", "10.0.0.300"), ("dst_port", "99999"), ("src_port", "x")]
)
def test_ground_truth_bad_value_obeys_strict(
    scan_trace, gt_path, tmp_path, capsys, caplog, attr, value
) -> None:
    bad = tmp_path / "bad.anomalous.xml"
    bad.write_text(
        GT_XML.replace("</anomaly>", f'  <filter {attr}="{value}"/>\n  </anomaly>'),
        encoding="utf-8",
    )
    out = tmp_path / "r.csv"
    assert main(_eval_args(scan_trace, bad, out, "--strict")) == EXIT_GROUND_TRUTH
    err = _one_error(capsys, "ground-truth", EXIT_GROUND_TRUTH)
    assert f"detail={bad}: " in err and repr(value) in err
    assert not out.exists()

    # lenient: one warning naming the file, and the report of the clean file
    assert main(_eval_args(scan_trace, bad, out)) == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{bad}: ignoring ") and repr(value) in warnings[0]
    clean = tmp_path / "clean.csv"
    assert main(_eval_args(scan_trace, gt_path, clean)) == EXIT_OK
    # the first line names each report's own manifest
    reports = [p.read_text(encoding="utf-8").splitlines()[1:] for p in (out, clean)]
    assert reports[0] == reports[1]


def test_lenient_ground_truth_warning_is_one_prefixed_line(
    scan_trace, tmp_path, capfd, caplog
) -> None:
    bad = tmp_path / "bad.anomalous.xml"
    bad.write_text(
        GT_XML.replace("</anomaly>", '  <filter src_ip="10.0.0.999"/>\n  </anomaly>'),
        encoding="utf-8",
    )
    want = f"flowscan: warning detail={bad}: ignoring unparseable address '10.0.0.999'\n"
    # Three runs in one process: each prints its warning once, not once per
    # earlier run.
    for run in range(3):
        assert main(_eval_args(scan_trace, bad, tmp_path / f"r{run}.csv")) == EXIT_OK
        assert capfd.readouterr().err == want
    # A record below warning level is no warning line, whatever the logger's level.
    caplog.set_level(logging.DEBUG, logger="flowscan")
    logging.getLogger("flowscan.ingest").info("not a warning")
    assert capfd.readouterr().err == ""


def test_bench_table_shape(scan_trace, tmp_path) -> None:
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            str(scan_trace),
            "-o",
            str(out),
            "--workers",
            "1,2",
            "--reps",
            "3",
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == BENCH_HEADER
    split = lines.index("# summary")
    runs = lines[2:split]
    assert len(runs) == 6  # 2 worker counts x 3 reps
    assert [r.split(",")[0] for r in runs] == ["1", "1", "1", "2", "2", "2"]
    assert lines[split + 1] == BENCH_SUMMARY_HEADER
    summaries = lines[split + 2 :]
    assert len(summaries) == 2
    for row in summaries:
        fields = row.split(",")
        values = [float(v) for v in fields[1:]]
        assert values == sorted(values)  # min <= q1 <= median <= q3 <= max


def test_bench_single_rep_degenerate_quartiles(scan_trace, tmp_path) -> None:
    out = tmp_path / "bench1.csv"
    assert (
        main(["bench", str(scan_trace), "-o", str(out), "--workers", "1", "--reps", "1"])
        == EXIT_OK
    )
    lines = out.read_text(encoding="utf-8").splitlines()
    summary = lines[-1].split(",")
    assert len(set(summary[1:])) == 1


def test_bench_rejects_zero_reps(scan_trace, tmp_path, capsys) -> None:
    code = main(
        ["bench", str(scan_trace), "-o", str(tmp_path / "b.csv"), "--reps", "0"]
    )
    assert code == EXIT_CONFIG
    assert "reps" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1,1", "2,1,2"])
def test_bench_repeated_worker_count_is_one_config_error(
    scan_trace, tmp_path, capsys, workers
) -> None:
    # A repeated count would time its runs twice under one summary row.
    out = tmp_path / "b.csv"
    code = main(["bench", str(scan_trace), "-o", str(out), "--workers", workers])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("flowscan: error kind=config exit=2 ")
    assert f"engine.workers sweep must be distinct counts >= 1, got {workers!r}" in err[0]
    assert not out.exists()


def test_bench_on_flows_of_one_instant_exits_1(tmp_path, capsys) -> None:
    # Flows that start and end at one instant span no time: there is no
    # time ratio to summarise.
    instant = tmp_path / "instant.flows.csv"
    write_flow_file(instant, [mk_flow(first=7 * S), mk_flow(dst="10.0.0.3", first=7 * S)])
    out = tmp_path / "b.csv"
    assert main(["bench", str(instant), "-o", str(out), "--workers", "1"]) == EXIT_IO
    assert f"detail={instant}: the flows span no time" in _one_error(capsys, "io", EXIT_IO)
    assert not out.exists()


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_bench_times_what_detect_runs(scan_trace, tmp_path, monkeypatch, mode) -> None:
    config = tmp_path / "c.ini"
    config.write_text(f"[engine]\nmode = {mode}\n", encoding="utf-8")
    common = ["--config", str(config), "--threshold", "20"]
    reads = []
    read_trace = flowscan.cli._read_trace

    def counted_read(path, *args, **kwargs):
        reads.append(path)
        return read_trace(path, *args, **kwargs)

    monkeypatch.setattr(flowscan.cli, "_read_trace", counted_read)
    out = tmp_path / "bench.csv"
    bench = ["bench", str(scan_trace), "-o", str(out), "--workers", "1,2", "--reps", "3"]
    assert main([*bench, *common]) == EXIT_OK
    assert reads == [scan_trace] * 6  # one whole detect job per rep and worker count
    lines = out.read_text(encoding="utf-8").splitlines()
    runs = [row.split(",") for row in lines[2 : lines.index("# summary")]]
    assert len(runs) == 6

    for workers in ("1", "2"):
        verdicts = tmp_path / f"verdicts{workers}.csv"
        detect = ["detect", str(scan_trace), "-o", str(verdicts), "--workers", workers]
        assert main([*detect, *common]) == EXIT_OK
        stats = json.loads(manifest_path_for(verdicts).read_text(encoding="utf-8"))["stats"]
        # the manifest line and the header come before the verdicts
        verdict_rows = len(verdicts.read_text(encoding="utf-8").splitlines()) - 2
        assert verdict_rows > 0
        timed = [run for run in runs if run[0] == workers]
        assert len(timed) == 3
        for _, _, wall, duration, ratio, records_in, verdicts_out in timed:
            assert int(records_in) == stats["records_in"]
            assert int(verdicts_out) == stats["verdicts_out"] == verdict_rows
            assert float(duration) == stats["trace_duration_s"]
            assert float(ratio) == float(wall) / float(duration)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("rows", [0, 2], ids=["header-only", "one-instant"])
def test_detect_manifest_of_a_trace_without_duration_is_json(
    tmp_path, capsys, mode: str, rows: int
) -> None:
    flows = tmp_path / "f.flows.csv"
    write_flow_file(flows, [mk_flow(first=7 * S), mk_flow(dst="10.0.0.3", first=7 * S)][:rows])
    out = tmp_path / "v.csv"
    assert main(["detect", str(flows), "-o", str(out), "--mode", mode]) == EXIT_OK
    text = manifest_path_for(out).read_text(encoding="utf-8")
    stats = json.loads(text, parse_constant=_no_constant)["stats"]
    assert stats["trace_duration_s"] == 0.0
    assert not {"wall_time_s", "time_ratio"} & stats.keys()
    assert stats["records_in"] == rows


SYNTH_SPEC = """\
[trace]
slices = 2

[background]
hosts = 10

[scanner:s]
kind = netscan
ip = 192.0.2.1
flows_per_slice = 60
target_subnet = 10.99.0.0/24
"""


def test_synth_writes_trio_and_manifest(tmp_path) -> None:
    spec = tmp_path / "s.ini"
    spec.write_text(SYNTH_SPEC, encoding="utf-8")
    base = tmp_path / "out" / "t"
    base.parent.mkdir()
    code = main(["synth", str(spec), "-o", str(base), "--seed", "3"])
    assert code == EXIT_OK
    flow_path = base.with_name("t.flows.csv")
    assert flow_path.exists()
    for suffix in (".anomalous.xml", ".notice.xml"):
        sidecar = base.with_name("t" + suffix)
        assert "<!-- manifest=t.manifest.json -->" in sidecar.read_text(
            encoding="utf-8"
        )
    manifest = json.loads(manifest_path_for(base).read_text(encoding="utf-8"))
    assert manifest["command"] == "synth"
    assert manifest["config"] == {"seed": 3}
    assert str(flow_path) in manifest["outputs"]


@pytest.mark.parametrize(
    "suffix", [".flows.csv", ".anomalous.xml", ".notice.xml", ".manifest.json"]
)
def test_synth_output_that_is_its_spec_exits_2(tmp_path, capsys, monkeypatch, suffix) -> None:
    """An -o whose flow, ground truth or manifest path resolves to the
    spec, here spelled through "..", exits 2 before anything is written."""
    spec = tmp_path / f"t{suffix}"
    spec.write_text(SYNTH_SPEC, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    assert main(["synth", str(spec), "-o", "../t"]) == EXIT_CONFIG
    assert "-o ../t would overwrite an input of synth" in _one_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", spec.name]
    assert spec.read_text(encoding="utf-8") == SYNTH_SPEC


def test_synth_bad_spec_exits_2(tmp_path, capsys) -> None:
    spec = tmp_path / "s.ini"
    spec.write_text("[scanner:x]\nkind = netscan\n", encoding="utf-8")
    code = main(["synth", str(spec), "-o", str(tmp_path / "t")])
    assert code == EXIT_CONFIG
    assert "kind=config exit=2" in capsys.readouterr().err


def _one_error(capsys, kind: str = "config", code: int = EXIT_CONFIG) -> str:
    """The single stderr line of a run that exited on an error."""
    err = capsys.readouterr().err
    assert err.startswith(f"flowscan: error kind={kind} exit={code} detail=")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "usage:" not in err
    return err


@pytest.mark.parametrize(
    "command, flag, value",
    [("bench", "--reps", "x"), ("synth", "--seed", "x"), ("evaluate", "--case", "7")],
)
def test_bad_integer_flag_is_one_config_error(
    scan_trace, gt_path, tmp_path, capsys, command, flag, value
) -> None:
    out = tmp_path / "out.csv"
    spec = tmp_path / "s.ini"
    spec.write_text(SYNTH_SPEC, encoding="utf-8")
    argv = {
        "bench": ["bench", str(scan_trace), "-o", str(out), "--workers", "1"],
        "synth": ["synth", str(spec), "-o", str(out)],
        "evaluate": _eval_args(scan_trace, gt_path, out),
    }[command]
    assert main([*argv, flag, value]) == EXIT_CONFIG
    err = _one_error(capsys)
    assert f"detail={flag} must be " in err and repr(value) in err
    assert not out.exists() and not list(tmp_path.glob("out*"))


def test_synth_spec_with_non_utf8_byte_exits_2(tmp_path, capsys) -> None:
    spec = tmp_path / "s.ini"
    spec.write_bytes(b"[trace]\nslices = 2\xff\n")
    assert main(["synth", str(spec), "-o", str(tmp_path / "t")]) == EXIT_CONFIG
    assert str(spec) in _one_error(capsys)
    assert not (tmp_path / "t.flows.csv").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("start_us = 9223372036854775000", "trace.start_us 9223372036854775000 "),
        ("slice_seconds = 1e13", "slice_seconds 10000000000000.0 "),
    ],
)
def test_synth_trace_past_int64_exits_2(tmp_path, capsys, line, key) -> None:
    spec = tmp_path / "s.ini"
    spec.write_text(f"[trace]\n{line}\n[background]\nhosts = 10\n", encoding="utf-8")
    assert main(["synth", str(spec), "-o", str(tmp_path / "t")]) == EXIT_CONFIG
    err = _one_error(capsys)
    assert "detail=trace.start_us " in err and key in err
    assert "signed 64-bit" in err
    assert not (tmp_path / "t.flows.csv").exists()


def test_synth_spec_values_are_literal(tmp_path, capsys) -> None:
    spec = tmp_path / "s.ini"
    spec.write_text(
        "[trace]\nslices = 1\n[scanner:x]\nkind = portscan\nip = 192.0.2.1\n"
        "target = 10.0.0.1\nlabel = 100%scan\n",
        encoding="utf-8",
    )
    base = tmp_path / "t"
    assert main(["synth", str(spec), "-o", str(base)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    anomalous = base.with_name("t.anomalous.xml").read_text(encoding="utf-8")
    assert 'value="100%scan"' in anomalous


CONFIG_INI = """\
[detector]
threshold = 75

[evaluation]
thresholds = 75
"""


def test_config_file_flag(scan_trace, tmp_path) -> None:
    cfg = tmp_path / "flowscan.ini"
    cfg.write_text(CONFIG_INI, encoding="utf-8")
    out = tmp_path / "v.csv"
    assert (
        main(
            [
                "detect",
                str(scan_trace),
                "-o",
                str(out),
                "--config",
                str(cfg),
            ]
        )
        == EXIT_OK
    )
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["config"]["threshold"] == 75.0


def test_env_config_and_flag_precedence(scan_trace, tmp_path, monkeypatch) -> None:
    cfg = tmp_path / "env.ini"
    cfg.write_text(CONFIG_INI, encoding="utf-8")
    monkeypatch.setenv("FLOWSCAN_CONFIG", str(cfg))
    out = tmp_path / "v.csv"
    main(["detect", str(scan_trace), "-o", str(out)])
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["config"]["threshold"] == 75.0

    main(["detect", str(scan_trace), "-o", str(out), "--threshold", "90"])
    manifest = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
    assert manifest["config"]["threshold"] == 90.0


def test_config_file_with_non_utf8_byte_exits_2(scan_trace, tmp_path, capsys) -> None:
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[detector]\nthreshold = 5\xff\n")
    out = tmp_path / "v.csv"
    code = main(["detect", str(scan_trace), "-o", str(out), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"flowscan: error kind=config exit=2 detail={cfg}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_config_key_rejected(scan_trace, tmp_path, capsys) -> None:
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[detector]\nthresold = 75\n", encoding="utf-8")
    code = main(
        ["detect", str(scan_trace), "-o", str(tmp_path / "v.csv"), "--config", str(cfg)]
    )
    assert code == EXIT_CONFIG
    assert "thresold" in capsys.readouterr().err


def test_config_value_with_percent_exits_2(scan_trace, tmp_path, capsys) -> None:
    cfg = tmp_path / "pct.ini"
    cfg.write_text("[detector]\nthreshold = 5%\n", encoding="utf-8")
    out = tmp_path / "v.csv"
    code = main(["detect", str(scan_trace), "-o", str(out), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "detail=detector.threshold: " in _one_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("lag", ["nan", "inf"])
def test_non_finite_watermark_lag_exits_2(scan_trace, tmp_path, capsys, lag, mode) -> None:
    cfg = tmp_path / "lag.ini"
    cfg.write_text(
        f"[engine]\nwatermark_lag_seconds = {lag}\nmode = {mode}\n", encoding="utf-8"
    )
    out = tmp_path / "v.csv"
    code = main(["detect", str(scan_trace), "-o", str(out), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    err = _one_error(capsys)
    assert "detail=engine.watermark_lag_seconds must be finite and >= 0, got " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, key",
    [
        ("detect", "--threshold", "abc", "detector.threshold"),
        ("detect", "--workers", "two", "engine.workers"),
        ("detect", "--slice-seconds", "x", "detector.slice_seconds"),
        ("detect", "--slice-seconds", "nan", "detector.slice_seconds"),
        ("detect", "--slice-seconds", "1e-9", "detector.slice_seconds"),
        ("detect", "--trace-start-us", "1.5", "detector.trace_start_us"),
        ("detect", "--trace-start-us", str(-(2**63) - 1), "detector.trace_start_us"),
        ("detect", "--mode", "turbo", "engine.mode"),
        ("evaluate", "--thresholds", "5,abc", "evaluation.thresholds"),
    ],
)
def test_bad_flag_value_exits_2_naming_its_key(
    scan_trace, gt_path, tmp_path, capsys, command, flag, value, key
) -> None:
    out = tmp_path / "o.csv"
    if command == "detect":
        args = ["detect", str(scan_trace), "-o", str(out), flag, value]
    else:
        args = _eval_args(scan_trace, gt_path, out, flag, value)
    assert main(args) == EXIT_CONFIG
    assert f"detail={key}" in _one_error(capsys)
    assert not out.exists()


_COMMAND_ARGS = {
    "detect": ["detect", "f.csv", "-o", "v.csv"],
    "evaluate": ["evaluate", "--trace", "f.csv,a.xml", "-o", "r.csv"],
    "bench": ["bench", "f.csv", "-o", "b.csv"],
}


@pytest.mark.parametrize(
    "command, flag, value, ini, other",
    [
        ("detect", "--threshold", "75", "[detector]\nthreshold = 75", "90"),
        ("bench", "--threshold", "75", "[detector]\nthreshold = 75", "90"),
        ("detect", "--slice-seconds", "20", "[detector]\nslice_seconds = 20", "10"),
        ("evaluate", "--trace-start-us", "5", "[detector]\ntrace_start_us = 5", "7"),
        ("detect", "--workers", "3", "[engine]\nworkers = 3", "2"),
        ("evaluate", "--workers", "3", "[engine]\nworkers = 3", "2"),
        ("detect", "--mode", "stream", "[engine]\nmode = stream", "batch"),
        ("evaluate", "--thresholds", "25,50", "[evaluation]\nthresholds = 25,50", "9"),
        ("bench", "--strict", None, "[io]\nstrict = yes", "no"),
    ],
)
def test_config_flag_matches_its_ini_key(
    tmp_path, monkeypatch, command, flag, value, ini, other
) -> None:
    monkeypatch.delenv("FLOWSCAN_CONFIG", raising=False)

    def resolve(*extra: str) -> AppConfig:
        args = build_parser().parse_args([*_COMMAND_ARGS[command], *extra])
        return _resolve_config(args)

    flag_args = [flag] if value is None else [flag, value]
    from_flag = resolve(*flag_args)
    assert from_flag != AppConfig()
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini + "\n", encoding="utf-8")
    assert resolve("--config", str(cfg)) == from_flag
    # the same key with another value in the file: the flag wins
    cfg.write_text(ini.rsplit("= ", 1)[0] + f"= {other}\n", encoding="utf-8")
    assert resolve("--config", str(cfg)) != from_flag
    assert resolve("--config", str(cfg), *flag_args) == from_flag
