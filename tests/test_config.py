from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowscan.config import AppConfig, format_port_set, load_config, parse_port_set
from flowscan.core import ConfigError
from flowscan.detector import DEFAULT_THRESHOLD
from flowscan.engine import Mode
from flowscan.rules import RuleConfig

FULL_INI = """\
[detector]
slice_seconds = 20.5
threshold = 75
trace_start_us = 1000

[engine]
workers = 3
mode = stream
watermark_lag_seconds = 2.5

[rules]
netscan_min_hosts = 5
portscan_min_ports = 6
combined_min_hosts = 7
subnet_prefix = 16
known_ports = 22,80,1000-1002

[evaluation]
thresholds = 300, 20,50
whitelist = Scan, foo
exclude = icmp,,Bar

[io]
strict = yes
"""


def _load(tmp_path, text: str) -> AppConfig:
    path = tmp_path / "flowscan.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_defaults_without_a_file(monkeypatch) -> None:
    monkeypatch.delenv("FLOWSCAN_CONFIG", raising=False)
    cfg = load_config()
    assert cfg == AppConfig()
    assert cfg.threshold == DEFAULT_THRESHOLD


def test_every_key_is_read(tmp_path) -> None:
    assert _load(tmp_path, FULL_INI) == AppConfig(
        slice_seconds=20.5,
        threshold=75.0,
        trace_start_us=1000,
        workers=3,
        mode=Mode.STREAM,
        watermark_lag_seconds=2.5,
        rules=RuleConfig(
            netscan_min_hosts=5,
            portscan_min_ports=6,
            combined_min_hosts=7,
            subnet_prefix=16,
            known_ports=frozenset({22, 80, 1000, 1001, 1002}),
        ),
        thresholds=(300.0, 20.0, 50.0),
        whitelist=frozenset({"scan", "foo"}),
        exclude=frozenset({"icmp", "bar"}),
        strict=True,
    )


def test_partial_sections_keep_other_defaults(tmp_path) -> None:
    cfg = _load(tmp_path, "[rules]\nsubnet_prefix = 20\n[io]\nstrict = off\n")
    assert cfg == AppConfig(rules=RuleConfig(subnet_prefix=20), strict=False)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[detektor]\nthreshold = 5\n", "unknown config section [detektor]"),
        ("[engine]\nworker = 2\n", "unknown config key engine.worker"),
        ("[detector]\nslice_seconds = soon\n", "detector.slice_seconds"),
        ("[detector]\ntrace_start_us = 1.5\n", "detector.trace_start_us"),
        ("[engine]\nworkers = two\n", "engine.workers"),
        ("[engine]\nmode = turbo\n", "engine.mode"),
        ("[engine]\npartitioning = by_ip_hash\n", "unknown config key engine.partitioning"),
        ("[rules]\nsubnet_prefix = 200\n", "rules"),
        ("[rules]\nnetscan_min_hosts = x\n", "rules.netscan_min_hosts"),
        ("[rules]\nknown_ports = 9-3\n", "rules.known_ports"),
        ("[evaluation]\nthresholds = ,\n", "evaluation.thresholds"),
        ("[evaluation]\nthresholds = 50,abc\n", "evaluation.thresholds"),
        ("[io]\nstrict = maybe\n", "io.strict"),
        ("[detector]\nthreshold = 0\n", "detector.threshold"),
        ("[engine]\nworkers = 0\n", "engine.workers"),
        ("[engine]\nwatermark_lag_seconds = nan\n", "engine.watermark_lag_seconds"),
        ("[engine]\nwatermark_lag_seconds = inf\n", "engine.watermark_lag_seconds"),
    ],
)
def test_bad_values_name_their_field(tmp_path, text: str, fragment: str) -> None:
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, text)
    assert fragment in str(info.value)


@pytest.mark.parametrize("chunk", ["0-65536", "1-99999999999", "70000"])
def test_port_range_ends_are_checked_before_the_range_is_built(tmp_path, chunk) -> None:
    """A range past 65535 fails on its ends, naming its chunk, before its
    ports are built: 1-99999999999 would not fit in memory."""
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, f"[rules]\nknown_ports = 22,{chunk}\n")
    assert str(info.value) == f"rules.known_ports: {chunk!r} is not within ports 0-65535"


def test_rule_error_names_its_key(tmp_path) -> None:
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, "[rules]\nsubnet_prefix = 200\n")
    assert str(info.value) == "rules.subnet_prefix out of range: 200"


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"threshold": math.nan}, "detector.threshold"),
        ({"threshold": math.inf}, "detector.threshold"),
        ({"thresholds": (50.0, math.nan)}, "evaluation.thresholds"),
        ({"thresholds": (math.inf,)}, "evaluation.thresholds"),
        ({"thresholds": (100.0, 50.0, 100.0)}, "evaluation.thresholds repeats"),
        ({"thresholds": ()}, "evaluation.thresholds"),
    ],
)
def test_validate_rejects_bad_thresholds(changes: dict, fragment: str) -> None:
    with pytest.raises(ConfigError, match=fragment):
        dataclasses.replace(AppConfig(), **changes)


def test_format_port_set_collapses_runs() -> None:
    assert format_port_set(frozenset()) == ""
    assert format_port_set(frozenset({8, 1, 2, 3, 5, 7, 65535})) == "1-3,5,7-8,65535"


@given(st.frozensets(st.integers(0, 40)) | st.frozensets(st.integers(0, 65535), max_size=50))
def test_format_port_set_round_trips(ports: frozenset[int]) -> None:
    """parse_port_set reads back what format_port_set writes, whose runs
    are as long as they can be: each chunk starts past the last one's end
    plus one."""
    text = format_port_set(ports)
    assert parse_port_set(text) == ports
    ends = [[int(n) for n in chunk.split("-")] for chunk in text.split(",") if text]
    assert all(low > before[-1] + 1 for before, (low, *_) in zip(ends, ends[1:]))
