"""Run configuration: built-in defaults, an INI file, then CLI overrides.

The config file path comes from --config when given, else from the
FLOWSCAN_CONFIG environment variable, else everything stays at the
defaults below. Unknown sections or keys are errors; so is any value
out of range. Both report the offending field by name.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import ConfigError
from .detector import DEFAULT_THRESHOLD
from .engine import DEFAULT_WATERMARK_LAG_S, Mode
from .evaluation import DEFAULT_SCAN_EXCLUDE, DEFAULT_SCAN_WHITELIST
from .rules import RuleConfig

ENV_CONFIG = "FLOWSCAN_CONFIG"

DEFAULT_THRESHOLD_SWEEP = (50.0, 100.0, 200.0)
DEFAULT_SLICE_SECONDS = 30.0


@dataclass(frozen=True)
class AppConfig:
    slice_seconds: float = DEFAULT_SLICE_SECONDS
    trace_start_us: Optional[int] = None
    threshold: float = DEFAULT_THRESHOLD
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLD_SWEEP
    workers: int = 1
    mode: Mode = Mode.BATCH
    watermark_lag_seconds: float = DEFAULT_WATERMARK_LAG_S
    rules: RuleConfig = field(default_factory=RuleConfig)
    whitelist: frozenset[str] = DEFAULT_SCAN_WHITELIST
    exclude: frozenset[str] = DEFAULT_SCAN_EXCLUDE
    strict: bool = False

    def validate(self) -> None:
        if self.slice_seconds <= 0:
            raise ConfigError(
                f"detector.slice_seconds must be > 0, got {self.slice_seconds}"
            )
        if not _valid_threshold(self.threshold):
            raise ConfigError(
                f"detector.threshold must be finite and > 0, got {self.threshold}"
            )
        if not self.thresholds:
            raise ConfigError("evaluation.thresholds must not be empty")
        for i, value in enumerate(self.thresholds):
            if not _valid_threshold(value):
                raise ConfigError(
                    f"evaluation.thresholds entries must be finite and > 0, got {value}"
                )
            if value in self.thresholds[:i]:
                raise ConfigError(f"evaluation.thresholds repeats {value}")
        if self.workers < 1:
            raise ConfigError(f"engine.workers must be >= 1, got {self.workers}")
        if self.watermark_lag_seconds < 0:
            raise ConfigError(
                "engine.watermark_lag_seconds must be >= 0, "
                f"got {self.watermark_lag_seconds}"
            )


def _valid_threshold(value: float) -> bool:
    return math.isfinite(value) and value > 0


def parse_port_set(text: str) -> frozenset[int]:
    """Comma-separated ports and inclusive ranges, e.g. `0-1023,8080`."""
    ports: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            low_text, high_text = chunk.split("-", 1)
            low, high = int(low_text), int(high_text)
            if low > high:
                raise ValueError(f"empty port range {chunk!r}")
            ports.update(range(low, high + 1))
        else:
            ports.add(int(chunk))
    for port in ports:
        if not 0 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
    return frozenset(ports)


def format_port_set(ports: frozenset[int]) -> str:
    """Inverse of parse_port_set, with runs collapsed to ranges."""
    if not ports:
        return ""
    ordered = sorted(ports)
    chunks: list[str] = []
    run_start = prev = ordered[0]
    for port in ordered[1:] + [None]:  # type: ignore[list-item]
        if port is not None and port == prev + 1:
            prev = port
            continue
        chunks.append(str(run_start) if run_start == prev else f"{run_start}-{prev}")
        if port is not None:
            run_start = prev = port
    return ",".join(chunks)


def parse_thresholds(text: str) -> tuple[float, ...]:
    values = tuple(float(chunk) for chunk in text.split(",") if chunk.strip())
    if not values:
        raise ValueError("no thresholds given")
    return values


def _parse_terms(text: str) -> frozenset[str]:
    return frozenset(t.strip().lower() for t in text.split(",") if t.strip())


def _enum(enum_cls):
    def parse(text: str):
        try:
            return enum_cls(text.strip().lower())
        except ValueError:
            choices = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"must be one of {choices}, got {text!r}") from None

    return parse


def parse_boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# section -> key -> parser of the value text. Each key names an AppConfig
# field, or under [rules] a RuleConfig field.
_PARSERS = {
    "detector": {"slice_seconds": float, "threshold": float, "trace_start_us": int},
    "engine": {"workers": int, "mode": _enum(Mode), "watermark_lag_seconds": float},
    "rules": {
        "netscan_min_hosts": int,
        "portscan_min_ports": int,
        "combined_min_hosts": int,
        "subnet_prefix": int,
        "known_ports": parse_port_set,
    },
    "evaluation": {
        "thresholds": parse_thresholds,
        "whitelist": _parse_terms,
        "exclude": _parse_terms,
    },
    "io": {"strict": parse_boolean},
}


def load_config(path: Optional[str | Path] = None) -> AppConfig:
    """Build an AppConfig from the file at `path`, the FLOWSCAN_CONFIG
    file, or pure defaults. Raises ConfigError for anything invalid."""
    if path is None:
        env_path = os.environ.get(ENV_CONFIG)
        if not env_path:
            return AppConfig()
        path = env_path
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = _config_from_parser(parser)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg.validate()
    return cfg


def _config_from_parser(parser: configparser.ConfigParser) -> AppConfig:
    changes: dict = {}
    rules: dict = {}
    for section in parser.sections():
        parsers = _PARSERS.get(section)
        if parsers is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            parse = parsers.get(key)
            if parse is None:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            (rules if section == "rules" else changes)[key] = value
    try:
        return AppConfig(rules=RuleConfig(**rules), **changes)
    except ValueError as exc:
        raise ConfigError(f"rules: {exc}") from exc
