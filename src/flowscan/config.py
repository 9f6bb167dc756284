"""Run configuration: built-in defaults, an INI file, then CLI overrides.

The config file path comes from --config when given, else from the
FLOWSCAN_CONFIG environment variable, else everything stays at the
defaults below. CLI flags name INI keys and are laid over the file, so
one parse reads both. Unknown sections or keys are errors; so is any
value out of range. Both report the offending field by name.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .core import DEFAULT_SLICE_SECONDS, ConfigError, SliceConfig
from .detector import DEFAULT_THRESHOLD, DetectorConfig
from .engine import DEFAULT_WATERMARK_LAG_S, EngineConfig, Mode
from .evaluation import DEFAULT_SCAN_EXCLUDE, DEFAULT_SCAN_WHITELIST
from .rules import RuleConfig

ENV_CONFIG = "FLOWSCAN_CONFIG"

DEFAULT_THRESHOLD_SWEEP = (50.0, 100.0, 200.0)


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

    def __post_init__(self) -> None:
        """Check each value with the config class that takes it. Raises
        ConfigError naming the INI key of the first bad value."""
        slices = checked("detector.", SliceConfig, self.trace_start_us or 0, self.slice_seconds)
        checked("detector.", DetectorConfig, slices, self.threshold)
        if not self.thresholds:
            raise ConfigError("evaluation.thresholds must not be empty")
        for i, value in enumerate(self.thresholds):
            checked("evaluation.thresholds: ", DetectorConfig, slices, value)
            if value in self.thresholds[:i]:
                raise ConfigError(f"evaluation.thresholds repeats {value}")
        checked("engine.", EngineConfig, self.workers, self.watermark_lag_seconds)


def checked(prefix: str, cls, *args, **kwargs):
    """`cls(*args, **kwargs)`, its ValueError raised again as a ConfigError
    whose message starts with `prefix`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def parse_port_set(text: str) -> frozenset[int]:
    """Comma-separated ports and inclusive ranges, e.g. `0-1023,8080`."""
    ports: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        low_text, high_text = chunk.split("-", 1) if "-" in chunk else (chunk, chunk)
        low, high = int(low_text), int(high_text)
        # Checked on its ends, before a huge range fills memory.
        if low > high:
            raise ValueError(f"empty port range {chunk!r}")
        if low < 0 or high > 65535:
            raise ValueError(f"{chunk!r} is not within ports 0-65535")
        ports.update(range(low, high + 1))
    return frozenset(ports)


def format_port_set(ports: frozenset[int]) -> str:
    """Inverse of parse_port_set, with runs collapsed to ranges."""
    runs: list[list[int]] = []  # [first, last] of each run of ports
    for port in sorted(ports):
        if runs and port == runs[-1][1] + 1:
            runs[-1][1] = port
        else:
            runs.append([port, port])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def parse_thresholds(text: str) -> tuple[float, ...]:
    return tuple(float(chunk) for chunk in text.split(",") if chunk.strip())


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


def read_ini(path: str | Path) -> configparser.ConfigParser:
    """The INI file at `path`, its values taken literally (no `%`
    interpolation). Raises ConfigError naming the file for text that is
    not INI or not UTF-8; OSError is left to the caller."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parser


def section_values(
    parser: configparser.ConfigParser, section: str, parsers: Mapping, what="config"
) -> dict:
    """The keys of `section`, each parsed by its entry in `parsers`. Raises
    ConfigError naming `section.key` for an unknown key or a bad value."""
    values = {}
    for key, text in parser[section].items():
        parse = parsers.get(key)
        if parse is None:
            raise ConfigError(f"unknown {what} key {section}.{key}")
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
    return values


def load_config(
    path: Optional[str | Path] = None, overrides: Optional[Mapping[str, str]] = None
) -> AppConfig:
    """Build an AppConfig from the file at `path`, else the FLOWSCAN_CONFIG
    file, if any, with `overrides` (`section.key` -> value text) laid over
    it. Raises ConfigError for anything invalid."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            parser = read_ini(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for name, text in (overrides or {}).items():
        section, key = name.split(".")
        parser.read_dict({section: {key: text}})
    changes: dict = {}
    rules: dict = {}
    for section in parser.sections():
        if section not in _PARSERS:
            raise ConfigError(f"unknown config section [{section}]")
        values = section_values(parser, section, _PARSERS[section])
        (rules if section == "rules" else changes).update(values)
    return AppConfig(rules=checked("rules.", RuleConfig, **rules), **changes)
