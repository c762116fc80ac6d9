"""Runtime configuration: defaults, TOML-style file parsing, env overrides.

:class:`Config` is the one settings object of the library: every function
that takes settings takes ``cfg: Config | None``, and ``None`` means
``Config()``. The config file is flat ``key = value`` pairs (strings quoted,
arrays in brackets, ``#`` starts a full-line comment). Precedence is
defaults < file < environment (``DOCPOST_<KEY>``) < command-line flags.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, fields

from ._external import Scorer, external_scorer
from .errors import DomainError

ENV_PREFIX = "DOCPOST_"


class ConfigError(DomainError):
    pass


# Config fields that hold a fraction in [0,1], and those that hold text.
_UNIT_FIELDS = (
    "near_threshold",
    "continuation_threshold",
    "min_confidence",
    "overlap_tolerance",
    "w_rule",
)
_STRING_FIELDS = (
    "continuation_scorer_cmd",
    "continuation_scorer_url",
    "reward_scorer_cmd",
    "reward_scorer_url",
)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Config:
    near_threshold: float = 0.8
    continuation_threshold: float = 0.5
    min_confidence: float = 0.3
    overlap_tolerance: float = 0.5  # max allowed IoU between kept detections
    w_rule: float = 0.5  # rule share of the composite reward
    # well_formed, rectangular, placeholder_ok, non_empty
    rule_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    eps: float = 1e-6  # a group whose reward std is at most eps gets zero advantages
    include_headers_footers: bool = False
    mask_fill: tuple[int, int, int] = (200, 200, 200)
    continuation_scorer_cmd: str = ""
    continuation_scorer_url: str = ""
    reward_scorer_cmd: str = ""
    reward_scorer_url: str = ""

    def __post_init__(self):
        for name in (*_UNIT_FIELDS, "eps"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in _UNIT_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0,1], got {value}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        weights = self.rule_weights
        if not (isinstance(weights, tuple) and len(weights) == 4 and all(map(_is_real, weights))):
            raise ConfigError(f"rule_weights must be four numbers, got {weights!r}")
        if not all(map(math.isfinite, weights)):
            raise ConfigError(f"rule_weights must be finite, got {weights}")
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise ConfigError(f"rule_weights must each be in [0,1], got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError(f"rule_weights must sum to 1, got {weights}")
        fill = self.mask_fill
        bytes_ok = isinstance(fill, tuple) and all(type(v) is int and 0 <= v <= 255 for v in fill)
        if not (bytes_ok and len(fill) == 3):
            raise ConfigError(f"mask_fill must be three bytes, got {fill!r}")
        headers = self.include_headers_footers
        if not isinstance(headers, bool):
            raise ConfigError(f"include_headers_footers must be true or false, got {headers!r}")
        for name in _STRING_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")

    def continuation_scorer(self) -> Scorer | None:
        return external_scorer(self.continuation_scorer_cmd, self.continuation_scorer_url)

    def reward_scorer(self) -> Scorer | None:
        return external_scorer(self.reward_scorer_cmd, self.reward_scorer_url)


def _parse_value(text: str):
    text = text.strip()
    if not text:
        raise ConfigError("empty value")
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_value(part) for part in inner.split(","))
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return repr(value)


def parse_config_text(text: str, base: Config | None = None) -> Config:
    known = {f.name: f for f in fields(Config)}
    overrides: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(value)
    return dataclasses.replace(base or Config(), **overrides)


def dumps_config(cfg: Config) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(Config)]
    return "\n".join(lines) + "\n"


def load_config(path: str, base: Config | None = None) -> Config:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)


def save_config(cfg: Config, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def apply_env_overrides(cfg: Config, environ=None) -> Config:
    """Apply ``DOCPOST_<UPPERCASE_KEY>`` environment overrides; ``cfg``
    itself comes back when none is set."""
    environ = os.environ if environ is None else environ
    overrides: dict = {}
    for f in fields(Config):
        env_key = ENV_PREFIX + f.name.upper()
        if env_key not in environ:
            continue
        raw = environ[env_key]
        if f.name in _STRING_FIELDS:
            parsed = raw[1:-1] if raw.startswith('"') and raw.endswith('"') else raw
        else:
            parsed = _parse_value(raw)
        overrides[f.name] = parsed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg
