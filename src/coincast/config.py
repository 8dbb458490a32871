"""Run configuration: JSON file + TOOL_SEED env + --set overrides.

Precedence, lowest to highest: config file, TOOL_SEED environment variable
(which targets lstm.seed), then --set flags in command-line order. Every
value is addressable by its dotted JSON name (e.g. ``gbt.lambda``,
``pipeline.dump_windows``). Unknown keys anywhere are ConfigErrors, as is
any value outside its documented range - all raised before data is read.

Each section is one dataclass: ``lstm`` is the trainer's own TrainConfig and
``gbt`` a TreeParams that also carries ``n_rounds``. Every dataclass checks
its own fields, the type from the annotation and then the range, so a library
caller meets the same rules as a config file.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError, DomainError, SizingError, _type_hints, check_field_kinds, shown
from .gbtree import TreeParams
from .lstm import TrainConfig
from .market_data import DEFAULT_FEATURES, PRICE_FIELDS

ENV_SEED = "TOOL_SEED"

# Fields whose JSON name differs from the Python one (``lambda`` is a keyword).
_JSON_NAMES = {"lam": "lambda"}


def _build(cls, section: str, payload):
    """Build dataclass ``cls`` from one JSON object: reject unknown keys, then
    let ``cls`` check the values. Nested sections are built the same way; a
    null or absent section takes its defaults."""
    if payload is None:
        return cls()
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    hints = _type_hints(cls)
    names = {_JSON_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        where = f"{section}.{key}" if section else key
        if key not in names:
            raise ConfigError(f"unknown config key {shown(where)}")
        hint = hints[names[key]]
        if is_dataclass(hint):
            value = _build(hint, key, value)
        kwargs[names[key]] = value
    try:
        return cls(**kwargs)
    except (DomainError, SizingError) as exc:
        raise ConfigError(f"{section}.{exc}" if section else str(exc)) from None


def _at_least(obj, **minimums) -> None:
    for name, minimum in minimums.items():
        value = getattr(obj, name)
        if value < minimum:
            raise DomainError(f"{name} must be at least {minimum}, got {shown(value)}")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise DomainError(f"{name} must be one of {sorted(choices)}, got {shown(value)}")


@dataclass(frozen=True)
class GbtSection(TreeParams):
    """Booster hyperparameters plus the number of boosting rounds."""

    n_rounds: int = 200

    def __post_init__(self):
        super().__post_init__()
        _at_least(self, n_rounds=0)


@dataclass
class AnalysisSection:
    volatility_window: int = 30
    correlation_window: int = 60
    decomposition_period: int = 7
    sma_fast: int = 20
    sma_slow: int = 50
    initial_capital: float = 10_000.0
    cost_rate: float = 0.0
    histogram_bins: int = 50
    correlation_basis: str = "returns"

    def __post_init__(self):
        check_field_kinds(self)
        _at_least(
            self,
            volatility_window=2,
            correlation_window=3,
            decomposition_period=2,
            sma_fast=1,
            sma_slow=2,
            histogram_bins=1,
        )
        if self.sma_slow <= self.sma_fast:
            raise DomainError(
                f"sma_slow ({self.sma_slow}) must exceed analysis.sma_fast ({self.sma_fast})"
            )
        if not self.initial_capital > 0:
            raise DomainError(f"initial_capital must be positive, got {self.initial_capital}")
        if not 0.0 <= self.cost_rate < 1.0:
            raise DomainError(f"cost_rate must be in [0, 1), got {shown(self.cost_rate)}")
        _check_choice("correlation_basis", self.correlation_basis, ("returns", "prices"))


@dataclass
class PipelineSection:
    dump_windows: bool = False

    def __post_init__(self):
        check_field_kinds(self)


@dataclass
class RunConfig:
    data: dict = field(default_factory=dict)
    features: tuple = tuple(DEFAULT_FEATURES)
    target: str = "close"
    n_steps_in: int = 30
    n_steps_out: int = 1
    train_fraction: float = 0.8
    output_dir: str = "out"
    lstm: TrainConfig = field(default_factory=TrainConfig)
    gbt: GbtSection = field(default_factory=GbtSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    pipeline: PipelineSection = field(default_factory=PipelineSection)

    @classmethod
    def from_dict(cls, tree: dict) -> "RunConfig":
        if not isinstance(tree, dict):
            raise ConfigError("top-level config must be a JSON object")
        return _build(cls, "", tree)

    def __post_init__(self):
        check_field_kinds(self)
        if not isinstance(self.data, dict) or not self.data:
            raise ConfigError("data must be a non-empty object mapping symbols to CSV paths")
        for symbol, path in self.data.items():
            # a symbol names its output directories, so it must be one path component
            if not isinstance(symbol, str) or symbol in ("", ".", "..") or {"/", "\\", "\0"} & set(symbol):
                raise ConfigError(f"data contains an invalid symbol key: {shown(symbol)}")
            if not isinstance(path, str) or not path:
                raise ConfigError(f"data.{symbol} must be a non-empty path string")
            if "\0" in path:
                raise ConfigError(f"data.{symbol} must not contain a NUL character")
        if not isinstance(self.features, (list, tuple)) or not self.features:
            raise ConfigError("features must be a non-empty list")
        self.features = tuple(self.features)
        seen = set()
        for name in self.features:
            if name not in PRICE_FIELDS:
                raise ConfigError(
                    f"unknown feature {shown(name)}; expected a subset of {list(PRICE_FIELDS)}"
                )
            if name in seen:
                raise ConfigError(f"duplicate feature {name!r}")
            seen.add(name)
        if self.target not in self.features:
            raise ConfigError(f"target {shown(self.target)} must be one of the features")
        _at_least(self, n_steps_in=1, n_steps_out=1)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {shown(self.train_fraction)}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        if "\0" in self.output_dir:
            raise ConfigError("output_dir must not contain a NUL character")

    def to_dict(self) -> dict:
        """JSON-form snapshot (uses the external key spellings, e.g. gbt.lambda)."""
        tree = asdict(self)
        tree["features"] = list(self.features)
        for name, json_name in _JSON_NAMES.items():
            tree["gbt"][json_name] = tree["gbt"].pop(name)
        return tree


def apply_override(tree: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` assignment to the raw config tree.

    Values parse as JSON when possible (numbers, booleans, null, quoted
    strings) and fall back to the literal string otherwise.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {shown(assignment)} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    dotted = dotted.strip()
    if not dotted:
        raise ConfigError(f"override {shown(assignment)} has an empty key")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # invalid JSON, an integer past Python's digit limit, or too deep
        value = raw
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = node[key] = {}
        if not isinstance(child, dict):
            raise ConfigError(f"cannot set {shown(dotted)}: {shown(key)} is not a config section")
        node = child
    node[keys[-1]] = value


def load_config(path, overrides=(), env=None) -> RunConfig:
    """Read, override, and validate a run configuration."""
    env = env or {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        tree = json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} nests JSON too deeply to read") from None
    if not isinstance(tree, dict):
        raise ConfigError("top-level config must be a JSON object")
    if ENV_SEED in env:
        raw = env[ENV_SEED]
        try:
            seed = int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{ENV_SEED} must be an integer, got {shown(raw)}") from None
        apply_override(tree, f"lstm.seed={seed}")
    for assignment in overrides:
        apply_override(tree, assignment)
    return RunConfig.from_dict(tree)
