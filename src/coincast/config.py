"""Run configuration: JSON file + TOOL_SEED env + --set overrides.

Precedence, lowest to highest: config file, TOOL_SEED environment variable
(which targets lstm.seed), then --set flags in command-line order. Every
value is addressable by its dotted JSON name (e.g. ``gbt.lambda``,
``pipeline.dump_windows``). Unknown keys anywhere are ConfigErrors, as is
any value outside its documented range - all raised before data is read.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .gbtree import TreeParams
from .lstm import TrainConfig
from .market_data import DEFAULT_FEATURES, PRICE_FIELDS

ENV_SEED = "TOOL_SEED"


def _reject_unknown(section: str, payload: dict, allowed) -> None:
    for key in payload:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key {where!r}")


def _build(cls, section: str, payload, rename: dict | None = None):
    if payload is None:
        return cls()
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    rename = rename or {}
    allowed = [rename.get(f.name, f.name) for f in fields(cls)]
    _reject_unknown(section, payload, allowed)
    back = {v: k for k, v in rename.items()}
    kwargs = {back.get(k, k): v for k, v in payload.items()}
    return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _check_int(name: str, value, minimum=None, allow_none=False):
    if value is None and allow_none:
        return
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")


def _check_num(name: str, value, allow_none=False):
    if value is None and allow_none:
        return
    if not _is_num(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def _check_choice(name: str, value, choices):
    if value not in choices:
        raise ConfigError(f"{name} must be one of {sorted(choices)}, got {value!r}")


@dataclass
class LstmSection:
    hidden_size: int = 64
    epochs: int = 100
    learning_rate: float = 0.005
    seed: int = 42
    optimizer: str = "adam"
    clip_norm: float | None = 5.0
    batch_size: int | None = None

    def validate(self) -> None:
        _check_int("lstm.hidden_size", self.hidden_size, minimum=1)
        _check_int("lstm.epochs", self.epochs, minimum=1)
        _check_num("lstm.learning_rate", self.learning_rate)
        if not self.learning_rate > 0:
            raise ConfigError(f"lstm.learning_rate must be positive, got {self.learning_rate}")
        _check_int("lstm.seed", self.seed, minimum=0)
        if self.seed >= 2**64:
            raise ConfigError("lstm.seed must fit in an unsigned 64-bit integer")
        _check_choice("lstm.optimizer", self.optimizer, ("adam", "sgd"))
        _check_num("lstm.clip_norm", self.clip_norm, allow_none=True)
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"lstm.clip_norm must be positive or null, got {self.clip_norm}")
        _check_int("lstm.batch_size", self.batch_size, minimum=1, allow_none=True)


@dataclass
class GbtSection:
    n_rounds: int = 200
    lam: float = 1.0
    gamma: float = 0.0
    max_depth: int = 4
    min_samples_leaf: int = 2
    learning_rate: float = 0.3

    def validate(self) -> None:
        _check_int("gbt.n_rounds", self.n_rounds, minimum=0)
        _check_num("gbt.lambda", self.lam)
        if self.lam < 0:
            raise ConfigError(f"gbt.lambda must be non-negative, got {self.lam}")
        _check_num("gbt.gamma", self.gamma)
        if self.gamma < 0:
            raise ConfigError(f"gbt.gamma must be non-negative, got {self.gamma}")
        _check_int("gbt.max_depth", self.max_depth, minimum=0)
        _check_int("gbt.min_samples_leaf", self.min_samples_leaf, minimum=1)
        _check_num("gbt.learning_rate", self.learning_rate)
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(
                f"gbt.learning_rate must be in (0, 1], got {self.learning_rate}"
            )


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

    def validate(self) -> None:
        _check_int("analysis.volatility_window", self.volatility_window, minimum=2)
        _check_int("analysis.correlation_window", self.correlation_window, minimum=3)
        _check_int("analysis.decomposition_period", self.decomposition_period, minimum=2)
        _check_int("analysis.sma_fast", self.sma_fast, minimum=1)
        _check_int("analysis.sma_slow", self.sma_slow, minimum=2)
        if self.sma_slow <= self.sma_fast:
            raise ConfigError(
                f"analysis.sma_slow ({self.sma_slow}) must exceed analysis.sma_fast ({self.sma_fast})"
            )
        _check_num("analysis.initial_capital", self.initial_capital)
        if not self.initial_capital > 0:
            raise ConfigError(
                f"analysis.initial_capital must be positive, got {self.initial_capital}"
            )
        _check_num("analysis.cost_rate", self.cost_rate)
        if not 0.0 <= self.cost_rate < 1.0:
            raise ConfigError(f"analysis.cost_rate must be in [0, 1), got {self.cost_rate}")
        _check_int("analysis.histogram_bins", self.histogram_bins, minimum=1)
        _check_choice("analysis.correlation_basis", self.correlation_basis, ("returns", "prices"))


@dataclass
class PipelineSection:
    horizon_mode: str = "per_step"
    dump_windows: bool = False
    mape_epsilon: float | None = None

    def validate(self) -> None:
        _check_choice("pipeline.horizon_mode", self.horizon_mode, ("per_step", "horizon_mean"))
        if not isinstance(self.dump_windows, bool):
            raise ConfigError(
                f"pipeline.dump_windows must be true or false, got {self.dump_windows!r}"
            )
        _check_num("pipeline.mape_epsilon", self.mape_epsilon, allow_none=True)
        if self.mape_epsilon is not None and not self.mape_epsilon > 0:
            raise ConfigError(
                f"pipeline.mape_epsilon must be positive or null, got {self.mape_epsilon}"
            )


_TOP_KEYS = (
    "data",
    "features",
    "target",
    "n_steps_in",
    "n_steps_out",
    "train_fraction",
    "output_dir",
    "lstm",
    "gbt",
    "analysis",
    "pipeline",
)


@dataclass
class RunConfig:
    data: dict = field(default_factory=dict)
    features: tuple = tuple(DEFAULT_FEATURES)
    target: str = "close"
    n_steps_in: int = 30
    n_steps_out: int = 1
    train_fraction: float = 0.8
    output_dir: str = "out"
    lstm: LstmSection = field(default_factory=LstmSection)
    gbt: GbtSection = field(default_factory=GbtSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    pipeline: PipelineSection = field(default_factory=PipelineSection)

    @classmethod
    def from_dict(cls, tree: dict) -> "RunConfig":
        if not isinstance(tree, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_unknown("", tree, _TOP_KEYS)
        features = tree.get("features", list(DEFAULT_FEATURES))
        if not isinstance(features, list):
            raise ConfigError("features must be a non-empty list")
        cfg = cls(
            data=dict(tree.get("data", {})) if isinstance(tree.get("data", {}), dict) else tree["data"],
            features=tuple(features),
            target=tree.get("target", "close"),
            n_steps_in=tree.get("n_steps_in", 30),
            n_steps_out=tree.get("n_steps_out", 1),
            train_fraction=tree.get("train_fraction", 0.8),
            output_dir=tree.get("output_dir", "out"),
            lstm=_build(LstmSection, "lstm", tree.get("lstm")),
            gbt=_build(GbtSection, "gbt", tree.get("gbt"), rename={"lam": "lambda"}),
            analysis=_build(AnalysisSection, "analysis", tree.get("analysis")),
            pipeline=_build(PipelineSection, "pipeline", tree.get("pipeline")),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.data, dict) or not self.data:
            raise ConfigError("data must be a non-empty object mapping symbols to CSV paths")
        for symbol, path in self.data.items():
            if not isinstance(symbol, str) or not symbol:
                raise ConfigError(f"data contains an invalid symbol key: {symbol!r}")
            if not isinstance(path, str) or not path:
                raise ConfigError(f"data.{symbol} must be a non-empty path string")
        if not self.features:
            raise ConfigError("features must be a non-empty list")
        seen = set()
        for name in self.features:
            if name not in PRICE_FIELDS:
                raise ConfigError(
                    f"unknown feature {name!r}; expected a subset of {list(PRICE_FIELDS)}"
                )
            if name in seen:
                raise ConfigError(f"duplicate feature {name!r}")
            seen.add(name)
        if self.target not in self.features:
            raise ConfigError(f"target {self.target!r} must be one of the features")
        _check_int("n_steps_in", self.n_steps_in, minimum=1)
        _check_int("n_steps_out", self.n_steps_out, minimum=1)
        _check_num("train_fraction", self.train_fraction)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        self.lstm.validate()
        self.gbt.validate()
        self.analysis.validate()
        self.pipeline.validate()

    def to_dict(self) -> dict:
        """JSON-form snapshot (uses the external key spellings, e.g. gbt.lambda)."""
        tree = asdict(self)
        tree["features"] = list(self.features)
        gbt = tree["gbt"]
        gbt["lambda"] = gbt.pop("lam")
        return tree

    def lstm_train_config(self) -> TrainConfig:
        s = self.lstm
        return TrainConfig(
            hidden_size=s.hidden_size,
            epochs=s.epochs,
            learning_rate=s.learning_rate,
            seed=s.seed,
            optimizer=s.optimizer,
            clip_norm=s.clip_norm,
            batch_size=s.batch_size,
        )

    def tree_params(self) -> TreeParams:
        g = self.gbt
        return TreeParams(
            lam=g.lam,
            gamma=g.gamma,
            max_depth=g.max_depth,
            min_samples_leaf=g.min_samples_leaf,
            learning_rate=g.learning_rate,
        )


def apply_override(tree: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` assignment to the raw config tree.

    Values parse as JSON when possible (numbers, booleans, null, quoted
    strings) and fall back to the literal string otherwise.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    dotted = dotted.strip()
    if not dotted:
        raise ConfigError(f"override {assignment!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = node[key] = {}
        if not isinstance(child, dict):
            raise ConfigError(f"cannot set {dotted!r}: {key!r} is not a config section")
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError("top-level config must be a JSON object")
    if ENV_SEED in env:
        raw = env[ENV_SEED]
        try:
            seed = int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
        section = tree.setdefault("lstm", {})
        if not isinstance(section, dict):
            raise ConfigError("config section 'lstm' must be an object")
        section["seed"] = seed
    for assignment in overrides:
        apply_override(tree, assignment)
    return RunConfig.from_dict(tree)
