import json

import pytest

from coincast.config import AnalysisSection, RunConfig, apply_override, load_config
from coincast.errors import ConfigError, DomainError
from coincast.gbtree import TreeParams
from coincast.lstm import TrainConfig

MINIMAL = {"data": {"BTC": "btc.csv"}}

SUBSET = "['open', 'high', 'low', 'close', 'volume', 'marketcap']"

# One fault per tree, with the exact message it must produce.
INVALID_TREES = [
    ({}, "data must be a non-empty object mapping symbols to CSV paths"),
    ({"data": {}}, "data must be a non-empty object mapping symbols to CSV paths"),
    ({"data": {"BTC": ""}}, "data.BTC must be a non-empty path string"),
    ({"data": "btc.csv"}, "data must be a non-empty object mapping symbols to CSV paths"),
    ({**MINIMAL, "features": []}, "features must be a non-empty list"),
    ({**MINIMAL, "features": ["close", "close"]}, "duplicate feature 'close'"),
    ({**MINIMAL, "features": ["close", "vwap"]}, f"unknown feature 'vwap'; expected a subset of {SUBSET}"),
    ({**MINIMAL, "target": "volume", "features": ["close"]}, "target 'volume' must be one of the features"),
    ({**MINIMAL, "n_steps_in": 0}, "n_steps_in must be at least 1, got 0"),
    ({**MINIMAL, "n_steps_in": 2.5}, "n_steps_in must be an integer, got 2.5"),
    ({**MINIMAL, "n_steps_out": 0}, "n_steps_out must be at least 1, got 0"),
    ({**MINIMAL, "train_fraction": 1.0}, "train_fraction must be in (0, 1), got 1.0"),
    ({**MINIMAL, "train_fraction": "most"}, "train_fraction must be a number, got 'most'"),
    ({**MINIMAL, "output_dir": ""}, "output_dir must be a non-empty string"),
    ({**MINIMAL, "lstm": {"hidden_size": 0}}, "lstm.hidden_size must be at least 1, got 0"),
    ({**MINIMAL, "lstm": {"epochs": 0}}, "lstm.epochs must be at least 1, got 0"),
    ({**MINIMAL, "lstm": {"learning_rate": 0}}, "lstm.learning_rate must be positive, got 0"),
    ({**MINIMAL, "lstm": {"seed": -1}}, "lstm.seed must be at least 0, got -1"),
    ({**MINIMAL, "lstm": {"seed": 2**64}}, "lstm.seed must fit in an unsigned 64-bit integer"),
    ({**MINIMAL, "lstm": {"seed": True}}, "lstm.seed must be an integer, got True"),
    ({**MINIMAL, "lstm": {"optimizer": "adam"}}, "unknown config key 'lstm.optimizer'"),
    ({**MINIMAL, "lstm": {"clip_norm": 0}}, "lstm.clip_norm must be positive, got 0"),
    ({**MINIMAL, "lstm": {"batch_size": 8}}, "unknown config key 'lstm.batch_size'"),
    ({**MINIMAL, "gbt": {"n_rounds": -1}}, "gbt.n_rounds must be at least 0, got -1"),
    ({**MINIMAL, "gbt": {"lambda": -0.5}}, "gbt.lambda must be non-negative, got -0.5"),
    ({**MINIMAL, "gbt": {"gamma": -0.5}}, "gbt.gamma must be non-negative, got -0.5"),
    ({**MINIMAL, "gbt": {"max_depth": -1}}, "gbt.max_depth must be at least 0, got -1"),
    ({**MINIMAL, "gbt": {"min_samples_leaf": 0}}, "gbt.min_samples_leaf must be at least 1, got 0"),
    ({**MINIMAL, "gbt": {"learning_rate": 0}}, "gbt.learning_rate must be in (0, 1], got 0"),
    ({**MINIMAL, "gbt": {"learning_rate": 1.5}}, "gbt.learning_rate must be in (0, 1], got 1.5"),
    ({**MINIMAL, "analysis": {"volatility_window": 1}}, "analysis.volatility_window must be at least 2, got 1"),
    (
        {**MINIMAL, "analysis": {"sma_fast": 50, "sma_slow": 50}},
        "analysis.sma_slow (50) must exceed analysis.sma_fast (50)",
    ),
    ({**MINIMAL, "analysis": {"initial_capital": 0}}, "analysis.initial_capital must be positive, got 0"),
    ({**MINIMAL, "analysis": {"cost_rate": 1.0}}, "analysis.cost_rate must be in [0, 1), got 1.0"),
    ({**MINIMAL, "analysis": {"cost_rate": -0.1}}, "analysis.cost_rate must be in [0, 1), got -0.1"),
    (
        {**MINIMAL, "analysis": {"correlation_basis": "logs"}},
        "analysis.correlation_basis must be one of ['prices', 'returns'], got 'logs'",
    ),
    ({**MINIMAL, "pipeline": {"horizon_mode": "per_step"}}, "unknown config key 'pipeline.horizon_mode'"),
    ({**MINIMAL, "pipeline": {"dump_windows": "yes"}}, "pipeline.dump_windows must be true or false, got 'yes'"),
    ({**MINIMAL, "pipeline": {"mape_epsilon": 1}}, "unknown config key 'pipeline.mape_epsilon'"),
    ({**MINIMAL, "lstm": 7}, "config section 'lstm' must be an object"),
    ({**MINIMAL, "features": 5}, "features must be a non-empty list"),
    # wrong JSON types, section by section
    ({**MINIMAL, "lstm": {"hidden_size": "8"}}, "lstm.hidden_size must be an integer, got '8'"),
    ({**MINIMAL, "lstm": {"learning_rate": "fast"}}, "lstm.learning_rate must be a number, got 'fast'"),
    ({**MINIMAL, "lstm": {"epochs": None}}, "lstm.epochs must be an integer, got None"),
    ({**MINIMAL, "lstm": {"batch_size": None}}, "unknown config key 'lstm.batch_size'"),
    ({**MINIMAL, "lstm": {"clip_norm": "off"}}, "lstm.clip_norm must be a number, got 'off'"),
    ({**MINIMAL, "lstm": {"optimizer": "sgd"}}, "unknown config key 'lstm.optimizer'"),
    ({**MINIMAL, "gbt": {"max_depth": 2.0}}, "gbt.max_depth must be an integer, got 2.0"),
    ({**MINIMAL, "gbt": {"n_rounds": True}}, "gbt.n_rounds must be an integer, got True"),
    ({**MINIMAL, "gbt": {"gamma": None}}, "gbt.gamma must be a number, got None"),
    ({**MINIMAL, "gbt": {"lambda": "1"}}, "gbt.lambda must be a number, got '1'"),
    ({**MINIMAL, "gbt": [1]}, "config section 'gbt' must be an object"),
    ({**MINIMAL, "gbt": {"lam": 2.5}}, "unknown config key 'gbt.lam'"),
    ({**MINIMAL, "analysis": {"histogram_bins": "50"}}, "analysis.histogram_bins must be an integer, got '50'"),
    ({**MINIMAL, "analysis": {"cost_rate": "none"}}, "analysis.cost_rate must be a number, got 'none'"),
    ({**MINIMAL, "analysis": {"sma_fast": 20.0}}, "analysis.sma_fast must be an integer, got 20.0"),
    ({**MINIMAL, "analysis": {"correlation_window": False}}, "analysis.correlation_window must be an integer, got False"),
    ({**MINIMAL, "analysis": {"initial_capital": None}}, "analysis.initial_capital must be a number, got None"),
    ({**MINIMAL, "analysis": "x"}, "config section 'analysis' must be an object"),
    ({**MINIMAL, "pipeline": {"dump_windows": 1}}, "pipeline.dump_windows must be true or false, got 1"),
    ({**MINIMAL, "pipeline": {"dump_windows": None}}, "pipeline.dump_windows must be true or false, got None"),
    ({**MINIMAL, "pipeline": {"mape_epsilon": None}}, "unknown config key 'pipeline.mape_epsilon'"),
    ({**MINIMAL, "pipeline": [True]}, "config section 'pipeline' must be an object"),
    ({**MINIMAL, "pipeline": {"x": 1}}, "unknown config key 'pipeline.x'"),
    ({**MINIMAL, "n_steps_out": "3"}, "n_steps_out must be an integer, got '3'"),
    ({**MINIMAL, "n_steps_in": True}, "n_steps_in must be an integer, got True"),
    ({**MINIMAL, "n_steps_out": None}, "n_steps_out must be an integer, got None"),
    ({**MINIMAL, "train_fraction": None}, "train_fraction must be a number, got None"),
    ({**MINIMAL, "features": None}, "features must be a non-empty list"),
    ({**MINIMAL, "target": None}, "target None must be one of the features"),
    ({**MINIMAL, "output_dir": 5}, "output_dir must be a non-empty string"),
    ({"data": None}, "data must be a non-empty object mapping symbols to CSV paths"),
    ({"data": {"BTC": 5}}, "data.BTC must be a non-empty path string"),
    ({"data": {"": "x.csv"}}, "data contains an invalid symbol key: ''"),
    ([1, 2], "top-level config must be a JSON object"),
    # numbers must be finite
    ({**MINIMAL, "gbt": {"lambda": float("nan")}}, "gbt.lambda must be finite, got nan"),
    ({**MINIMAL, "gbt": {"gamma": float("nan")}}, "gbt.gamma must be finite, got nan"),
    ({**MINIMAL, "gbt": {"lambda": float("inf")}}, "gbt.lambda must be finite, got inf"),
    ({**MINIMAL, "analysis": {"initial_capital": float("inf")}}, "analysis.initial_capital must be finite, got inf"),
    ({**MINIMAL, "lstm": {"clip_norm": float("inf")}}, "lstm.clip_norm must be finite, got inf"),
    # a symbol key must be one path component
    ({"data": {"../../evil2": "a.csv"}}, "data contains an invalid symbol key: '../../evil2'"),
    ({"data": {"a\\b": "a.csv"}}, "data contains an invalid symbol key: 'a\\\\b'"),
    ({"data": {"..": "a.csv"}}, "data contains an invalid symbol key: '..'"),
    ({"data": {".": "a.csv"}}, "data contains an invalid symbol key: '.'"),
    # clipping is always on
    ({**MINIMAL, "lstm": {"clip_norm": None}}, "lstm.clip_norm must be a number, got None"),
    # a NUL cannot be in a file name
    ({"data": {"BTC": "btc\0.csv"}}, "data.BTC must not contain a NUL character"),
    ({"data": {"B\0TC": "btc.csv"}}, "data contains an invalid symbol key: 'B\\x00TC'"),
    ({**MINIMAL, "output_dir": "out\0"}, "output_dir must not contain a NUL character"),
]

# A section built directly, as a library caller does, meets the same type rules.
MISTYPED_FIELDS = [
    pytest.param(TrainConfig, {"clip_norm": None}, "clip_norm must be a number, got None", id="clip_norm-null"),
    pytest.param(TrainConfig, {"epochs": "3"}, "epochs must be an integer, got '3'", id="epochs-string"),
    pytest.param(TreeParams, {"lam": None}, "lambda must be a number, got None", id="lam-null"),
    pytest.param(AnalysisSection, {"sma_fast": None}, "sma_fast must be an integer, got None", id="sma_fast-null"),
    pytest.param(TrainConfig, {"epochs": 2.5}, "epochs must be an integer, got 2.5", id="epochs-fractional"),
    pytest.param(TreeParams, {"max_depth": True}, "max_depth must be an integer, got True", id="max_depth-boolean"),
    pytest.param(TrainConfig, {"hidden_size": float("nan")}, "hidden_size must be an integer, got nan", id="hidden_size-nan"),
]


@pytest.mark.parametrize("cls, kwargs, message", MISTYPED_FIELDS)
def test_mistyped_field_is_a_domain_error(cls, kwargs, message):
    with pytest.raises(DomainError) as info:
        cls(**kwargs)
    assert str(info.value) == message


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return path


class TestFromDict:
    def test_defaults(self):
        cfg = RunConfig.from_dict(MINIMAL)
        assert cfg.features == ("open", "high", "low", "close", "volume")
        assert cfg.target == "close"
        assert cfg.n_steps_in == 30
        assert cfg.n_steps_out == 1
        assert cfg.train_fraction == 0.8
        assert cfg.output_dir == "out"
        assert cfg.lstm.hidden_size == 64
        assert cfg.lstm.epochs == 100
        assert cfg.lstm.seed == 42
        assert cfg.gbt.n_rounds == 200
        assert cfg.gbt.lam == 1.0
        assert cfg.gbt.max_depth == 4
        assert cfg.analysis.sma_fast == 20
        assert cfg.analysis.sma_slow == 50
        assert cfg.analysis.decomposition_period == 7

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig.from_dict({**MINIMAL, "epochs": 3})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="lstm.max_depth"):
            RunConfig.from_dict({**MINIMAL, "lstm": {"max_depth": 4}})

    def test_lambda_spelling_maps_to_lam(self):
        cfg = RunConfig.from_dict({**MINIMAL, "gbt": {"lambda": 2.5}})
        assert cfg.gbt.lam == 2.5

    def test_internal_lam_spelling_rejected(self):
        with pytest.raises(ConfigError, match="gbt.lam"):
            RunConfig.from_dict({**MINIMAL, "gbt": {"lam": 2.5}})

    def test_to_dict_emits_lambda(self):
        tree = RunConfig.from_dict({**MINIMAL, "gbt": {"lambda": 2.5}}).to_dict()
        assert tree["gbt"]["lambda"] == 2.5
        assert "lam" not in tree["gbt"]
        # the snapshot must itself be loadable
        again = RunConfig.from_dict(tree)
        assert again.gbt.lam == 2.5

    @pytest.mark.parametrize(
        "tree, message", INVALID_TREES, ids=[f"tree{i}" for i in range(len(INVALID_TREES))]
    )
    def test_invalid_trees_rejected(self, tree, message):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_dict(tree)
        assert str(excinfo.value) == message

    def test_boolean_not_accepted_as_int(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**MINIMAL, "n_steps_in": True})

    def test_conversion_helpers_carry_values(self):
        cfg = RunConfig.from_dict(
            {
                **MINIMAL,
                "lstm": {"hidden_size": 8, "epochs": 3, "learning_rate": 0.02, "seed": 9},
                "gbt": {"n_rounds": 7, "lambda": 0.5, "max_depth": 2},
            }
        )
        assert cfg.lstm == TrainConfig(hidden_size=8, epochs=3, learning_rate=0.02, seed=9)
        assert isinstance(cfg.gbt, TreeParams)
        assert cfg.gbt.lam == 0.5 and cfg.gbt.max_depth == 2 and cfg.gbt.n_rounds == 7
        assert cfg.gbt.gamma == 0.0 and cfg.gbt.min_samples_leaf == 2 and cfg.gbt.learning_rate == 0.3


class TestApplyOverride:
    def test_json_value_parsing(self):
        tree = {"lstm": {}}
        apply_override(tree, "lstm.epochs=25")
        apply_override(tree, "lstm.clip_norm=null")
        apply_override(tree, "pipeline.dump_windows=true")
        apply_override(tree, "target=close")
        assert tree["lstm"]["epochs"] == 25
        assert tree["lstm"]["clip_norm"] is None
        assert tree["pipeline"]["dump_windows"] is True
        assert tree["target"] == "close"  # bare word falls back to a string

    def test_quoted_string(self):
        tree = {}
        apply_override(tree, 'output_dir="my out"')
        assert tree["output_dir"] == "my out"

    def test_creates_missing_sections(self):
        tree = {}
        apply_override(tree, "gbt.lambda=3.0")
        assert tree == {"gbt": {"lambda": 3.0}}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "lstm.epochs")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            apply_override({}, "=5")

    def test_key_through_scalar(self):
        with pytest.raises(ConfigError):
            apply_override({"target": "close"}, "target.inner=1")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "lstm": {"seed": 7}})
        cfg = load_config(path)
        assert cfg.lstm.seed == 7
        assert cfg.data == {"BTC": "btc.csv"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_env_seed_beats_file(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "lstm": {"seed": 7}})
        cfg = load_config(path, env={"TOOL_SEED": "99"})
        assert cfg.lstm.seed == 99

    @pytest.mark.parametrize("lstm", ["null", "missing", "object"])
    def test_env_seed_applies_to_any_lstm_section(self, tmp_path, lstm):
        payload = dict(MINIMAL)
        if lstm == "null":
            payload["lstm"] = None
        elif lstm == "object":
            payload["lstm"] = {"seed": 7, "epochs": 3}
        cfg = load_config(write_config(tmp_path, payload), env={"TOOL_SEED": "5"})
        assert cfg.lstm.seed == 5
        assert cfg.lstm.epochs == (3 if lstm == "object" else TrainConfig().epochs)

    def test_env_seed_on_a_non_object_lstm_section(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "lstm": 7})
        with pytest.raises(ConfigError, match="'lstm' is not a config section"):
            load_config(path, env={"TOOL_SEED": "5"})

    def test_flag_beats_env_seed(self, tmp_path):
        path = write_config(tmp_path, {**MINIMAL, "lstm": {"seed": 7}})
        cfg = load_config(path, overrides=["lstm.seed=123"], env={"TOOL_SEED": "99"})
        assert cfg.lstm.seed == 123

    def test_env_seed_garbage(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="TOOL_SEED"):
            load_config(path, env={"TOOL_SEED": "not-a-number"})

    def test_override_typo_caught(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="lstm.epoch"):
            load_config(path, overrides=["lstm.epoch=3"])

    def test_overrides_apply_in_order(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        cfg = load_config(path, overrides=["lstm.epochs=5", "lstm.epochs=9"])
        assert cfg.lstm.epochs == 9
