import json

import pytest

from coincast.config import RunConfig, apply_override, load_config
from coincast.errors import ConfigError

MINIMAL = {"data": {"BTC": "btc.csv"}}


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
        assert cfg.pipeline.horizon_mode == "per_step"

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
        "tree",
        [
            {},
            {"data": {}},
            {"data": {"BTC": ""}},
            {"data": "btc.csv"},
            {**MINIMAL, "features": []},
            {**MINIMAL, "features": ["close", "close"]},
            {**MINIMAL, "features": ["close", "vwap"]},
            {**MINIMAL, "target": "volume", "features": ["close"]},
            {**MINIMAL, "n_steps_in": 0},
            {**MINIMAL, "n_steps_in": 2.5},
            {**MINIMAL, "n_steps_out": 0},
            {**MINIMAL, "train_fraction": 1.0},
            {**MINIMAL, "train_fraction": "most"},
            {**MINIMAL, "output_dir": ""},
            {**MINIMAL, "lstm": {"hidden_size": 0}},
            {**MINIMAL, "lstm": {"epochs": 0}},
            {**MINIMAL, "lstm": {"learning_rate": 0}},
            {**MINIMAL, "lstm": {"seed": -1}},
            {**MINIMAL, "lstm": {"seed": 2**64}},
            {**MINIMAL, "lstm": {"seed": True}},
            {**MINIMAL, "lstm": {"optimizer": "rmsprop"}},
            {**MINIMAL, "lstm": {"clip_norm": 0}},
            {**MINIMAL, "lstm": {"batch_size": 0}},
            {**MINIMAL, "gbt": {"n_rounds": -1}},
            {**MINIMAL, "gbt": {"lambda": -0.5}},
            {**MINIMAL, "gbt": {"gamma": -0.5}},
            {**MINIMAL, "gbt": {"max_depth": -1}},
            {**MINIMAL, "gbt": {"min_samples_leaf": 0}},
            {**MINIMAL, "gbt": {"learning_rate": 0}},
            {**MINIMAL, "gbt": {"learning_rate": 1.5}},
            {**MINIMAL, "analysis": {"volatility_window": 1}},
            {**MINIMAL, "analysis": {"sma_fast": 50, "sma_slow": 50}},
            {**MINIMAL, "analysis": {"initial_capital": 0}},
            {**MINIMAL, "analysis": {"cost_rate": 1.0}},
            {**MINIMAL, "analysis": {"cost_rate": -0.1}},
            {**MINIMAL, "analysis": {"correlation_basis": "logs"}},
            {**MINIMAL, "pipeline": {"horizon_mode": "median"}},
            {**MINIMAL, "pipeline": {"dump_windows": "yes"}},
            {**MINIMAL, "pipeline": {"mape_epsilon": 0}},
            {**MINIMAL, "lstm": 7},
            {**MINIMAL, "features": 5},
        ],
    )
    def test_invalid_trees_rejected(self, tree):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(tree)

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
        tc = cfg.lstm_train_config()
        assert tc.hidden_size == 8 and tc.epochs == 3 and tc.seed == 9
        tp = cfg.tree_params()
        assert tp.lam == 0.5 and tp.max_depth == 2
        assert cfg.gbt.n_rounds == 7


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
