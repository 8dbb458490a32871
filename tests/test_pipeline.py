import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import CPUS, POOL, random_walk_rows, rows_to_series
from coincast import lstm as lstm_mod
from coincast import metrics as metrics_mod
from coincast import pipeline
from coincast.config import RunConfig
from coincast.errors import DomainError, SchemaError, ShapeError, SizingError
from coincast.gbtree import TreeParams, train_booster
from coincast.lstm import TrainConfig
from coincast.market_data import MinMaxScaler, make_windows, series_to_features
from coincast.pipeline import (
    MODEL_VERSION,
    Forecaster,
    TrainedBundle,
    evaluate,
    load_bundle,
    prepare_datasets,
    save_bundle,
    train_symbols,
)

FEATURES = ("open", "high", "low", "close", "volume")

FAST_LSTM = dict(hidden_size=4, epochs=2, learning_rate=0.01, seed=42)
FAST_TREES = TreeParams(max_depth=2, min_samples_leaf=2)
RUN_CONFIG = RunConfig(data={"SYN": "syn.csv"}, features=FEATURES, n_steps_in=10)


@pytest.fixture(scope="module")
def splits():
    series = rows_to_series(random_walk_rows(T=120, seed=21))
    return prepare_datasets(series, FEATURES, "close", 10, 1, 0.8)


@pytest.fixture(scope="module")
def fitted(splits):
    train_ds, _ = splits
    return train_symbols([train_ds], TrainConfig(**FAST_LSTM), FAST_TREES, n_rounds=5)[0]


@pytest.fixture(scope="module")
def trained(fitted):
    return fitted[0]


def bundle_of(models, train_ds, **kwargs):
    return TrainedBundle(*models, train_ds.scaler, RUN_CONFIG, **kwargs)


def hybrid_of(train_ds, cfg, n_rounds):
    (hybrid, _, _), _ = train_symbols([train_ds], cfg, FAST_TREES, n_rounds)[0]
    return hybrid


class TestPrepareDatasets:
    def test_split_sizes(self, splits):
        train_ds, test_ds = splits
        # 120 rows, 10 in, 1 out -> 110 windows; floor(110 * 0.8) = 88
        assert train_ds.n_samples == 88
        assert test_ds.n_samples == 22

    def test_train_then_test_windows_are_all_windows(self):
        series = rows_to_series(random_walk_rows(T=40, seed=26))
        train_ds, test_ds = prepare_datasets(series, FEATURES, "close", 5, 3, 0.8)
        scaled = train_ds.scaler.apply(series_to_features(series, FEATURES))
        every = make_windows(scaled, FEATURES.index("close"), 5, 3)  # 33 windows, 26 train
        assert (train_ds.n_samples, test_ds.n_samples) == (26, 7)
        npt.assert_array_equal(np.vstack([train_ds.X, test_ds.X]), every.X)
        npt.assert_array_equal(np.vstack([train_ds.Y, test_ds.Y]), every.Y)

    def test_scaler_sees_only_training_rows(self):
        # strictly increasing close: the fitted max must equal the last row
        # any training window touches, not the global max
        rows = random_walk_rows(T=100, seed=22)
        for i, r in enumerate(rows):
            r["close"] = 100.0 + i
            r["open"] = r["close"] - 0.5
            r["high"] = r["close"] + 1.0
            r["low"] = r["open"] - 1.0
        series = rows_to_series(rows)
        train_ds, _ = prepare_datasets(series, FEATURES, "close", 10, 1, 0.8)
        mat = series_to_features(series, FEATURES)
        close_col = FEATURES.index("close")
        # 90 windows -> 72 train -> windows touch rows [0, 72 + 10 + 1 - 1)
        touched = mat[:82, close_col]
        assert train_ds.scaler.maxs[close_col] == touched.max()
        assert train_ds.scaler.maxs[close_col] < mat[:, close_col].max()

    def test_reusing_scaler_is_bitwise(self, splits):
        train_ds, test_ds = splits
        series = rows_to_series(random_walk_rows(T=120, seed=21))
        again_train, again_test = prepare_datasets(
            series, FEATURES, "close", 10, 1, 0.8, scaler=train_ds.scaler
        )
        npt.assert_array_equal(again_train.X, train_ds.X)
        npt.assert_array_equal(again_test.Y, test_ds.Y)

    def test_unknown_target_rejected(self, splits):
        series = rows_to_series(random_walk_rows(T=60, seed=23))
        with pytest.raises(DomainError):
            prepare_datasets(series, FEATURES, "vwap", 10, 1, 0.8)

    def test_too_short_series_rejected(self):
        series = rows_to_series(random_walk_rows(T=8, seed=24))
        with pytest.raises(SizingError):
            prepare_datasets(series, FEATURES, "close", 10, 1, 0.8)

    def test_degenerate_fraction_rejected(self):
        series = rows_to_series(random_walk_rows(T=60, seed=25))
        with pytest.raises(DomainError, match=r"train fraction must be in \(0, 1\), got 1.0"):
            prepare_datasets(series, FEATURES, "close", 10, 1, 1.0)

    def test_empty_split_rejected(self):
        series = rows_to_series(random_walk_rows(T=14, seed=25))  # 4 windows
        with pytest.raises(SizingError, match=r"train fraction 0.2 leaves an empty split for 4 window\(s\)"):
            prepare_datasets(series, FEATURES, "close", 10, 1, 0.2)


class TestModels:
    def test_prediction_shapes(self, splits, trained):
        _, test_ds = splits
        for model in trained:
            preds = model.predict_prices(test_ds)
            assert preds.shape == (test_ds.n_samples, 1)
            assert np.all(np.isfinite(preds))

    def test_hybrid_with_zero_rounds_predicts_inverse_scaled_base(self, splits):
        train_ds, test_ds = splits
        cfg = TrainConfig(**FAST_LSTM)
        hybrid = hybrid_of(train_ds, cfg, n_rounds=0)
        preds = hybrid.predict_prices(test_ds)
        # every booster collapses to its base score = mean scaled target
        base = float(train_ds.Y[:, 0].mean())
        expected = train_ds.scaler.invert_column(
            train_ds.target_col, np.full(test_ds.n_samples, base)
        )
        npt.assert_array_equal(preds[:, 0], expected)

    def test_predict_prices_pure(self, splits, trained):
        _, test_ds = splits
        for model in trained:
            npt.assert_array_equal(model.predict_prices(test_ds), model.predict_prices(test_ds))
        assert evaluate(trained, test_ds) == evaluate(trained, test_ds)

    def test_works_without_scaler(self):
        # datasets built straight from raw rows forecast in raw units
        rng = np.random.default_rng(26)
        rows = np.abs(rng.normal(10.0, 1.0, size=(60, 2)))
        from coincast.market_data import make_windows

        ds = make_windows(rows, target_col=1, n_steps_in=5, n_steps_out=1)
        cfg = TrainConfig(hidden_size=3, epochs=2, learning_rate=0.01, seed=1)
        for model in train_symbols([ds], cfg, FAST_TREES, n_rounds=3)[0][0]:
            preds = model.predict_prices(ds)
            assert preds.shape == (ds.n_samples, 1)

    def test_gbt_lag_model_checks_width(self, splits, trained):
        train_ds, _ = splits
        gbt_lags = trained[2]
        series = rows_to_series(random_walk_rows(T=60, seed=27))
        other_train, _ = prepare_datasets(series, FEATURES, "close", 7, 1, 0.8)
        with pytest.raises(ShapeError):
            gbt_lags.predict_prices(other_train)


class TestMultiStep:
    def test_three_step_horizon(self):
        series = rows_to_series(random_walk_rows(T=100, seed=28))
        train_ds, test_ds = prepare_datasets(series, FEATURES, "close", 8, 3, 0.8)
        assert train_ds.Y.shape[1] == 3
        cfg = TrainConfig(hidden_size=4, epochs=2, learning_rate=0.01, seed=2)
        hybrid = hybrid_of(train_ds, cfg, n_rounds=3)
        assert len(hybrid.readout) == 3
        assert hybrid.predict_prices(test_ds).shape == (test_ds.n_samples, 3)
        (row,) = evaluate([hybrid], test_ds)
        assert row.test_mape >= 0.0 and row.test_minmax_rmse >= 0.0

    def test_booster_count_must_fit_the_horizon(self):
        series = rows_to_series(random_walk_rows(T=100, seed=28))
        train_ds, test_ds = prepare_datasets(series, FEATURES, "close", 8, 3, 0.8)
        cfg = TrainConfig(hidden_size=4, epochs=2, learning_rate=0.01, seed=2)
        hybrid = hybrid_of(train_ds, cfg, n_rounds=3)
        for count in (2, 1):
            short = Forecaster("hybrid", hybrid.lstm, hybrid.readout[:count])
            with pytest.raises(ShapeError, match=rf"{count} booster\(s\) for a 3-step horizon"):
                short.predict_prices(test_ds)


@pytest.fixture(params=[pytest.param("pool", marks=POOL), "in-process"])
def cpus(request, monkeypatch):
    """Fit in a worker pool, or in this process as with one usable CPU."""
    if request.param == "in-process":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return request.param


@pytest.fixture(scope="module")
def three_steps():
    series = rows_to_series(random_walk_rows(T=100, seed=28))
    train_ds, _ = prepare_datasets(series, FEATURES, "close", 8, 3, 0.8)
    lags = train_ds.X.reshape(train_ds.n_samples, -1)
    return [lags[:, :6], lags], train_ds.Y


def fit_jobs(features, Y, n_rounds):
    """One booster fit per (matrix, step) in that order, widest matrix first."""
    return [
        pipeline.Job(pipeline._fit, (F, Y[:, step], FAST_TREES, n_rounds), F.shape[1])
        for F in features
        for step in range(Y.shape[1])
    ]


class TestHorizonBoosters:
    """Booster fits as jobs of ``pipeline.run_jobs``."""

    def test_each_booster_is_the_direct_fit(self, cpus, three_steps, monkeypatch):
        features, Y = three_steps
        fit = pipeline.train_booster

        def tagged(*args):
            booster = fit(*args)
            booster.pid = os.getpid()
            return booster

        monkeypatch.setattr(pipeline, "train_booster", tagged)
        boosters = pipeline.run_jobs(fit_jobs(features, Y, 4))
        assert len(boosters) == 6
        fitted = [boosters[:3], boosters[3:]]
        for F, boosters in zip(features, fitted):
            for step, booster in enumerate(boosters):
                assert booster.to_dict() == fit(F, Y[:, step], FAST_TREES, 4).to_dict()
        in_parent = {b.pid == os.getpid() for boosters in fitted for b in boosters}
        assert in_parent == {cpus == "in-process"}

    @pytest.mark.parametrize("kind", [DomainError, MemoryError])
    def test_first_failing_fit_in_job_order_raises(self, cpus, three_steps, monkeypatch, kind):
        # the wide matrix is fit first and fails at once; the narrow one's
        # second step fails later, but comes first in job order
        features, Y = three_steps

        def failing(F, y, params, n_rounds):
            if F.shape[1] == features[1].shape[1]:
                raise DomainError("wide fit failed")
            if np.array_equal(y, Y[:, 1]):
                time.sleep(0.2)
                raise kind("narrow step 1 failed")
            return train_booster(F, y, params, n_rounds)

        monkeypatch.setattr(pipeline, "train_booster", failing)
        with pytest.raises(kind) as info:
            pipeline.run_jobs(fit_jobs(features, Y, 2))
        assert type(info.value) is kind
        assert str(info.value) == "narrow step 1 failed"


def pid_jobs(count: int) -> list:
    return [pipeline.Job(os.getpid, ()) for _ in range(count)]


@POOL
class TestPool:
    """One pool runs each stage of a command."""

    def test_a_later_stage_reuses_the_workers(self):
        with pipeline.Pool() as pool:
            first = set(pool.run(pid_jobs(2)))
            forked = list(pool.workers)
            assert pool.run(pid_jobs(1)) == [os.getpid()]  # a single job runs in this process
            later = set(pool.run(pid_jobs(CPUS + 2)))
            assert pool.workers[:2] == forked and len(pool.workers) == CPUS
        assert os.getpid() not in later and first <= later and len(later) == CPUS
        assert pool.workers == [] and not any(process.is_alive() for process, _ in forked)

    def test_a_failing_stage_ends_the_workers(self):
        with pipeline.Pool() as pool:
            with pytest.raises(ZeroDivisionError):
                pool.run([pipeline.Job(divmod, (1, 0)), *pid_jobs(2)])
            assert pool.workers == []
            assert os.getpid() not in pool.run(pid_jobs(2))


class TestEvaluate:
    def test_three_model_report(self, splits, trained):
        _, test_ds = splits
        rows = evaluate(trained, test_ds)
        assert [row.model for row in rows] == ["hybrid", "lstm-only", "gbt-lags"]
        for row in rows:
            assert row.test_mape >= 0.0
            assert row.test_minmax_rmse >= 0.0

    def test_single_model_report_matches_its_predictions(self, splits, trained):
        _, test_ds = splits
        hybrid = trained[0]
        predictions = hybrid.predict_prices(test_ds)
        targets = test_ds.scaler.invert_column(test_ds.target_col, test_ds.Y)
        assert predictions.shape == targets.shape
        (row,) = evaluate([hybrid], test_ds)
        assert row.model == "hybrid"
        assert row.test_mape == metrics_mod.mape(targets[:, 0], predictions[:, 0])
        assert row.test_minmax_rmse == metrics_mod.minmax_rmse(targets[:, 0], predictions[:, 0])

    def test_rejects_empty_dataset(self, splits, trained):
        train_ds, _ = splits
        empty = type(train_ds)(
            X=train_ds.X[:0],
            Y=train_ds.Y[:0],
            feature_names=train_ds.feature_names,
            target_col=train_ds.target_col,
            scaler=train_ds.scaler,
        )
        with pytest.raises(SizingError, match="empty dataset"):
            evaluate([trained[0]], empty)

    def test_one_latent_pass_for_models_sharing_an_lstm(self, splits, trained, monkeypatch):
        _, test_ds = splits
        hybrid, lstm_only, _ = trained
        assert hybrid.lstm is lstm_only.lstm
        expected = [evaluate([m], test_ds)[0].test_mape for m in trained]
        calls = []
        extract = lstm_mod.extract_latents

        def counting(params, dataset):
            calls.append(dataset.n_samples)
            return extract(params, dataset)

        monkeypatch.setattr(lstm_mod, "extract_latents", counting)
        rows = evaluate(trained, test_ds)
        assert calls == [test_ds.n_samples]
        assert [row.test_mape for row in rows] == expected

    def test_strict_on_constant_targets(self, trained):
        # constant close -> zero range -> MinMax RMSE undefined -> raise
        rows = random_walk_rows(T=40, seed=29)
        for r in rows:
            r["close"] = 50.0
            r["open"] = 50.0
            r["high"] = 51.0
            r["low"] = 49.0
        series = rows_to_series(rows)
        train_ds, _ = prepare_datasets(series, FEATURES, "close", 5, 1, 0.8)
        cfg = TrainConfig(hidden_size=3, epochs=2, learning_rate=0.01, seed=3)
        hybrid = hybrid_of(train_ds, cfg, n_rounds=2)
        with pytest.raises(DomainError):
            evaluate([hybrid], train_ds)

    def test_empty_model_list(self, splits):
        _, test_ds = splits
        with pytest.raises(SizingError):
            evaluate([], test_ds)

    def test_non_finite_predictions_rejected(self, splits, trained):
        _, test_ds = splits
        lstm_only = trained[1]
        head = lstm_mod.LinearHead(W=lstm_only.readout.W.copy(), b=np.array([np.nan]))
        broken = Forecaster("lstm-only", lstm_only.lstm, head)
        with pytest.raises(DomainError, match="non-finite"):
            evaluate([trained[0], broken], test_ds)


class TestBundleRoundTrip:
    def test_save_load_bitwise_predictions(self, tmp_path, splits, fitted):
        train_ds, test_ds = splits
        (hybrid, lstm_only, gbt_lags), history = fitted
        bundle = bundle_of(fitted[0], train_ds, loss_history=history, data_hash="abc123")
        save_bundle(tmp_path, bundle)
        loaded = load_bundle(tmp_path)
        npt.assert_array_equal(
            loaded.hybrid.predict_prices(test_ds), hybrid.predict_prices(test_ds)
        )
        npt.assert_array_equal(
            loaded.lstm_baseline.predict_prices(test_ds), lstm_only.predict_prices(test_ds)
        )
        npt.assert_array_equal(
            loaded.gbt_baseline.predict_prices(test_ds), gbt_lags.predict_prices(test_ds)
        )
        assert loaded.config == RUN_CONFIG
        npt.assert_array_equal(loaded.scaler.mins, train_ds.scaler.mins)
        npt.assert_array_equal(loaded.scaler.maxs, train_ds.scaler.maxs)
        assert loaded.data_hash == "abc123"
        assert len(history) == FAST_LSTM["epochs"]

    def test_loaded_lstm_reproduces_the_float32_bits(self, tmp_path, splits, fitted):
        # the model files hold the float32 weights' exact float64 widening, so
        # latents and lstm-only predictions come back bit for bit
        train_ds, test_ds = splits
        (hybrid, lstm_only, _), _ = fitted
        save_bundle(tmp_path, bundle_of(fitted[0], train_ds))
        loaded = load_bundle(tmp_path)
        for name in lstm_mod.PARAM_FIELDS:
            assert getattr(loaded.hybrid.lstm, name).dtype == np.float32, name
        for ds in splits:
            before, after = hybrid.features(ds), loaded.hybrid.features(ds)
            assert before.dtype == np.float32 and before.tobytes() == after.tobytes()
        before = lstm_only.predict_prices(test_ds)
        assert before.tobytes() == loaded.lstm_baseline.predict_prices(test_ds).tobytes()

    def test_three_step_round_trip(self, tmp_path):
        series = rows_to_series(random_walk_rows(T=100, seed=28))
        train_ds, test_ds = prepare_datasets(series, FEATURES, "close", 8, 3, 0.8)
        models, _ = train_symbols([train_ds], TrainConfig(**FAST_LSTM), FAST_TREES, n_rounds=3)[0]
        config = RunConfig(data={"SYN": "syn.csv"}, features=FEATURES, n_steps_in=8, n_steps_out=3)
        save_bundle(tmp_path, TrainedBundle(*models, train_ds.scaler, config))
        assert sorted(path.name for path in tmp_path.glob("*_booster_*.json")) == [
            f"{kind}_booster_{i:02d}.json" for kind in ("gbt", "hybrid") for i in range(3)
        ]
        loaded = load_bundle(tmp_path)
        for before, after in zip(models, (loaded.hybrid, loaded.lstm_baseline, loaded.gbt_baseline)):
            npt.assert_array_equal(after.predict_prices(test_ds), before.predict_prices(test_ds))

    def test_every_array_reloads_with_its_dtype_shape_and_bits(self, tmp_path, splits, trained):
        train_ds, _ = splits
        bundle = bundle_of(trained, train_ds)
        save_bundle(tmp_path, bundle)
        loaded = load_bundle(tmp_path)

        def arrays(b):
            lstm, head = b.hybrid.lstm, b.lstm_baseline.readout
            yield from (b.scaler.mins, b.scaler.maxs, head.W, head.b)
            yield from (getattr(lstm, name) for name in lstm_mod.PARAM_FIELDS)
            for booster in (*b.hybrid.readout, *b.gbt_baseline.readout):
                for tree in booster.trees:
                    yield from (tree.feature, tree.left, tree.right, tree.threshold, tree.weight)

        pairs = list(zip(arrays(bundle), arrays(loaded), strict=True))
        assert len(pairs) == 12 + 2 * 5 * 5  # two boosters of five trees
        for before, after in pairs:
            assert (after.dtype, after.shape) == (before.dtype, before.shape)
            assert after.tobytes() == before.tobytes() and after.flags.writeable
        assert {f"{array.dtype}" for array, _ in pairs} == {"float32", "float64", "int64"}
        for before, after in zip((*bundle.hybrid.readout, *bundle.gbt_baseline.readout),
                                 (*loaded.hybrid.readout, *loaded.gbt_baseline.readout)):
            assert (after.base_score, after.params, after.n_features) == (before.base_score, before.params, before.n_features)

    def test_directory_has_the_fixed_layout(self, tmp_path, splits, trained):
        save_bundle(tmp_path, bundle_of(trained, splits[0]))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "gbt_booster_00.json",
            "head.json",
            "hybrid_booster_00.json",
            "loss_history.csv",
            "lstm.json",
            "manifest.json",
            "scaler.json",
        ]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {
            "format": "coincast-model",
            "version": MODEL_VERSION,
            "config": RUN_CONFIG.to_dict(),
            "data_hash": "",
        }

    def test_load_reads_no_path_from_the_manifest(self, tmp_path, splits, trained):
        model = tmp_path / "model"
        model.mkdir()
        save_bundle(model, bundle_of(trained, splits[0]))
        outside = tmp_path / "outside.json"
        outside.write_text(json.dumps(MinMaxScaler.fit(np.ones((2, 5)) * [[0.0], [1.0]]).to_dict()))
        manifest = json.loads((model / "manifest.json").read_text())
        manifest["files"] = {  # the map a version 1 manifest carried
            "scaler": str(outside.resolve()),
            "lstm": "lstm.json",
            "head": "head.json",
            "hybrid_boosters": ["hybrid_booster_00.json"],
            "gbt_boosters": ["gbt_booster_00.json"],
        }
        (model / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_bundle(model)
        own = MinMaxScaler.from_dict(json.loads((model / "scaler.json").read_text()))
        npt.assert_array_equal(loaded.scaler.mins, own.mins)
        npt.assert_array_equal(loaded.scaler.maxs, own.maxs)

    def test_load_rejects_a_scaler_of_another_width(self, tmp_path, trained):
        narrow = MinMaxScaler.fit(np.ones((2, 4)))
        save_bundle(tmp_path, TrainedBundle(*trained, narrow, RUN_CONFIG))
        with pytest.raises(SchemaError, match="the scaler has 4 feature"):
            load_bundle(tmp_path)

    def test_load_rejects_a_bad_config_snapshot(self, tmp_path, splits, trained):
        save_bundle(tmp_path, bundle_of(trained, splits[0]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"]["lstm"]["epoch"] = 3
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="has a bad config snapshot: unknown config key 'lstm.epoch'"):
            load_bundle(tmp_path)

    def test_a_huge_version_is_shown_cut_short(self, tmp_path, splits, trained, monkeypatch):
        save_bundle(tmp_path, bundle_of(trained, splits[0]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = "v" * 100_000
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)  # the message names the manifest by the path given
        with pytest.raises(SchemaError) as info:
            load_bundle(".")
        assert str(info.value) == (
            f"manifest.json is model format version '{'v' * 39}... (100002 characters);"
            f" only version {MODEL_VERSION} is read, so retrain the model"
        )

    @pytest.mark.parametrize(
        "history, text",
        [
            ((0.5, 1.0 / 3.0, 2.5e-07), "epoch,loss\n0,0.5\n1,0.3333333333333333\n2,2.5e-07\n"),
            ((), "epoch,loss\n"),
        ],
        ids=["short", "empty"],
    )
    def test_loss_history_text(self, tmp_path, splits, trained, history, text):
        save_bundle(tmp_path, bundle_of(trained, splits[0], loss_history=history))
        assert (tmp_path / "loss_history.csv").read_text(encoding="utf-8") == text

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(SizingError):
            load_bundle(tmp_path)

    def test_load_rejects_foreign_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(DomainError):
            load_bundle(tmp_path)


class TestSharedStageOne:
    def test_one_lstm_fit_shared_by_hybrid_and_lstm_only(self, splits, monkeypatch, tmp_path):
        # the LSTM may train in a worker process, so each call goes to a file
        train_ds, test_ds = splits
        cfg = TrainConfig(**FAST_LSTM)
        log = tmp_path / "calls"
        fit = lstm_mod.train

        def counting(dataset, config):
            with open(log, "a") as fh:
                fh.write(f"{dataset.n_samples}\n")
            return fit(dataset, config)

        def calls():
            return list(map(int, log.read_text().split()))

        monkeypatch.setattr(lstm_mod, "train", counting)
        first, _ = train_symbols([train_ds], cfg, FAST_TREES, n_rounds=4)[0]
        assert calls() == [train_ds.n_samples]
        assert first[0].lstm is first[1].lstm
        assert first[2].lstm is None
        again, _ = train_symbols([train_ds], cfg, FAST_TREES, n_rounds=4)[0]
        assert len(calls()) == 2
        for a, b in zip(first, again):
            npt.assert_array_equal(a.predict_prices(test_ds), b.predict_prices(test_ds))
