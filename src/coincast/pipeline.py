"""Two-stage hybrid forecaster and its evaluation harness.

Stage 1 pre-trains an LSTM on scaled sliding windows (through a throwaway
linear head) and keeps only the recurrent weights. Stage 2 fits one boosted
tree ensemble per horizon step on the latent vectors the LSTM produces for
the training windows. Two baselines ride along for every run: the LSTM with
its linear head used directly, and boosters fit on flattened raw windows.
All three are one :class:`Forecaster`: a readout on per-window features.

A symbol's boosters (both kinds, every horizon step) are independent fits
that call no BLAS, so they run in up to one forked worker process per usable
CPU; the artifacts are byte-identical whatever the CPU count. Symbols stay
sequential: their LSTM training runs on BLAS, whose thread count this
package cannot set, and parallel symbols oversubscribe the cores.

All model quality numbers are computed in original price units after
inverting the fitted min-max scaler.
"""
from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lstm as lstm_mod
from . import metrics as metrics_mod
from .config import RunConfig
from .errors import ConfigError, DomainError, SchemaError, ShapeError, SizingError, WorkerError
from .gbtree import Booster, TreeParams, train_booster
from .market_data import (
    MinMaxScaler,
    PriceSeries,
    WindowedDataset,
    chrono_split,
    json_text,
    make_windows,
    series_to_features,
    train_row_count,
    train_window_count,
    write_csv,
)

MODEL_FORMAT = "coincast-model"
MODEL_VERSION = 4


def prepare_datasets(
    series: PriceSeries,
    feature_names,
    target: str,
    n_steps_in: int,
    n_steps_out: int,
    train_fraction: float,
    scaler: MinMaxScaler | None = None,
):
    """Scale a series and cut it into chronological train/test windows.

    When no scaler is given, one is fit on exactly the rows the training
    windows touch, so no information from the test period leaks into the
    scaling. Pass a fitted scaler (e.g. from a saved model) to reproduce the
    training-time transformation.
    """
    names = tuple(feature_names)
    if target not in names:
        raise DomainError(f"target {target!r} is not among the features {names}")
    target_col = names.index(target)
    mat = series_to_features(series, names)
    T = mat.shape[0]
    if T < n_steps_in + n_steps_out:
        raise SizingError(
            f"need at least {n_steps_in + n_steps_out} rows for one window, got {T}"
        )
    n_train = train_window_count(T - n_steps_in - n_steps_out + 1, train_fraction)
    if scaler is None:
        scaler = MinMaxScaler.fit(mat[: train_row_count(n_train, n_steps_in, n_steps_out)])
    scaled = scaler.apply(mat)
    dataset = make_windows(
        scaled, target_col, n_steps_in, n_steps_out, feature_names=names, scaler=scaler
    )
    return chrono_split(dataset, train_fraction)


def _invert_target(scaler: MinMaxScaler | None, target_col: int, values: np.ndarray) -> np.ndarray:
    if scaler is None:
        return np.asarray(values, dtype=np.float64)
    return scaler.invert_column(target_col, values)


@dataclass
class Forecaster:
    """A readout on per-window features, forecasting in original price units.

    With ``lstm`` set the features are the LSTM's latent vectors; without it
    they are the flattened windows (n_steps_in * d lag features). The readout
    is either the boosters (one per horizon step) or the linear head of the
    LSTM pre-training.
    The scaler, target column and horizon are the dataset's.
    """

    name: str
    lstm: lstm_mod.LstmParams | None
    readout: list[Booster] | lstm_mod.LinearHead

    def features(self, dataset: WindowedDataset) -> np.ndarray:
        """The (N, p) matrix the readout sees for every window."""
        if self.lstm is None:
            return dataset.X.reshape(dataset.n_samples, -1)
        return lstm_mod.extract_latents(self.lstm, dataset)

    def predict_from_features(self, F: np.ndarray, dataset: WindowedDataset) -> np.ndarray:
        """:meth:`predict_prices` on features already computed by :meth:`features`."""
        n_steps_out = dataset.n_steps_out
        if isinstance(self.readout, lstm_mod.LinearHead):
            scaled = self.readout.predict(F)
        elif len(self.readout) != n_steps_out:
            raise ShapeError(f"{len(self.readout)} booster(s) for a {n_steps_out}-step horizon")
        else:
            scaled = np.column_stack([b.predict(F) for b in self.readout])
        return _invert_target(dataset.scaler, dataset.target_col, scaled)

    def predict_prices(self, dataset: WindowedDataset) -> np.ndarray:
        """Forecast the horizon for every window, in original price units."""
        return self.predict_from_features(self.features(dataset), dataset)


def fit_horizon_boosters(
    features: Sequence[np.ndarray], Y: np.ndarray, tree_params: TreeParams, n_rounds: int
) -> list[list[Booster]]:
    """Stage 2: on each (N, p) matrix of ``features``, one booster per horizon
    step of ``Y``; returns each matrix's boosters in step order.

    The fits run in up to one forked worker process per usable CPU, widest
    matrix first so that the longest fits do not trail; with one usable CPU
    they run in this process. Either way the boosters are the
    same bits, and the error of the first failing fit in (matrix, step) order
    is raised as the fit raised it. A worker that dies raises WorkerError.
    """
    n_steps = Y.shape[1]
    jobs = [(F, Y[:, step]) for F in features for step in range(n_steps)]
    boosters = _fit_all(jobs, tree_params, n_rounds)
    return [boosters[i * n_steps : (i + 1) * n_steps] for i in range(len(features))]


def _fit(F, y, tree_params, n_rounds) -> Booster:
    # Looks train_booster up when called, so a forked worker runs the one
    # bound in its parent.
    return train_booster(F, y, tree_params, n_rounds)


def _fit_all(jobs, tree_params, n_rounds) -> list[Booster]:
    """The booster of every ``(features, target)`` job, in job order."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers > 1:
        # imported here: the pool's modules cost every other command ~20 ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork, not spawn: a worker starts with the parent's imports instead of
        # re-importing numpy, and fits call no BLAS, whose threads a fork would not
        # carry. Every platform with sched_getaffinity has fork.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            widest_first = sorted(range(len(jobs)), key=lambda i: -jobs[i][0].shape[1])
            futures = {i: pool.submit(_fit, *jobs[i], tree_params, n_rounds) for i in widest_first}
            return [futures[i].result() for i in range(len(jobs))]
        except BrokenProcessPool:
            raise WorkerError("a worker process fitting boosters died before returning") from None
        finally:
            pool.shutdown(cancel_futures=True)
    return [_fit(F, y, tree_params, n_rounds) for F, y in jobs]


def train_models(
    train_ds: WindowedDataset,
    lstm_config: lstm_mod.TrainConfig,
    tree_params: TreeParams,
    n_rounds: int,
) -> tuple[tuple[Forecaster, ...], tuple[float, ...]]:
    """Fit the hybrid and both baselines on the training windows.

    The LSTM is fit once: the hybrid's boosters read its latents and the
    ``lstm-only`` baseline keeps its pre-training head. Returns the models
    ``(hybrid, lstm-only, gbt-lags)`` and the LSTM's per-epoch loss history.
    """
    params, head, history = lstm_mod.train(train_ds, lstm_config)
    models = _models(params, head, [], [])
    hybrid, _, gbt_lags = models
    hybrid.readout, gbt_lags.readout = fit_horizon_boosters(
        [hybrid.features(train_ds), gbt_lags.features(train_ds)], train_ds.Y, tree_params, n_rounds
    )
    return models, tuple(history)


def _models(params, head, hybrid_boosters, gbt_boosters) -> tuple[Forecaster, ...]:
    """The ``hybrid``, ``lstm-only`` and ``gbt-lags`` forecasters of one run."""
    return (
        Forecaster("hybrid", params, hybrid_boosters),
        Forecaster("lstm-only", params, head),
        Forecaster("gbt-lags", None, gbt_boosters),
    )


@dataclass(frozen=True)
class EvalRow:
    model: str
    test_mape: float
    test_minmax_rmse: float


def _score(model: Forecaster, dataset: WindowedDataset, predictions) -> EvalRow:
    """Check predictions in price units and score them, averaged over horizon steps.

    A step metric undefined for the targets (zero actuals for MAPE, zero range
    for MinMax RMSE) raises.
    """
    expected = (dataset.n_samples, dataset.n_steps_out)
    if predictions.shape != expected:
        raise ShapeError(f"predictions have shape {predictions.shape}, expected {expected}")
    if not np.all(np.isfinite(predictions)):
        raise DomainError(f"model {model.name!r} produced non-finite predictions")
    targets = _invert_target(dataset.scaler, dataset.target_col, dataset.Y)
    steps = range(dataset.n_steps_out)
    mape = [metrics_mod.mape(targets[:, s], predictions[:, s]) for s in steps]
    rmse = [metrics_mod.minmax_rmse(targets[:, s], predictions[:, s]) for s in steps]
    return EvalRow(model.name, float(np.mean(mape)), float(np.mean(rmse)))


def evaluate(models, dataset: WindowedDataset) -> tuple[EvalRow, ...]:
    """Score every model on the same windows, one row per model in order;
    metrics averaged over horizon steps.

    Models that share one LSTM (the hybrid and the ``lstm-only`` baseline)
    share one feature pass over the windows. Undefined metrics raise.
    """
    models = list(models)
    if not models:
        raise SizingError("need at least one model to evaluate")
    if dataset.n_samples < 1:
        raise SizingError("cannot evaluate on an empty dataset")
    features: dict[int, np.ndarray] = {}  # id of the LstmParams (or None) -> features
    rows = []
    for model in models:
        key = id(model.lstm)
        if key not in features:
            features[key] = model.features(dataset)
        predictions = model.predict_from_features(features[key], dataset)
        rows.append(_score(model, dataset, predictions))
    return tuple(rows)


# --- model directory serialization -----------------------------------------


@dataclass
class TrainedBundle:
    """Everything one symbol's training run produces.

    ``loss_history`` is written to ``loss_history.csv`` for the reader;
    :func:`load_bundle` does not read it back.
    """

    hybrid: Forecaster
    lstm_baseline: Forecaster
    gbt_baseline: Forecaster
    scaler: MinMaxScaler
    config: RunConfig
    loss_history: tuple[float, ...] = ()
    data_hash: str = ""


def _booster_files(kind: str, count: int) -> list[str]:
    """The fixed file name of each of ``count`` boosters of one model, in step order."""
    return [f"{kind}_booster_{i:02d}.json" for i in range(count)]


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SchemaError(f"{path} is not a JSON file: {exc}") from None


def save_bundle(directory, bundle: TrainedBundle) -> None:
    """Write one symbol's models into ``directory`` (which must exist).

    The layout is fixed: manifest.json (format, version, config snapshot and
    data hash), scaler.json, lstm.json, head.json, one hybrid_booster_NN.json
    and one gbt_booster_NN.json per horizon step, and loss_history.csv.
    """
    directory = Path(directory)
    hybrid = bundle.hybrid
    payloads = {
        "manifest.json": {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": bundle.config.to_dict(),
            "data_hash": bundle.data_hash,
        },
        "scaler.json": bundle.scaler.to_dict(),
        "lstm.json": hybrid.lstm.to_dict(),
        "head.json": bundle.lstm_baseline.readout.to_dict(),
    }
    for kind, model in (("hybrid", hybrid), ("gbt", bundle.gbt_baseline)):
        files = _booster_files(kind, len(model.readout))
        payloads.update((f, booster.to_dict()) for f, booster in zip(files, model.readout))
    for name, payload in payloads.items():
        (directory / name).write_text(json_text(payload), encoding="utf-8")
    history = np.asarray(bundle.loss_history, dtype=np.float64)
    write_csv(directory / "loss_history.csv", ["epoch", "loss"], [range(history.size), history])


def load_bundle(directory) -> TrainedBundle:
    """Inverse of :func:`save_bundle`; a malformed model directory, or one of
    another format version, raises SchemaError."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise SizingError(f"no manifest.json under {directory}")
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_FORMAT:
        raise DomainError(f"{manifest_path} is not a recognized model manifest")
    if manifest.get("version") != MODEL_VERSION:
        raise SchemaError(
            f"{manifest_path} is model format version {manifest.get('version')!r};"
            f" only version {MODEL_VERSION} is read, so retrain the model"
        )
    try:
        config = RunConfig.from_dict(manifest.get("config"))
    except ConfigError as exc:
        raise SchemaError(f"model directory {directory} has a bad config snapshot: {exc}") from None
    try:
        scaler = MinMaxScaler.from_dict(_load_json(directory / "scaler.json"))
        params = lstm_mod.LstmParams.from_dict(_load_json(directory / "lstm.json"))
        head = lstm_mod.LinearHead.from_dict(_load_json(directory / "head.json"))
        hybrid_boosters, gbt_boosters = (
            [
                Booster.from_dict(_load_json(directory / f))
                for f in _booster_files(kind, config.n_steps_out)
            ]
            for kind in ("hybrid", "gbt")
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model directory {directory}: {exc!r}") from None
    if scaler.mins.size != len(config.features):
        raise SchemaError(
            f"the scaler has {scaler.mins.size} feature(s); the config names {len(config.features)}"
        )
    models = _models(params, head, hybrid_boosters, gbt_boosters)
    return TrainedBundle(*models, scaler, config, data_hash=manifest.get("data_hash", ""))
