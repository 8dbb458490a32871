"""Two-stage hybrid forecaster and its evaluation harness.

Stage 1 pre-trains an LSTM on scaled sliding windows (through a throwaway
linear head) and keeps only the recurrent weights. Stage 2 fits one boosted
tree ensemble per horizon step on the latent vectors the LSTM produces for
the training windows. Two baselines ride along for every run: the LSTM with
its linear head used directly, and boosters fit on flattened raw windows.
All three are one :class:`Forecaster`: a readout on per-window features.

All model quality numbers are computed in original price units after
inverting the fitted min-max scaler.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lstm as lstm_mod
from . import metrics as metrics_mod
from .errors import DomainError, SchemaError, ShapeError, SizingError
from .gbtree import Booster, TreeParams, train_booster
from .market_data import (
    MinMaxScaler,
    PriceSeries,
    WindowedDataset,
    chrono_split,
    make_windows,
    series_to_features,
    train_row_count,
    train_window_count,
)

MODEL_FORMAT = "coincast-model"
MODEL_VERSION = 1


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
        scaler = MinMaxScaler().fit(
            mat[: train_row_count(n_train, n_steps_in, n_steps_out)], names
        )
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
    is either the boosters (one per horizon step, or one on the horizon mean
    repeated over every step) or the linear head of the LSTM pre-training.
    """

    name: str
    lstm: lstm_mod.LstmParams | None
    readout: list[Booster] | lstm_mod.LinearHead
    scaler: MinMaxScaler | None
    target_col: int
    n_steps_out: int
    horizon_mode: str = "per_step"

    def features(self, dataset: WindowedDataset) -> np.ndarray:
        """The (N, p) matrix the readout sees for every window."""
        if self.lstm is None:
            return dataset.X.reshape(dataset.n_samples, -1)
        return lstm_mod.extract_latents(self.lstm, dataset)

    def predict_from_features(self, F: np.ndarray) -> np.ndarray:
        """:meth:`predict_prices` on features already computed by :meth:`features`."""
        if isinstance(self.readout, lstm_mod.LinearHead):
            scaled = self.readout.predict(F)
        elif self.horizon_mode == "horizon_mean":
            scaled = np.tile(self.readout[0].predict(F)[:, np.newaxis], (1, self.n_steps_out))
        elif len(self.readout) != self.n_steps_out:
            raise ShapeError(f"{len(self.readout)} booster(s) for a {self.n_steps_out}-step horizon")
        else:
            scaled = np.column_stack([b.predict(F) for b in self.readout])
        return _invert_target(self.scaler, self.target_col, scaled)

    def predict_prices(self, dataset: WindowedDataset) -> np.ndarray:
        """Forecast the horizon for every window, in original price units."""
        return self.predict_from_features(self.features(dataset))


def fit_horizon_boosters(
    Z: np.ndarray,
    Y: np.ndarray,
    tree_params: TreeParams,
    n_rounds: int,
    horizon_mode: str = "per_step",
) -> list[Booster]:
    """Stage 2: one booster per horizon step (or one on the horizon mean)."""
    if horizon_mode == "horizon_mean":
        return [train_booster(Z, Y.mean(axis=1), tree_params, n_rounds)]
    if horizon_mode != "per_step":
        raise DomainError(f"unknown horizon mode {horizon_mode!r}")
    return [train_booster(Z, Y[:, step], tree_params, n_rounds) for step in range(Y.shape[1])]


def train_models(
    train_ds: WindowedDataset,
    lstm_config: lstm_mod.TrainConfig,
    tree_params: TreeParams,
    n_rounds: int,
    horizon_mode: str = "per_step",
) -> tuple[tuple[Forecaster, ...], tuple[float, ...]]:
    """Fit the hybrid and both baselines on the training windows.

    The LSTM is fit once: the hybrid's boosters read its latents and the
    ``lstm-only`` baseline keeps its pre-training head. Returns the models
    ``(hybrid, lstm-only, gbt-lags)`` and the LSTM's per-epoch loss history.
    """
    params, head, history = lstm_mod.train(train_ds, lstm_config)
    shared = dict(
        scaler=train_ds.scaler,
        target_col=train_ds.target_col,
        n_steps_out=train_ds.n_steps_out,
        horizon_mode=horizon_mode,
    )
    models = _models(params, head, [], [], **shared)
    hybrid, _, gbt_lags = models
    for model in (hybrid, gbt_lags):
        model.readout = fit_horizon_boosters(
            model.features(train_ds), train_ds.Y, tree_params, n_rounds, horizon_mode
        )
    return models, tuple(history)


def _models(params, head, hybrid_boosters, gbt_boosters, **shared) -> tuple[Forecaster, ...]:
    """The ``hybrid``, ``lstm-only`` and ``gbt-lags`` forecasters of one run."""
    return (
        Forecaster("hybrid", params, hybrid_boosters, **shared),
        Forecaster("lstm-only", params, head, **shared),
        Forecaster("gbt-lags", None, gbt_boosters, **shared),
    )


@dataclass(frozen=True)
class EvalRow:
    model: str
    test_mape: float
    test_minmax_rmse: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]

    def to_csv_text(self) -> str:
        lines = ["model,test_mape,test_minmax_rmse"]
        for row in self.rows:
            lines.append(f"{row.model},{row.test_mape!r},{row.test_minmax_rmse!r}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "rows": [
                {
                    "model": r.model,
                    "test_mape": r.test_mape,
                    "test_minmax_rmse": r.test_minmax_rmse,
                }
                for r in self.rows
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _score(model: Forecaster, dataset: WindowedDataset, predictions, mape_epsilon) -> EvalRow:
    """Check predictions in price units and score them, averaged over horizon steps.

    A step metric undefined for the targets (zero actuals for MAPE, zero range
    for MinMax RMSE) raises.
    """
    expected = (dataset.n_samples, dataset.n_steps_out)
    if predictions.shape != expected:
        raise ShapeError(f"predictions have shape {predictions.shape}, expected {expected}")
    if not np.all(np.isfinite(predictions)):
        raise DomainError(f"model {model.name!r} produced non-finite predictions")
    targets = _invert_target(model.scaler, dataset.target_col, dataset.Y)
    steps = range(dataset.n_steps_out)
    mape = [metrics_mod.mape(targets[:, s], predictions[:, s], epsilon=mape_epsilon) for s in steps]
    rmse = [metrics_mod.minmax_rmse(targets[:, s], predictions[:, s]) for s in steps]
    return EvalRow(model.name, float(np.mean(mape)), float(np.mean(rmse)))


def evaluate(models, dataset: WindowedDataset, mape_epsilon: float | None = None) -> EvalReport:
    """Score every model on the same windows; metrics averaged over horizon steps.

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
        rows.append(_score(model, dataset, model.predict_from_features(features[key]), mape_epsilon))
    return EvalReport(rows=tuple(rows))


# --- model directory serialization -----------------------------------------


@dataclass
class TrainedBundle:
    """Everything one symbol's training run produces."""

    hybrid: Forecaster
    lstm_baseline: Forecaster
    gbt_baseline: Forecaster
    loss_history: tuple[float, ...] = ()
    config_snapshot: dict = field(default_factory=dict)
    data_hash: str = ""
    feature_names: tuple[str, ...] = ()
    n_steps_in: int = 0


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SchemaError(f"{path} is not a JSON file: {exc}") from None


def save_bundle(directory, bundle: TrainedBundle) -> None:
    """Write one symbol's models into ``directory`` (which must exist).

    Layout: manifest.json plus one JSON file per component; the manifest's
    ``files`` section names every artifact so loaders never guess.
    """
    directory = Path(directory)
    hybrid = bundle.hybrid
    files: dict = {
        "scaler": "scaler.json",
        "lstm": "lstm.json",
        "head": "head.json",
        "hybrid_boosters": [f"hybrid_booster_{i:02d}.json" for i in range(len(hybrid.readout))],
        "gbt_boosters": [
            f"gbt_booster_{i:02d}.json" for i in range(len(bundle.gbt_baseline.readout))
        ],
    }
    manifest = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": bundle.config_snapshot,
        "data_hash": bundle.data_hash,
        "feature_names": list(bundle.feature_names),
        "target_col": hybrid.target_col,
        "n_steps_in": bundle.n_steps_in,
        "n_steps_out": hybrid.n_steps_out,
        "horizon_mode": hybrid.horizon_mode,
        "files": files,
    }
    _dump_json(directory / "manifest.json", manifest)
    _dump_json(directory / files["scaler"], hybrid.scaler.to_dict())
    _dump_json(directory / files["lstm"], hybrid.lstm.to_dict())
    _dump_json(directory / files["head"], bundle.lstm_baseline.readout.to_dict())
    for kind, model in (("hybrid_boosters", hybrid), ("gbt_boosters", bundle.gbt_baseline)):
        for fname, booster in zip(files[kind], model.readout):
            _dump_json(directory / fname, booster.to_dict())
    loss_lines = ["epoch,loss"]
    loss_lines.extend(f"{i},{v!r}" for i, v in enumerate(bundle.loss_history))
    (directory / "loss_history.csv").write_text("\n".join(loss_lines) + "\n", encoding="utf-8")


def load_bundle(directory) -> TrainedBundle:
    """Inverse of :func:`save_bundle`; a malformed model directory raises SchemaError."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise SizingError(f"no manifest.json under {directory}")
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_FORMAT:
        raise DomainError(f"{manifest_path} is not a recognized model manifest")
    try:
        files = manifest["files"]
        scaler = MinMaxScaler.from_dict(_load_json(directory / files["scaler"]))
        params = lstm_mod.LstmParams.from_dict(_load_json(directory / files["lstm"]))
        head = lstm_mod.LinearHead.from_dict(_load_json(directory / files["head"]))
        hybrid_boosters, gbt_boosters = (
            [Booster.from_dict(_load_json(directory / f)) for f in files[kind]]
            for kind in ("hybrid_boosters", "gbt_boosters")
        )
        target_col = int(manifest["target_col"])
        n_steps_out = int(manifest["n_steps_out"])
        horizon_mode = manifest["horizon_mode"]
        loss_history: tuple[float, ...] = ()
        loss_path = directory / "loss_history.csv"
        if loss_path.is_file():
            lines = loss_path.read_text(encoding="utf-8").strip().splitlines()[1:]
            loss_history = tuple(float(line.split(",")[1]) for line in lines)
        about = dict(
            config_snapshot=manifest.get("config", {}),
            data_hash=manifest.get("data_hash", ""),
            feature_names=tuple(manifest.get("feature_names", ())),
            n_steps_in=int(manifest.get("n_steps_in", 0)),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model directory {directory}: {exc!r}") from None
    if not 0 <= target_col < scaler.mins.size:
        raise SchemaError(f"target column {target_col} is outside the scaler's features")
    if horizon_mode not in ("per_step", "horizon_mean"):
        raise SchemaError(f"unknown horizon mode {horizon_mode!r} in {manifest_path}")
    models = _models(
        params, head, hybrid_boosters, gbt_boosters,
        scaler=scaler, target_col=target_col, n_steps_out=n_steps_out, horizon_mode=horizon_mode,
    )
    return TrainedBundle(*models, loss_history=loss_history, **about)
