"""Two-stage hybrid forecaster and its evaluation harness.

Stage 1 pre-trains an LSTM on scaled sliding windows (through a throwaway
linear head) and keeps only the recurrent weights. Stage 2 fits one boosted
tree ensemble per horizon step on the latent vectors the LSTM produces for
the training windows. Two baselines ride along for every run: the LSTM with
its linear head used directly, and boosters fit on flattened raw windows.

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
from .errors import DomainError, ShapeError, SizingError
from .gbtree import Booster, TreeParams, train_booster
from .market_data import (
    MinMaxScaler,
    PriceSeries,
    WindowedDataset,
    chrono_split,
    make_windows,
    series_to_features,
    train_row_count,
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
    N = T - n_steps_in - n_steps_out + 1
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train fraction must be in (0, 1), got {train_fraction}")
    n_train = int(N * train_fraction)
    if n_train < 1 or N - n_train < 1:
        raise SizingError(
            f"train fraction {train_fraction} leaves an empty split for {N} window(s)"
        )
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
class HybridModel:
    """LSTM feature extractor + per-step boosted trees."""

    lstm: lstm_mod.LstmParams
    boosters: list[Booster]
    scaler: MinMaxScaler | None
    target_col: int
    n_steps_out: int
    horizon_mode: str = "per_step"
    loss_history: tuple[float, ...] = ()
    name = "hybrid"

    def predict_prices(self, dataset: WindowedDataset) -> np.ndarray:
        """Forecast the horizon for every window, in original price units."""
        return self.predict_from_latents(lstm_mod.extract_latents(self.lstm, dataset))

    def predict_from_latents(self, Z: np.ndarray) -> np.ndarray:
        """:meth:`predict_prices` on latents already extracted with ``self.lstm``."""
        scaled = _apply_horizon_boosters(self.boosters, Z, self.n_steps_out, self.horizon_mode)
        return _invert_target(self.scaler, self.target_col, scaled)


@dataclass
class LstmForecaster:
    """Baseline: the stage-1 LSTM with its linear head used as the model."""

    lstm: lstm_mod.LstmParams
    head: lstm_mod.LinearHead
    scaler: MinMaxScaler | None
    target_col: int
    name = "lstm-only"

    def predict_prices(self, dataset: WindowedDataset) -> np.ndarray:
        return self.predict_from_latents(lstm_mod.extract_latents(self.lstm, dataset))

    def predict_from_latents(self, Z: np.ndarray) -> np.ndarray:
        """:meth:`predict_prices` on latents already extracted with ``self.lstm``."""
        return _invert_target(self.scaler, self.target_col, self.head.predict(Z))


@dataclass
class GbtLagForecaster:
    """Baseline: boosters on flattened windows (n_steps_in * d lag features)."""

    boosters: list[Booster]
    scaler: MinMaxScaler | None
    target_col: int
    n_steps_out: int
    horizon_mode: str = "per_step"
    name = "gbt-lags"

    def predict_prices(self, dataset: WindowedDataset) -> np.ndarray:
        N = dataset.n_samples
        flat = dataset.X.reshape(N, -1)
        scaled = _apply_horizon_boosters(self.boosters, flat, self.n_steps_out, self.horizon_mode)
        return _invert_target(self.scaler, self.target_col, scaled)


def _apply_horizon_boosters(boosters, features: np.ndarray, n_steps_out: int, horizon_mode: str) -> np.ndarray:
    if horizon_mode == "horizon_mean":
        single = boosters[0].predict(features)
        return np.tile(single[:, np.newaxis], (1, n_steps_out))
    if len(boosters) != n_steps_out:
        raise ShapeError(
            f"{len(boosters)} booster(s) for a {n_steps_out}-step horizon"
        )
    return np.column_stack([b.predict(features) for b in boosters])


def fit_temporal_extractor(train_ds: WindowedDataset, config: lstm_mod.TrainConfig):
    """Stage 1: returns (params, head, loss_history)."""
    return lstm_mod.train(train_ds, config)


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


def train_hybrid(
    train_ds: WindowedDataset,
    lstm_config: lstm_mod.TrainConfig,
    tree_params: TreeParams,
    n_rounds: int,
    horizon_mode: str = "per_step",
    stage1=None,
) -> HybridModel:
    """Fit both stages on the training windows.

    ``stage1`` may carry an already-fitted (params, head, history) triple;
    with the same config and data a fresh fit is bit-identical, so sharing
    it with the LSTM baseline only saves time.
    """
    if stage1 is None:
        stage1 = fit_temporal_extractor(train_ds, lstm_config)
    params, _, history = stage1
    Z = lstm_mod.extract_latents(params, train_ds)
    boosters = fit_horizon_boosters(Z, train_ds.Y, tree_params, n_rounds, horizon_mode)
    return HybridModel(
        lstm=params,
        boosters=boosters,
        scaler=train_ds.scaler,
        target_col=train_ds.target_col,
        n_steps_out=train_ds.n_steps_out,
        horizon_mode=horizon_mode,
        loss_history=tuple(history),
    )


def train_baseline_lstm(
    train_ds: WindowedDataset, lstm_config: lstm_mod.TrainConfig, stage1=None
) -> LstmForecaster:
    if stage1 is None:
        stage1 = fit_temporal_extractor(train_ds, lstm_config)
    params, head, _ = stage1
    return LstmForecaster(
        lstm=params, head=head, scaler=train_ds.scaler, target_col=train_ds.target_col
    )


def train_baseline_gbt(
    train_ds: WindowedDataset,
    tree_params: TreeParams,
    n_rounds: int,
    horizon_mode: str = "per_step",
) -> GbtLagForecaster:
    flat = train_ds.X.reshape(train_ds.n_samples, -1)
    boosters = fit_horizon_boosters(flat, train_ds.Y, tree_params, n_rounds, horizon_mode)
    return GbtLagForecaster(
        boosters=boosters,
        scaler=train_ds.scaler,
        target_col=train_ds.target_col,
        n_steps_out=train_ds.n_steps_out,
        horizon_mode=horizon_mode,
    )


@dataclass(frozen=True)
class ForecastResult:
    """Predictions and targets in original units plus per-step accuracy.

    Step metrics that are undefined for the given targets (zero actuals for
    MAPE, zero range for MinMax RMSE) are reported as NaN rather than
    raising, so degenerate fixtures can still be inspected.
    """

    predictions: np.ndarray  # (N, n_steps_out)
    targets: np.ndarray      # (N, n_steps_out)
    step_mape: tuple[float, ...]
    step_minmax_rmse: tuple[float, ...]

    @property
    def mean_mape(self) -> float:
        return float(np.mean(self.step_mape))

    @property
    def mean_minmax_rmse(self) -> float:
        return float(np.mean(self.step_minmax_rmse))


def _lenient(metric, actual, forecast, **kwargs) -> float:
    try:
        return metric(actual, forecast, **kwargs)
    except (DomainError, SizingError):
        return float("nan")


def predict_hybrid(
    model, dataset: WindowedDataset, mape_epsilon: float | None = None
) -> ForecastResult:
    """Run any trained forecaster over a windowed dataset.

    Accepts the hybrid model or either baseline (anything with
    ``predict_prices``). Pure: repeated calls return identical results.
    """
    if dataset.n_samples < 1:
        raise SizingError("cannot forecast over an empty dataset")
    predictions = model.predict_prices(dataset)
    if predictions.shape != (dataset.n_samples, dataset.n_steps_out):
        raise ShapeError(
            f"predictions have shape {predictions.shape}, expected "
            f"{(dataset.n_samples, dataset.n_steps_out)}"
        )
    if not np.all(np.isfinite(predictions)):
        raise DomainError("model produced non-finite predictions")
    targets = _invert_target(getattr(model, "scaler", None), dataset.target_col, dataset.Y)
    step_mape = tuple(
        _lenient(metrics_mod.mape, targets[:, s], predictions[:, s], epsilon=mape_epsilon)
        for s in range(dataset.n_steps_out)
    )
    step_mm = tuple(
        _lenient(metrics_mod.minmax_rmse, targets[:, s], predictions[:, s])
        for s in range(dataset.n_steps_out)
    )
    return ForecastResult(
        predictions=predictions, targets=targets, step_mape=step_mape, step_minmax_rmse=step_mm
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


def evaluate(models, dataset: WindowedDataset, mape_epsilon: float | None = None) -> EvalReport:
    """Score every model on the same windows; metrics averaged over horizon steps.

    Models that share one LSTM (the hybrid and the ``lstm-only`` baseline)
    share one latent pass over the windows. Unlike :func:`predict_hybrid`
    this is strict: undefined metrics raise.
    """
    models = list(models)
    if not models:
        raise SizingError("need at least one model to evaluate")
    if dataset.n_samples < 1:
        raise SizingError("cannot evaluate on an empty dataset")
    latents: dict[int, np.ndarray] = {}  # id of the LstmParams -> its latents
    rows = []
    for model in models:
        params = getattr(model, "lstm", None)
        if params is None:
            predictions = model.predict_prices(dataset)
        else:
            if id(params) not in latents:
                latents[id(params)] = lstm_mod.extract_latents(params, dataset)
            predictions = model.predict_from_latents(latents[id(params)])
        targets = _invert_target(getattr(model, "scaler", None), dataset.target_col, dataset.Y)
        mapes = [
            metrics_mod.mape(targets[:, s], predictions[:, s], epsilon=mape_epsilon)
            for s in range(dataset.n_steps_out)
        ]
        mms = [
            metrics_mod.minmax_rmse(targets[:, s], predictions[:, s])
            for s in range(dataset.n_steps_out)
        ]
        rows.append(
            EvalRow(
                model=model.name,
                test_mape=float(np.mean(mapes)),
                test_minmax_rmse=float(np.mean(mms)),
            )
        )
    return EvalReport(rows=tuple(rows))


# --- model directory serialization -----------------------------------------


@dataclass
class TrainedBundle:
    """Everything one symbol's training run produces."""

    hybrid: HybridModel
    lstm_baseline: LstmForecaster
    gbt_baseline: GbtLagForecaster
    config_snapshot: dict = field(default_factory=dict)
    data_hash: str = ""
    feature_names: tuple[str, ...] = ()
    n_steps_in: int = 0


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        "hybrid_boosters": [
            f"hybrid_booster_{i:02d}.json" for i in range(len(hybrid.boosters))
        ],
        "gbt_boosters": [
            f"gbt_booster_{i:02d}.json" for i in range(len(bundle.gbt_baseline.boosters))
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
    _dump_json(directory / files["head"], bundle.lstm_baseline.head.to_dict())
    for fname, booster in zip(files["hybrid_boosters"], hybrid.boosters):
        _dump_json(directory / fname, booster.to_dict())
    for fname, booster in zip(files["gbt_boosters"], bundle.gbt_baseline.boosters):
        _dump_json(directory / fname, booster.to_dict())
    loss_lines = ["epoch,loss"]
    loss_lines.extend(f"{i},{v!r}" for i, v in enumerate(hybrid.loss_history))
    (directory / "loss_history.csv").write_text("\n".join(loss_lines) + "\n", encoding="utf-8")


def load_bundle(directory) -> TrainedBundle:
    """Inverse of :func:`save_bundle`."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise SizingError(f"no manifest.json under {directory}")
    manifest = _load_json(manifest_path)
    if manifest.get("format") != MODEL_FORMAT:
        raise DomainError(f"{manifest_path} is not a recognized model manifest")
    files = manifest["files"]
    scaler = MinMaxScaler.from_dict(_load_json(directory / files["scaler"]))
    params = lstm_mod.LstmParams.from_dict(_load_json(directory / files["lstm"]))
    head = lstm_mod.LinearHead.from_dict(_load_json(directory / files["head"]))
    hybrid_boosters = [
        Booster.from_dict(_load_json(directory / f)) for f in files["hybrid_boosters"]
    ]
    gbt_boosters = [Booster.from_dict(_load_json(directory / f)) for f in files["gbt_boosters"]]
    target_col = int(manifest["target_col"])
    n_out = int(manifest["n_steps_out"])
    mode = manifest["horizon_mode"]
    loss_history: tuple[float, ...] = ()
    loss_path = directory / "loss_history.csv"
    if loss_path.is_file():
        lines = loss_path.read_text(encoding="utf-8").strip().splitlines()[1:]
        loss_history = tuple(float(line.split(",")[1]) for line in lines)
    hybrid = HybridModel(
        lstm=params,
        boosters=hybrid_boosters,
        scaler=scaler,
        target_col=target_col,
        n_steps_out=n_out,
        horizon_mode=mode,
        loss_history=loss_history,
    )
    lstm_baseline = LstmForecaster(lstm=params, head=head, scaler=scaler, target_col=target_col)
    gbt_baseline = GbtLagForecaster(
        boosters=gbt_boosters,
        scaler=scaler,
        target_col=target_col,
        n_steps_out=n_out,
        horizon_mode=mode,
    )
    return TrainedBundle(
        hybrid=hybrid,
        lstm_baseline=lstm_baseline,
        gbt_baseline=gbt_baseline,
        config_snapshot=manifest.get("config", {}),
        data_hash=manifest.get("data_hash", ""),
        feature_names=tuple(manifest.get("feature_names", ())),
        n_steps_in=int(manifest.get("n_steps_in", 0)),
    )
