"""Two-stage hybrid forecaster and its evaluation harness.

Stage 1 pre-trains an LSTM on scaled sliding windows (through a throwaway
linear head) and keeps only the recurrent weights. Stage 2 fits one boosted
tree ensemble per horizon step on the latent vectors the LSTM produces for
the training windows. Two baselines ride along for every run: the LSTM with
its linear head used directly, and boosters fit on flattened raw windows.
All three are one :class:`Forecaster`: a readout on per-window features.

Training is a set of independent jobs: each dataset's LSTM (training plus
the training windows' latents) and each booster (both kinds, every horizon
step). They run on a :class:`Pool` of up to one forked worker process per
usable CPU. Boosters call no BLAS, and an LSTM trains with BLAS held at one
thread (:class:`~coincast.numkernel.one_blas_thread`), so parallel jobs do
not oversubscribe the cores. Where BLAS's thread count cannot be set, every
job runs in this process, one after another. The artifacts are
byte-identical on every schedule.

A command opens one :class:`Pool` and runs each of its stages on it as one
:meth:`Pool.run`; workers are forked when a stage first needs them and
serve every later stage. ``analyze`` has two stages, parsing each symbol's
CSV and then writing each output file; ``train`` (through
:func:`train_symbols`) and ``backtest``, whose jobs each run one symbol's
backtest, have one.

All model quality numbers are computed in original price units after
inverting the fitted min-max scaler.
"""
from __future__ import annotations

import json
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import lstm as lstm_mod
from . import metrics as metrics_mod
from .config import RunConfig
from .errors import ConfigError, DomainError, SchemaError, ShapeError, SizingError, WorkerError, shown
from .gbtree import Booster, TreeParams, train_booster
from .market_data import (
    MinMaxScaler,
    PriceSeries,
    WindowedDataset,
    json_text,
    make_windows,
    series_to_features,
    train_window_count,
    write_csv,
)

MODEL_FORMAT = "coincast-model"
MODEL_VERSION = 5

# The error of a job whose worker process died, whichever command ran it.
WORKER_DIED = "a worker process died before returning its job's result"


def prepare_datasets(
    series: PriceSeries,
    feature_names,
    target: str,
    n_steps_in: int,
    n_steps_out: int,
    train_fraction: float,
    scaler: MinMaxScaler | None = None,
):
    """Scale a series and cut it into chronological train/test windows: the
    first :func:`train_window_count` windows train, the rest test.

    When no scaler is given, one is fit on exactly the rows the training
    windows touch. With ``n_steps_out`` h > 1 those include the first test
    window's first h - 1 target rows. Pass a fitted scaler (e.g. from a saved
    model) to reproduce the training-time transformation.
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
        scaler = MinMaxScaler.fit(mat[: n_train + n_steps_in + n_steps_out - 1])
    scaled = scaler.apply(mat)
    dataset = make_windows(
        scaled, target_col, n_steps_in, n_steps_out, feature_names=names, scaler=scaler
    )
    train = replace(dataset, X=dataset.X[:n_train], Y=dataset.Y[:n_train])
    test = replace(dataset, X=dataset.X[n_train:], Y=dataset.Y[n_train:])
    return train, test


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


def _fit(F, y, tree_params, n_rounds) -> Booster:
    # Looks train_booster up when called, so a forked worker runs the one
    # bound in its parent.
    return train_booster(F, y, tree_params, n_rounds)


def _train_lstm(train_ds: WindowedDataset, lstm_config: lstm_mod.TrainConfig):
    """Stage 1 of one dataset: the LSTM, its head, its loss history and the
    training windows' latents, on which the hybrid's boosters are fit."""
    params, head, history = lstm_mod.train(train_ds, lstm_config)
    return params, head, history, lstm_mod.extract_latents(params, train_ds)


@dataclass
class Job:
    """``fn(*args)``, one unit of work for :meth:`Pool.run`. ``fn`` and
    ``args`` must pickle, as a worker receives them through a pipe.

    ``cost`` ranks ready jobs, largest first, so that the longest do not
    trail: a booster fit's feature columns, a written file's cells. A hybrid
    booster is fit on the latents its dataset's LSTM job returns: ``after`` is
    that job's index, and the latents go before ``args`` once it has
    returned. A job that another waits on goes before every ``cost``."""

    fn: Callable
    args: tuple
    cost: int = 0
    after: int | None = None


def train_symbols(
    train_sets: Sequence[WindowedDataset],
    lstm_config: lstm_mod.TrainConfig,
    tree_params: TreeParams,
    n_rounds: int,
) -> list[tuple[tuple[Forecaster, ...], tuple[float, ...]]]:
    """Fit the hybrid and both baselines on each dataset's training windows.

    Returns each dataset's models ``(hybrid, lstm-only, gbt-lags)`` and LSTM
    loss history, in order, once every dataset is fitted.

    Each dataset's LSTM is one job and each booster is one job, all on one
    worker pool. ``gbt-lags`` boosters are ready at once and hybrid boosters
    when their LSTM returns; ready jobs go LSTMs first, then widest features
    first. LSTMs train in workers with BLAS held at one thread. Where BLAS's
    thread count cannot be set, every job runs in this process in job order,
    as unpinned parallel LSTMs would oversubscribe the cores.

    The models are the same bits on every schedule. Errors come in dataset
    order: the first dataset whose LSTM or boosters fail decides the error,
    raised as the job raised it; the workers are then ended, running or not.
    A worker that dies raises WorkerError.
    """
    from .numkernel import one_blas_thread

    jobs = []
    k = lstm_config.hidden_size
    for ds in train_sets:
        lstm_job = len(jobs)
        jobs.append(Job(_train_lstm, (ds, lstm_config)))
        steps = range(ds.n_steps_out)
        jobs += [Job(_fit, (ds.Y[:, s], tree_params, n_rounds), k, lstm_job) for s in steps]
        lags = ds.X.reshape(ds.n_samples, -1)
        jobs += [Job(_fit, (lags, ds.Y[:, s], tree_params, n_rounds), lags.shape[1]) for s in steps]

    with one_blas_thread() as blas, Pool(blas.pinned) as pool:
        results = pool.run(jobs)
    fitted = []
    for ds in train_sets:
        n_steps = ds.n_steps_out
        (params, head, history, _), *boosters = results[: 1 + 2 * n_steps]
        del results[: 1 + 2 * n_steps]
        fitted.append((_models(params, head, boosters[:n_steps], boosters[n_steps:]), tuple(history)))
    return fitted


class _Schedule:
    """Which jobs of one run are waiting, done or failed."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.waiting = list(range(len(jobs)))
        self.results = {}
        self.first_failure = len(jobs)
        self.error = None

    def ready(self) -> list[int]:
        """Waiting jobs whose inputs exist, in job order; none after a failure,
        since an earlier error or this one will be raised instead."""
        return [
            i
            for i in self.waiting
            if i < self.first_failure and (self.jobs[i].after is None or self.jobs[i].after in self.results)
        ]

    def start(self, i):
        """Job i's function and arguments, its dependency's latents filled in."""
        self.waiting.remove(i)
        job = self.jobs[i]
        args = job.args if job.after is None else (self.results[job.after][-1], *job.args)
        return job.fn, args

    def finish(self, i, ok, value) -> None:
        """Record job i; raise the first failure once every job before it returned."""
        if ok:
            self.results[i] = value
        elif i < self.first_failure:
            self.first_failure, self.error = i, value
        if self.error is not None and all(j in self.results for j in range(self.first_failure)):
            raise self.error

    @property
    def done(self) -> bool:
        return len(self.results) == len(self.jobs)


def _serve(conn) -> None:
    """A worker's loop: run each ``(fn, args)`` the parent sends and send back
    ``(True, result)`` or ``(False, exception)``."""
    import signal

    # The parent reports an interrupt and then ends its workers; until this
    # point the parent's handlers are in force, with the signals blocked.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGINT, signal.SIGTERM))
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:  # the parent is gone
            return
        try:
            reply = True, fn(*args)
        except Exception as exc:  # the parent raises it in job order
            reply = False, exc
        conn.send(reply)


class Pool:
    """The forked worker processes of one command, which runs each of its
    stages as one :meth:`run`. A stage forks only the workers it needs that
    the pool does not have yet, so a later stage reuses those of an earlier
    one. Leaving the ``with`` block, or a stage's error, kills them, running
    or not. ``workers=False`` runs every stage in this process."""

    def __init__(self, workers: bool = True):
        self.allowed = workers
        self.workers = []  # (process, connection)
        self.running = {}  # connection -> index of the job it runs

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def run(self, jobs: Sequence[Job]) -> list:
        """The result of every job, in job order. The scheduler of ``train``,
        ``analyze`` and ``backtest``.

        With the pool's ``workers``, at least two usable CPUs and at least two
        jobs, jobs run in up to one forked worker per usable CPU, ready ones
        by priority: a job that another waits on first, then largest ``cost``
        first. Otherwise this process runs every job, in job order. The error of the
        first failing job in job order is raised, as the job raised it, once
        every job before it has returned; the workers are then ended, running
        or not. A worker that dies raises WorkerError.
        """
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        size = min(cpus, len(jobs)) if self.allowed else 0
        waited_on = {job.after for job in jobs}
        schedule = _Schedule(jobs)
        try:
            if size >= 2:
                self._fork(size - len(self.workers))
            while not schedule.done:
                ready = schedule.ready()
                if size < 2:
                    fn, args = schedule.start(ready[0])
                    try:
                        ok, value = True, fn(*args)
                    except Exception as exc:  # raised by finish in job order
                        ok, value = False, exc
                    schedule.finish(ready[0], ok, value)
                    continue
                # jobs others wait on (LSTMs) first; then the largest, so that
                # the longest do not trail
                for i in sorted(ready, key=lambda i: (i not in waited_on, -jobs[i].cost, i)):
                    if len(self.running) == len(self.workers):
                        break
                    self._send(i, *schedule.start(i))
                schedule.finish(*self._receive())
        except BaseException:
            self.close()
            raise
        return [schedule.results[i] for i in range(len(jobs))]

    def _fork(self, count: int) -> None:
        if count < 1:
            return
        # imported here: the pool's modules cost every other command time
        import multiprocessing
        import signal

        # fork, not spawn: a worker starts with the parent's imports instead of
        # re-importing numpy, and with its BLAS thread count. Every platform
        # with sched_getaffinity has fork.
        context = multiprocessing.get_context("fork")
        # a signal during the forks waits until the children have set their own handlers
        signals = (signal.SIGINT, signal.SIGTERM)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signals)
        try:
            for _ in range(count):
                conn, child_conn = context.Pipe()
                process = context.Process(target=_serve, args=(child_conn,))
                process.start()
                child_conn.close()
                self.workers.append((process, conn))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _send(self, i: int, fn, args) -> None:
        conn = next(c for _, c in self.workers if c not in self.running)
        conn.send((fn, args))
        self.running[conn] = i

    def _receive(self):
        """``(job index, ok, value)`` of the next job a worker returns."""
        from multiprocessing.connection import wait

        ready = wait([*self.running, *(process.sentinel for process, _ in self.workers)])
        for conn in self.running:
            if conn in ready:
                try:
                    return (self.running.pop(conn), *conn.recv())
                except EOFError:
                    break
        raise WorkerError(WORKER_DIED)

    def close(self) -> None:
        """Kill and reap every worker, running or not."""
        for process, _ in self.workers:
            process.kill()
        for process, conn in self.workers:
            process.join()
            conn.close()
        self.workers, self.running = [], {}


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


def _booster_files(kind: str, count: int):
    """The fixed file name of each of ``count`` boosters of one model, in step order,
    made as it is read, so a loader stops at the first missing file."""
    return (f"{kind}_booster_{i:02d}.json" for i in range(count))


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SchemaError(f"{path} is not a JSON file: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests JSON too deeply to read") from None


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
            f"{manifest_path} is model format version {shown(manifest.get('version'))};"
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
