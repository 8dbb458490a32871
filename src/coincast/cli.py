"""Command-line interface: analyze | train | evaluate | backtest.

Every command takes --config pointing at a JSON file, plus any number of
--set dotted.key=value overrides; the TOOL_SEED environment variable
overrides the configured seed (flags beat the environment, which beats the
file). Artifacts are written to a temporary directory first and moved into
the configured output directory only when the whole command has succeeded,
so a failed run never leaves partial files behind.

Exit codes: 0 success, 2 configuration or usage error, 3 data/input error, a
failed allocation or a worker process that died, 4 numeric training failure,
130 and 143 interrupted by SIGINT and SIGTERM (which the command turns into
an exception while it runs, as Python does SIGINT).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, pipeline
from .config import AnalysisSection, RunConfig, load_config
from .errors import (
    ConfigError,
    DomainError,
    SchemaError,
    ShapeError,
    SizingError,
    TrainingError,
    ValidationError,
    WorkerError,
)
from .market_data import (
    align_on_dates,
    json_text,
    parse_csv,
    rebase_to_100,
    windows_to_csv,
    write_csv,
)

# Exit code of each kind of error, first match wins.
_EXIT_CODES = (
    (ConfigError, 2),
    (TrainingError, 4),
    ((SchemaError, ValidationError, SizingError, DomainError, ShapeError, OSError, MemoryError, WorkerError), 3),
)


class _Stage:
    """Collects output files in a temp dir next to the target, then commits
    them with per-file atomic renames."""

    def __init__(self, outdir: Path):
        self.final = outdir
        outdir.parent.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=".stage-", dir=str(outdir.parent)))

    def path(self, relative: str) -> Path:
        p = self.tmp / relative
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def write_text(self, relative: str, text: str) -> None:
        self.path(relative).write_text(text, encoding="utf-8")

    def write_csv(self, relative: str, header, columns) -> None:
        write_csv(self.path(relative), header, columns)

    def write_json(self, relative: str, payload) -> None:
        self.write_text(relative, json_text(payload))

    def commit(self) -> None:
        for root, _, files in os.walk(self.tmp):
            for name in files:
                src = Path(root) / name
                rel = src.relative_to(self.tmp)
                dest = self.final / rel
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(src, dest)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def abort(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _read_bytes(symbol: str, path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read data file for {symbol}: {exc}") from None


def _read_series(symbol: str, path: str):
    return parse_csv(_read_bytes(symbol, path))


def _load_all(cfg: RunConfig) -> dict:
    """Each symbol's series, one job per symbol on the worker pool."""
    jobs = [pipeline.Job(_read_series, (symbol, path)) for symbol, path in cfg.data.items()]
    return dict(zip(cfg.data, pipeline.run_jobs(jobs)))


# --- analyze ----------------------------------------------------------------


def _returns_date_offset(basis: str) -> int:
    # A window ending at returns index j spans dates up to j+1; on raw prices
    # the same window ends at date index j.
    return 1 if basis == "returns" else 0


def cmd_analyze(cfg: RunConfig, stage: _Stage) -> None:
    """Parse the symbols on the worker pool, compute every figure in this
    process, then write each CSV as one job on the pool, largest first."""
    series_map = _load_all(cfg)
    symbols = list(series_map)
    a = cfg.analysis
    writes = []

    def queue_csv(relative, header, columns):
        columns = list(columns)
        writes.append(pipeline.Job(stage.write_csv, (relative, header, columns), sum(map(len, columns))))

    # Per-symbol figures over each asset's full history.
    hist = {"symbol": [], "left": [], "right": [], "count": []}
    stats_payload: dict = {"symbols": {}}
    for symbol in symbols:
        returns = analysis.daily_returns(series_map[symbol].column("close"))
        counts, edges = analysis.returns_histogram(returns, a.histogram_bins)
        hist["symbol"] += [symbol] * counts.size
        hist["left"].append(edges[:-1])
        hist["right"].append(edges[1:])
        hist["count"].append(counts)
        moments = analysis.distribution_stats(returns)
        stats_payload["symbols"][symbol] = {
            "n_returns": int(returns.size),
            "mean": moments.mean,
            "std": moments.std,
            "skewness": moments.skewness,
            "excess_kurtosis": moments.excess_kurtosis,
        }
    queue_csv(
        "analysis/returns_histogram.csv",
        ["symbol", "bin_left", "bin_right", "count"],
        [hist["symbol"]] + [np.concatenate(hist[k]) for k in ("left", "right", "count")],
    )

    # Cross-asset figures on the common calendar.
    dates, aligned = align_on_dates([series_map[s] for s in symbols])
    iso = [d.isoformat() for d in dates]

    rebased = [rebase_to_100(s) for s in aligned]
    queue_csv("analysis/rebased_prices.csv", ["date"] + symbols, [iso] + rebased)

    aligned_returns = [analysis.daily_returns(s.column("close")) for s in aligned]
    vols = [analysis.rolling_volatility(r, a.volatility_window) for r in aligned_returns]
    queue_csv(
        "analysis/rolling_volatility.csv", ["date"] + symbols, [iso[a.volatility_window:]] + vols
    )

    basis_series = (
        aligned_returns
        if a.correlation_basis == "returns"
        else [s.column("close") for s in aligned]
    )
    if len(symbols) >= 2:
        corr = analysis.correlation_matrix(basis_series)
    else:
        corr = np.ones((1, 1))
    queue_csv(
        "analysis/correlation_matrix.csv", ["symbol"] + symbols, [symbols] + list(corr.T)
    )

    pairs = [(i, j) for i in range(len(symbols)) for j in range(len(symbols)) if i < j]
    pair_names = [f"{symbols[i]}_{symbols[j]}" for i, j in pairs]
    columns = []
    if pairs:
        window = a.correlation_window
        offset = window - 1 + _returns_date_offset(a.correlation_basis)
        columns = [iso[offset:]] + [
            analysis.rolling_correlation(basis_series[i], basis_series[j], window)
            for i, j in pairs
        ]
    queue_csv("analysis/rolling_correlation.csv", ["date"] + pair_names, columns)

    caps = [s.column("marketcap") for s in aligned]
    shares = analysis.market_dominance(caps)
    queue_csv("analysis/market_dominance.csv", ["date"] + symbols, [iso] + list(shares))

    # Decomposition and benchmark backtest are single-asset figures; use the
    # first configured symbol, full history.
    lead = symbols[0]
    lead_series = series_map[lead]
    closes = lead_series.column("close")
    lead_iso = [d.isoformat() for d in lead_series.dates()]
    decomp = analysis.decompose_additive(closes, a.decomposition_period)
    queue_csv(
        "analysis/decomposition.csv",
        ["date", "observed", "trend", "seasonal", "residual"],
        [lead_iso, closes, decomp.trend, decomp.seasonal, decomp.residual],
    )
    stats_payload["decomposition"] = {"symbol": lead, "period": a.decomposition_period}

    result = analysis.sma_crossover_backtest(
        closes, a.sma_fast, a.sma_slow, a.initial_capital, a.cost_rate
    )
    curves = (stage, "analysis/backtest_curves.csv", lead_iso, result)
    writes.append(pipeline.Job(_write_backtest_curves, curves, 3 * len(lead_iso)))
    stats_payload["backtest"] = {
        "symbol": lead,
        "fast": a.sma_fast,
        "slow": a.sma_slow,
        "cost_rate": a.cost_rate,
        "final_strategy": result.final_strategy,
        "final_buy_and_hold": result.final_buy_and_hold,
        "n_trades": len(result.trades),
    }

    # Written once every figure is computed, so that a figure's error comes
    # before a write's.
    pipeline.run_jobs(writes)
    stage.write_json("analysis/distribution_stats.json", stats_payload)


def _write_backtest_curves(stage: _Stage, relative: str, iso_dates, result) -> None:
    stage.write_csv(
        relative,
        ["date", "strategy", "buy_and_hold"],
        [iso_dates, result.strategy, result.buy_and_hold],
    )


# --- train / evaluate / backtest --------------------------------------------


def cmd_train(cfg: RunConfig, stage: _Stage) -> None:
    prepared = []  # (symbol, data hash, train windows, test windows)
    failure = None
    for symbol, path in cfg.data.items():
        try:
            raw = _read_bytes(symbol, path)
            train_ds, test_ds = pipeline.prepare_datasets(
                parse_csv(raw),
                cfg.features,
                cfg.target,
                cfg.n_steps_in,
                cfg.n_steps_out,
                cfg.train_fraction,
            )
        except Exception as exc:  # raised once every symbol before it is trained and saved
            failure = exc
            break
        prepared.append((symbol, hashlib.sha256(raw).hexdigest(), train_ds, test_ds))

    def save(i, models, loss_history):
        symbol, data_hash, train_ds, test_ds = prepared[i]
        bundle = pipeline.TrainedBundle(
            *models, train_ds.scaler, cfg, loss_history=loss_history, data_hash=data_hash
        )
        model_dir = stage.path(f"model/{symbol}/manifest.json").parent
        pipeline.save_bundle(model_dir, bundle)
        if cfg.pipeline.dump_windows:
            windows_to_csv(train_ds, model_dir / "windows_train.csv")
            windows_to_csv(test_ds, model_dir / "windows_test.csv")

    train_sets = [train_ds for _, _, train_ds, _ in prepared]
    pipeline.train_symbols(train_sets, cfg.lstm, cfg.gbt, cfg.gbt.n_rounds, save)
    if failure is not None:
        raise failure


def cmd_evaluate(cfg: RunConfig, stage: _Stage, model_root: str | None) -> None:
    root = Path(model_root) if model_root else Path(cfg.output_dir) / "model"
    for symbol, path in cfg.data.items():
        bundle = pipeline.load_bundle(root / symbol)
        trained = bundle.config
        series = _read_series(symbol, path)
        _, test_ds = pipeline.prepare_datasets(
            series,
            trained.features,
            trained.target,
            trained.n_steps_in,
            trained.n_steps_out,
            trained.train_fraction,
            scaler=bundle.scaler,
        )
        rows = pipeline.evaluate([bundle.hybrid, bundle.lstm_baseline, bundle.gbt_baseline], test_ds)
        stage.write_csv(
            f"report/report_{symbol}.csv",
            [f.name for f in fields(pipeline.EvalRow)],
            [np.array(column) for column in zip(*map(astuple, rows))],
        )
        stage.write_json(f"report/report_{symbol}.json", {"rows": list(map(asdict, rows))})


def cmd_backtest(cfg: RunConfig, stage: _Stage) -> None:
    """One job per symbol on the worker pool."""
    jobs = [
        pipeline.Job(_backtest_symbol, (stage, cfg.analysis, symbol, path))
        for symbol, path in cfg.data.items()
    ]
    pipeline.run_jobs(jobs)


def _backtest_symbol(stage: _Stage, a: AnalysisSection, symbol: str, path: str) -> None:
    """Read one symbol's CSV, backtest it and write its curves and trades."""
    series = _read_series(symbol, path)
    closes = series.column("close")
    iso = [d.isoformat() for d in series.dates()]
    result = analysis.sma_crossover_backtest(
        closes, a.sma_fast, a.sma_slow, a.initial_capital, a.cost_rate
    )
    _write_backtest_curves(stage, f"backtest/{symbol}_curves.csv", iso, result)
    entries = [entry for entry, _ in result.trades]
    exits = [exit_ for _, exit_ in result.trades]
    stage.write_csv(
        f"backtest/{symbol}_trades.csv",
        ["entry_index", "entry_date", "exit_index", "exit_date"],
        [entries, [iso[t] for t in entries], exits, [iso[t] for t in exits]],
    )


# --- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincast",
        description="Exploratory analysis and hybrid LSTM + boosted-tree forecasting over OHLCV CSVs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {
        "analyze": "write exploratory figure data (returns, volatility, correlation, dominance, decomposition)",
        "train": "fit the hybrid forecaster and both baselines for every configured symbol",
        "evaluate": "score saved models on the held-out windows and write the comparison report",
        "backtest": "run the SMA-crossover strategy against buy-and-hold",
    }
    for name, help_text in subcommands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config value by its dotted name (repeatable)",
        )
        if name == "evaluate":
            p.add_argument(
                "--model",
                default=None,
                help="model directory to load (default: <output_dir>/model)",
            )
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as SIGINT raises KeyboardInterrupt."""


def _raise_terminated(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    import signal

    try:
        caller_handler = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # not the main thread, which alone can set handlers
        return _run(args)
    try:
        return _run(args)
    finally:
        signal.signal(signal.SIGTERM, caller_handler)


def _run(args) -> int:
    stage = None
    try:
        cfg = load_config(args.config, args.overrides, os.environ)
        stage = _Stage(Path(cfg.output_dir))
        if args.command == "analyze":
            cmd_analyze(cfg, stage)
        elif args.command == "train":
            cmd_train(cfg, stage)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, stage, args.model)
        else:
            cmd_backtest(cfg, stage)
        stage.commit()
    except Exception as exc:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (KeyboardInterrupt, _Terminated) as exc:
        name, code = ("SIGTERM", 143) if isinstance(exc, _Terminated) else ("SIGINT", 130)
        print(f"error: interrupted ({name})", file=sys.stderr)
        return code
    finally:
        if stage is not None:
            stage.abort()
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
