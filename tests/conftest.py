"""Shared fixtures and the acceptance-criteria summary hook."""
import base64
import csv
import io
import os
from datetime import date, timedelta

import numpy as np
import pytest

from coincast.market_data import PRICE_FIELDS, PriceSeries
from coincast.numkernel import one_blas_thread

CPUS = len(os.sched_getaffinity(0))

# Tests that need worker processes: with one usable CPU every job of every
# command runs in the main process.
POOL = pytest.mark.skipif(CPUS < 2, reason="jobs run in worker processes only with at least 2 usable CPUs")

# Tests that need train's jobs in worker processes: train also runs every job
# in the main process where BLAS's thread count cannot be set.
TRAIN_POOL = pytest.mark.skipif(
    CPUS < 2 or not one_blas_thread().pinned,
    reason="train's jobs run in worker processes only with at least 2 usable CPUs"
    " and a BLAS whose thread count can be set",
)

HEADER = ["SNo", "Name", "Symbol", "Date", "High", "Low", "Open", "Close", "Volume", "Marketcap"]


def random_walk_rows(T=240, seed=11, base=120.0, start=date(2017, 1, 1)):
    """Deterministic random-walk OHLCV rows, one dict per day."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0005, 0.02, size=T)
    close = base * np.exp(np.cumsum(steps))
    open_ = np.concatenate([[base], close[:-1]])
    spread = np.abs(rng.normal(0.0, 0.01, size=T))
    high = np.maximum(open_, close) * (1.0 + spread)
    low = np.minimum(open_, close) * (1.0 - spread)
    volume = rng.uniform(1e5, 5e6, size=T)
    cap = close * 1.7e6
    rows = []
    for i in range(T):
        rows.append(
            {
                "date": start + timedelta(days=i),
                "open": float(open_[i]),
                "high": float(high[i]),
                "low": float(low[i]),
                "close": float(close[i]),
                "volume": float(volume[i]),
                "marketcap": float(cap[i]),
            }
        )
    return rows


def stored(array, dtype: str) -> dict:
    """``array`` as a model file's array object of ``dtype``, built with the
    standard library's base64 rather than the program's writer."""
    values = np.asarray(array).astype(dtype)
    return {"data": base64.b64encode(values.tobytes()).decode("ascii"), "dtype": dtype, "shape": list(values.shape)}


def unstored(value: dict) -> np.ndarray:
    """The array of a model file's array object, read with the standard library's base64."""
    return np.frombuffer(base64.b64decode(value["data"], validate=True), value["dtype"]).reshape(value["shape"])


def rows_to_series(rows, symbol="BTC", name="Bitcoin") -> PriceSeries:
    values = np.array([[r[field] for field in PRICE_FIELDS] for r in rows], dtype=np.float64)
    days = np.array([r["date"] for r in rows], dtype="datetime64[D]")
    return PriceSeries(symbol=symbol, name=name, days=days, values=values)


def rows_to_csv_text(rows, symbol="BTC", name="Bitcoin") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for i, r in enumerate(rows, start=1):
        writer.writerow(
            [
                str(i),
                name,
                symbol,
                r["date"].isoformat() + " 23:59:59",
                repr(r["high"]),
                repr(r["low"]),
                repr(r["open"]),
                repr(r["close"]),
                repr(r["volume"]),
                repr(r["marketcap"]),
            ]
        )
    return buf.getvalue()


@pytest.fixture
def walk_series():
    return rows_to_series(random_walk_rows())


@pytest.fixture
def write_asset_csv(tmp_path):
    """Factory: write a synthetic asset CSV, return its path."""

    def _write(symbol="BTC", seed=11, T=240, base=120.0, name=None):
        text = rows_to_csv_text(
            random_walk_rows(T=T, seed=seed, base=base),
            symbol=symbol,
            name=name or symbol.title(),
        )
        path = tmp_path / f"{symbol.lower()}.csv"
        path.write_text(text, encoding="utf-8")
        return path

    return _write


# --- acceptance summary -------------------------------------------------
# One PASS/FAIL line per acceptance criterion at the end of the run.

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call":
        _acceptance_outcomes[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and not report.passed:
        _acceptance_outcomes[report.nodeid] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        label = name.replace("test_criterion_", "criterion ").replace("_", " ")
        terminalreporter.write_line(f"{label}: {_acceptance_outcomes[nodeid]}")
