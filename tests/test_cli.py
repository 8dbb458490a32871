import csv
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CPUS, POOL, TRAIN_POOL, random_walk_rows, rows_to_csv_text, stored, unstored
import coincast
from coincast import analysis, cli, numkernel, pipeline
from coincast import lstm as lstm_mod
from coincast.cli import _EXIT_CODES, _Stage, entry, main
from coincast.errors import (
    ConfigError,
    DomainError,
    SchemaError,
    ShapeError,
    SizingError,
    ToolkitError,
    TrainingError,
    ValidationError,
    WorkerError,
)
from coincast.market_data import align_on_dates, parse_csv

FAST_SECTIONS = {
    "n_steps_in": 8,
    "lstm": {"hidden_size": 4, "epochs": 2, "learning_rate": 0.01, "seed": 42},
    "gbt": {"n_rounds": 3, "max_depth": 2},
}


@pytest.fixture(scope="module", autouse=True)
def _scrub_seed_env():
    mp = pytest.MonkeyPatch()
    mp.delenv("TOOL_SEED", raising=False)
    yield
    mp.undo()


def write_workspace(root: Path, symbols=("BTC", "ETH"), T=240, extra=None) -> Path:
    """Lay out data CSVs plus a config.json under ``root``; returns config path."""
    data = {}
    for offset, symbol in enumerate(symbols):
        path = root / f"{symbol.lower()}.csv"
        path.write_text(
            rows_to_csv_text(
                random_walk_rows(T=T, seed=11 + offset, base=120.0 / (offset + 1)),
                symbol=symbol,
                name=symbol.title(),
            ),
            encoding="utf-8",
        )
        data[symbol] = str(path)
    tree = {"data": data, "output_dir": str(root / "out"), **FAST_SECTIONS}
    if extra:
        tree.update(extra)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    return cfg


def checkout_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(coincast.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    """``python -m module args`` on this checkout, bounded by a timeout."""
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=checkout_env(), timeout=60,
    )


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def json_edit(change):
    """A file edit that applies ``change`` to the file's parsed JSON in place."""
    def edit(raw: bytes) -> bytes:
        payload = json.loads(raw)
        change(payload)
        return json.dumps(payload).encode("utf-8")
    return edit


def array_edit(*path, change):
    """A JSON change that reads the array object at ``path`` of a model file,
    passes the array to ``change`` and stores the array it returns, in that
    array's own dtype."""
    def edit(payload):
        *parents, key = path
        box = payload
        for part in parents:
            box = box[part]
        array = change(unstored(box[key]).copy())
        box[key] = stored(array, array.dtype.str)
    return edit


def put(index, value, dtype=None):
    """An array change that sets entry ``index`` to ``value``, first converting
    the array to ``dtype`` when given."""
    def change(array):
        array = array.astype(dtype or array.dtype)
        array[index] = value
        return array
    return change


def tree_root(payload, tree) -> int:
    """The index of tree ``tree``'s root in a booster file's node arrays."""
    return int(unstored(payload["trees"]["n_nodes"])[:tree].sum()) if tree else 0


def cyclic_root(payload, tree=0):
    root = tree_root(payload, tree)
    for key in ("feature", "left", "right"):
        array_edit("trees", key, change=put(root, 0))(payload)


def fractional_root(payload, tree=0):
    root = tree_root(payload, tree)
    array_edit("trees", "feature", change=put(root, 0.9, np.float64))(payload)
    array_edit("trees", "left", change=put(root, 1.2, np.float64))(payload)


def last_tree_cut(payload):
    """Drop the last tree's weights, so the weight array is short of its nodes."""
    array_edit("trees", "weight", change=lambda w: w[: tree_root(payload, -1)])(payload)


def csv_cell(line_no, column, value: bytes):
    """A CSV edit that sets field ``column`` of line ``line_no`` (1-based) to ``value``."""
    def edit(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        cells = lines[line_no - 1].split(b",")
        cells[column] = value
        lines[line_no - 1] = b",".join(cells)
        return b"\n".join(lines)
    return edit


NAN, INF = float("nan"), float("inf")
CLOSE, DATE = 7, 3  # field indexes of the test CSVs' columns

# (command, file under the run directory, edit of its bytes); each must end
# in a typed error of under 200 characters, exit code 3 and no output.
BAD_INPUTS = [
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(cyclic_root), id="cyclic-tree"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(fractional_root), id="tree-fractional-ids"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(array_edit("trees", "left", change=put(0, 2**63, np.uint64))), id="tree-id-overflows"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p.update(n_features=1e999)), id="booster-n_features-overflows"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["params"].update(learning_rate=True)), id="booster-learning_rate-boolean"),
    pytest.param("evaluate", "model/BTC/hybrid_booster_00.json", json_edit(lambda p: p.update(base_score=10**400)), id="booster-base_score-past-float"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["params"].update(lam=10**400)), id="booster-lambda-past-float"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(array_edit("trees", "threshold", change=put(0, True, bool))), id="tree-threshold-boolean"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: cyclic_root(p, -1)), id="last-tree-cyclic"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: fractional_root(p, -1)), id="last-tree-fractional-ids"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: array_edit("trees", "threshold", change=put(tree_root(p, -1), True, bool))(p)), id="last-tree-threshold-boolean"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(last_tree_cut), id="last-tree-no-weight"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["trees"].__setitem__("weight", [[-1]])), id="last-tree-not-object"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["trees"]["left"].update(data="x" * 100_000)), id="last-tree-huge-string-id"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["params"].update({"k" * 100_000: 0.3})), id="booster-huge-params-key"),
    pytest.param("evaluate", "model/BTC/hybrid_booster_00.json", json_edit(array_edit("trees", "weight", change=put(0, "0.5", "<U3"))), id="tree-weight-string"),
    pytest.param("evaluate", "model/BTC/manifest.json", lambda raw: raw[:-9], id="manifest-truncated"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m.update(version=99)), id="manifest-version-99"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m.update(version=1)), id="manifest-version-1"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m.update(version=2)), id="manifest-version-2"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m["config"].update(n_steps_out=2)), id="manifest-more-steps-than-boosters"),
    # stops at the first missing booster file instead of naming 2**63 of them
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m["config"].update(n_steps_out=2**63)), id="manifest-horizon-2-63"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m["config"]["lstm"].update(epoch=3)), id="manifest-config-unknown-key"),
    pytest.param("evaluate", "model/BTC/manifest.json", json_edit(lambda m: m.update(config=[m["config"]])), id="manifest-config-not-object"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(lambda p: p.pop("b_o")), id="lstm-no-b_o"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(array_edit("W_f", change=np.ravel)), id="lstm-W_f-1d"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(array_edit("W_i", change=put((0, 0), NAN))), id="lstm-nan"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(array_edit("b_f", change=put(0, True, bool))), id="lstm-boolean"),
    pytest.param("evaluate", "model/BTC/head.json", lambda raw: raw[:-9], id="head-truncated"),
    pytest.param("evaluate", "model/BTC/head.json", json_edit(array_edit("W", change=np.ravel)), id="head-W-1d"),
    pytest.param("evaluate", "model/BTC/head.json", json_edit(array_edit("b", change=lambda b: np.append(b, b[:1]))), id="head-b-longer-than-W"),
    pytest.param("evaluate", "model/BTC/head.json", json_edit(array_edit("b", change=put(0, NAN))), id="head-nan"),
    pytest.param("evaluate", "model/BTC/head.json", json_edit(array_edit("b", change=put(0, INF))), id="head-inf-predictions"),
    pytest.param("evaluate", "model/BTC/head.json", json_edit(lambda p: p["W"].update(data="0.5")), id="head-string"),
    pytest.param("evaluate", "model/BTC/scaler.json", json_edit(array_edit("maxs", change=lambda m: m[:-1])), id="scaler-unequal-lengths"),
    pytest.param("evaluate", "model/BTC/scaler.json", json_edit(array_edit("mins", change=put(0, INF))), id="scaler-inf"),
    pytest.param("evaluate", "model/BTC/scaler.json", json_edit(array_edit("maxs", change=put(0, True, bool))), id="scaler-boolean"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: array_edit("trees", "right", change=put(tree_root(p, -1), 99))(p)), id="last-tree-child-out-of-range"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(array_edit("trees", "n_nodes", change=lambda n: n + 1)), id="tree-n_nodes-past-arrays"),
    pytest.param("evaluate", "model/BTC/gbt_booster_00.json", json_edit(lambda p: p["trees"]["feature"].update(shape=[10**30])), id="tree-shape-past-memory"),
    pytest.param("evaluate", "model/BTC/hybrid_booster_00.json", json_edit(lambda p: p.update(trees=[{"feature": [-1], "left": [-1], "right": [-1], "threshold": [0.0], "weight": [0.5]}])), id="booster-version-4-trees"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(array_edit("W_o", change=lambda w: w.astype(np.float64))), id="lstm-float64-weights"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(lambda p: p["W_C"].update(shape=[p["W_C"]["shape"][0] + 1, p["W_C"]["shape"][1]])), id="lstm-short-buffer"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(lambda p: p["b_C"].update(dtype="x" * 100_000)), id="lstm-huge-dtype"),
    pytest.param("evaluate", "model/BTC/lstm.json", json_edit(lambda p: p["b_i"].update(order="C")), id="lstm-array-extra-key"),
    pytest.param("evaluate", "model/BTC/scaler.json", json_edit(lambda p: p["mins"].update(data="!" + p["mins"]["data"][1:])), id="scaler-bad-base64"),
    pytest.param("evaluate", "model/BTC/scaler.json", json_edit(lambda p: p["maxs"].update(shape=[True])), id="scaler-boolean-shape"),
    pytest.param("evaluate", "model/BTC/head.json", lambda raw: b'{"W": ' + b"[" * 100_000, id="head-deeply-nested"),
    pytest.param("train", "btc.csv", lambda raw: raw.replace(b",Btc,", b",B\xfftc,", 1), id="csv-not-utf8"),
    pytest.param("backtest", "btc.csv", lambda raw: raw.replace(b",Btc,", b"," + b"N" * 200_000 + b",", 1), id="csv-field-past-csv-limit"),
    # a huge bad cell is echoed cut short
    pytest.param("backtest", "btc.csv", csv_cell(3, CLOSE, b"x" * 100_000), id="csv-huge-number-cell"),
    pytest.param("analyze", "eth.csv", csv_cell(3, CLOSE, b"9" * 100_000), id="csv-huge-non-finite-cell"),
    pytest.param("analyze", "btc.csv", csv_cell(3, DATE, b"2017-01-02" * 10_000), id="csv-huge-date-cell"),
    # asks numpy for about 29 TiB of LSTM weights, which fails at once
    pytest.param("train", "config.json", json_edit(lambda c: c["lstm"].update(hidden_size=2_000_000)), id="lstm-too-large-to-allocate"),
    pytest.param("train", "config.json", json_edit(lambda c: c["lstm"].update(hidden_size=4_000_000_000)), id="lstm-hidden-size-past-numpy-index"),
    pytest.param("analyze", "config.json", json_edit(lambda c: c.update(analysis={"histogram_bins": 10**30})), id="histogram-bins-past-numpy-index"),
    # from the largest float, the first close above the first one overflows the curves
    pytest.param("backtest", "config.json", json_edit(lambda c: c.update(analysis={"initial_capital": sys.float_info.max})), id="backtest-equity-overflows"),
    pytest.param("analyze", "config.json", json_edit(lambda c: c.update(analysis={"initial_capital": sys.float_info.max})), id="analyze-equity-overflows"),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_workspace(root)
    return root, cfg


@pytest.fixture(scope="module")
def analyzed(workspace):
    root, cfg = workspace
    assert main(["analyze", "--config", str(cfg)]) == 0
    return root / "out" / "analysis"


@pytest.fixture(scope="module")
def trained(workspace):
    root, cfg = workspace
    assert main(["train", "--config", str(cfg)]) == 0
    return root / "out" / "model"


@pytest.fixture(scope="module")
def evaluated(workspace, trained):
    root, cfg = workspace
    assert main(["evaluate", "--config", str(cfg)]) == 0
    return root / "out" / "report"


class TestAnalyze:
    def test_all_artifacts_written(self, analyzed):
        expected = [
            "returns_histogram.csv",
            "rebased_prices.csv",
            "rolling_volatility.csv",
            "correlation_matrix.csv",
            "rolling_correlation.csv",
            "market_dominance.csv",
            "decomposition.csv",
            "backtest_curves.csv",
            "distribution_stats.json",
        ]
        for name in expected:
            assert (analyzed / name).is_file(), name

    def test_rebased_prices_start_at_100(self, analyzed):
        rows = read_rows(analyzed / "rebased_prices.csv")
        assert rows[0] == ["date", "BTC", "ETH"]
        assert rows[1][1] == "100.0"
        assert rows[1][2] == "100.0"

    def test_dominance_shares_sum_to_one(self, analyzed):
        rows = read_rows(analyzed / "market_dominance.csv")
        for row in rows[1:]:
            assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-12

    def test_correlation_matrix_unit_diagonal(self, analyzed):
        rows = read_rows(analyzed / "correlation_matrix.csv")
        assert rows[0] == ["symbol", "BTC", "ETH"]
        assert rows[1][1] == "1.0"
        assert rows[2][2] == "1.0"
        # symmetric off-diagonal
        assert rows[1][2] == rows[2][1]

    def test_histogram_counts_cover_every_return(self, analyzed):
        rows = read_rows(analyzed / "returns_histogram.csv")
        per_symbol: dict = {}
        for row in rows[1:]:
            per_symbol[row[0]] = per_symbol.get(row[0], 0) + int(row[3])
        assert per_symbol == {"BTC": 239, "ETH": 239}

    def test_distribution_stats_payload(self, analyzed):
        stats = json.loads((analyzed / "distribution_stats.json").read_text())
        assert set(stats["symbols"]) == {"BTC", "ETH"}
        btc = stats["symbols"]["BTC"]
        assert btc["n_returns"] == 239
        for key in ("mean", "std", "skewness", "excess_kurtosis"):
            assert isinstance(btc[key], float)
        assert stats["backtest"]["symbol"] == "BTC"
        assert stats["backtest"]["final_strategy"] > 0

    def test_volatility_dates_skip_warmup(self, analyzed):
        rows = read_rows(analyzed / "rolling_volatility.csv")
        # 240 aligned dates, window 30 over returns -> 210 value rows
        assert len(rows) == 1 + 210

    def test_decomposition_reconstructs(self, analyzed):
        rows = read_rows(analyzed / "decomposition.csv")
        interior = [r for r in rows[1:] if r[2] != ""]
        assert interior, "expected interior rows with a defined trend"
        for row in interior[:20]:
            observed, trend, seasonal, residual = map(float, row[1:])
            assert abs(observed - (trend + seasonal + residual)) < 1e-9

    def test_unix_line_endings(self, analyzed):
        for name in ("rebased_prices.csv", "distribution_stats.json"):
            assert b"\r" not in (analyzed / name).read_bytes()

    def test_single_symbol_run(self, tmp_path):
        cfg = write_workspace(tmp_path, symbols=("SOL",))
        assert main(["analyze", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out" / "analysis"
        corr = read_rows(outdir / "correlation_matrix.csv")
        assert corr == [["symbol", "SOL"], ["SOL", "1.0"]]
        roll = read_rows(outdir / "rolling_correlation.csv")
        assert roll == [["date"]]

    @pytest.mark.parametrize("basis, first", [("returns", 20), ("prices", 19)])
    def test_rolling_correlation_on_either_basis(self, workspace, tmp_path, basis, first):
        # a window ending at returns index j spans aligned dates up to j + 1
        root, cfg = workspace
        out = tmp_path / "out"
        sets = [f"analysis.correlation_basis={basis}", "analysis.correlation_window=20", f'output_dir="{out}"']
        assert main(["analyze", "--config", str(cfg), *(f"--set={s}" for s in sets)]) == 0
        dates, aligned = align_on_dates([parse_csv((root / f"{s}.csv").read_bytes()) for s in ("btc", "eth")])
        closes = [s.column("close") for s in aligned]
        series = [analysis.daily_returns(c) for c in closes] if basis == "returns" else closes
        expected = analysis.rolling_correlation(*series, 20)
        rows = read_rows(out / "analysis" / "rolling_correlation.csv")
        assert rows[0] == ["date", "BTC_ETH"]
        assert [r[0] for r in rows[1:]] == [d.isoformat() for d in dates[first:]]
        assert [float(r[1]) for r in rows[1:]] == expected.tolist()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_workspace(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out" / "analysis"
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert main(["analyze", "--config", str(cfg)]) == 0
        after = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert before == after


class TestWriteCsv:
    def test_float_columns_round_trip_and_blank_non_finite(self, tmp_path):
        stage = _Stage(tmp_path / "out")
        stage.write_csv(
            "t.csv",
            ["name", "x", "n"],
            [["a", "b", "c", "d"], np.array([1.0 / 3.0, np.nan, -np.inf, -0.0]), np.arange(4)],
        )
        stage.commit()
        text = (tmp_path / "out" / "t.csv").read_text()
        assert text == "name,x,n\na,0.3333333333333333,0\nb,,1\nc,,2\nd,-0.0,3\n"

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        stage = _Stage(tmp_path / "out")
        with pytest.raises(ValueError):
            stage.write_csv("t.csv", ["a", "b"], [["x", "y"], np.array([1.0])])
        stage.abort()


class TestTrain:
    def test_model_directories(self, trained):
        for symbol in ("BTC", "ETH"):
            assert sorted(path.name for path in (trained / symbol).iterdir()) == [
                "gbt_booster_00.json",
                "head.json",
                "hybrid_booster_00.json",
                "loss_history.csv",
                "lstm.json",
                "manifest.json",
                "scaler.json",
            ]

    def test_manifest_records_data_hash_and_config(self, trained):
        manifest = json.loads((trained / "BTC" / "manifest.json").read_text())
        assert len(manifest["data_hash"]) == 64
        assert manifest["config"]["lstm"]["epochs"] == 2
        assert manifest["config"]["gbt"]["n_rounds"] == 3
        assert "lambda" in manifest["config"]["gbt"]

    def test_loss_history_rows_match_epochs(self, trained):
        rows = read_rows(trained / "BTC" / "loss_history.csv")
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 1 + 2

    def test_windows_not_dumped_by_default(self, trained):
        assert not (trained / "BTC" / "windows_train.csv").exists()

    def test_dump_windows_flag(self, tmp_path):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        code = main(
            ["train", "--config", str(cfg), "--set", "pipeline.dump_windows=true"]
        )
        assert code == 0
        for name in ("windows_train.csv", "windows_test.csv"):
            path = tmp_path / "out" / "model" / "BTC" / name
            assert path.is_file()
            header = path.read_text().splitlines()[0]
            assert header.startswith("sample,")

    def test_tool_seed_env_lands_in_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOL_SEED", "777")
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "model" / "BTC" / "manifest.json").read_text())
        assert manifest["config"]["lstm"]["seed"] == 777

    def test_set_flag_beats_tool_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOL_SEED", "777")
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["train", "--config", str(cfg), "--set", "lstm.seed=555"]) == 0
        manifest = json.loads((tmp_path / "out" / "model" / "BTC" / "manifest.json").read_text())
        assert manifest["config"]["lstm"]["seed"] == 555


class TestEvaluate:
    def test_report_files(self, evaluated):
        for symbol in ("BTC", "ETH"):
            assert (evaluated / f"report_{symbol}.csv").is_file()
            assert (evaluated / f"report_{symbol}.json").is_file()

    def test_report_rows(self, evaluated):
        rows = read_rows(evaluated / "report_BTC.csv")
        assert rows[0] == ["model", "test_mape", "test_minmax_rmse"]
        assert [r[0] for r in rows[1:]] == ["hybrid", "lstm-only", "gbt-lags"]
        for row in rows[1:]:
            assert float(row[1]) >= 0.0
            assert float(row[2]) >= 0.0

    def test_json_matches_csv(self, evaluated):
        rows = read_rows(evaluated / "report_ETH.csv")
        payload = json.loads((evaluated / "report_ETH.json").read_text())
        assert len(payload["rows"]) == 3
        for csv_row, json_row in zip(rows[1:], payload["rows"]):
            assert json_row["model"] == csv_row[0]
            assert json_row["test_mape"] == float(csv_row[1])

    def test_csv_lines_are_the_json_rows(self, evaluated):
        for symbol in ("BTC", "ETH"):
            lines = (evaluated / f"report_{symbol}.csv").read_text(encoding="utf-8").split("\n")
            payload = json.loads((evaluated / f"report_{symbol}.json").read_text(encoding="utf-8"))
            assert lines == ["model,test_mape,test_minmax_rmse"] + [
                f"{r['model']},{r['test_mape']!r},{r['test_minmax_rmse']!r}" for r in payload["rows"]
            ] + [""]

    def test_explicit_model_root(self, workspace, trained, tmp_path):
        root, cfg = workspace
        code = main(
            [
                "evaluate",
                "--config", str(cfg),
                "--model", str(trained),
                "--set", f'output_dir="{tmp_path / "elsewhere"}"',
            ]
        )
        assert code == 0
        assert (tmp_path / "elsewhere" / "report" / "report_BTC.csv").is_file()

    @pytest.mark.parametrize("command, relative, edit", BAD_INPUTS)
    def test_bad_input_exits_3(self, trained, tmp_path, command, relative, edit):
        # a subprocess with a timeout, since a cyclic tree used to make
        # evaluate route every row forever
        cfg = write_workspace(tmp_path)
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        target = tmp_path / relative
        target.write_bytes(edit(target.read_bytes()))
        extra = ("--model", str(model)) if command == "evaluate" else ()
        done = run_module("coincast", command, "--config", str(cfg), *extra)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error:")
        assert len(done.stderr) < 200, done.stderr[:400]
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_a_version_3_model_asks_to_be_retrained(self, trained, tmp_path, capsys):
        # version 3 stored float64 LSTM weights; version 4 and later load them as float32
        cfg = write_workspace(tmp_path)
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        manifest = model / "BTC" / "manifest.json"
        manifest.write_bytes(json_edit(lambda m: m.update(version=3))(manifest.read_bytes()))
        assert main(["evaluate", "--config", str(cfg), "--model", str(model)]) == 3
        assert "is model format version 3; only version 5 is read, so retrain the model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_version_4_model_asks_to_be_retrained(self, trained, tmp_path, capsys):
        # version 4 stored every array as nested lists of JSON numbers
        cfg = write_workspace(tmp_path)
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        for path in (model / "BTC").glob("*.json"):
            payload = json.loads(path.read_text())
            if path.name == "manifest.json":
                payload["version"] = 4
            elif "booster" in path.name:
                sizes = unstored(payload["trees"]["n_nodes"]).tolist()
                arrays = {key: unstored(value).tolist() for key, value in payload["trees"].items()}
                starts = np.cumsum([0, *sizes]).tolist()
                payload["trees"] = [
                    {key: arrays[key][a:b] for key in ("feature", "left", "right", "threshold", "weight")}
                    for a, b in zip(starts, starts[1:])
                ]
            else:
                payload = {key: unstored(value).tolist() for key, value in payload.items()}
            path.write_text(json.dumps(payload))
        assert main(["evaluate", "--config", str(cfg), "--model", str(model)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is model format version 4; only version 5 is read, so retrain the model" in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_without_model_fails_cleanly(self, tmp_path):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["evaluate", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()


class TestBacktest:
    def test_curves_and_trades(self, workspace):
        root, cfg = workspace
        assert main(["backtest", "--config", str(cfg)]) == 0
        for symbol in ("BTC", "ETH"):
            curves = read_rows(root / "out" / "backtest" / f"{symbol}_curves.csv")
            assert curves[0] == ["date", "strategy", "buy_and_hold"]
            assert len(curves) == 1 + 240
            assert float(curves[1][1]) == 10000.0
            assert float(curves[1][2]) == 10000.0
            trades = read_rows(root / "out" / "backtest" / f"{symbol}_trades.csv")
            assert trades[0] == ["entry_index", "entry_date", "exit_index", "exit_date"]
            for row in trades[1:]:
                assert int(row[0]) < int(row[2])


class TestFailureModes:
    @pytest.mark.parametrize("where", ["config-file", "set-value"])
    def test_deeply_nested_json_is_a_config_error(self, tmp_path, where):
        # deeper than Python's recursion limit: json raised RecursionError
        deep = "[" * 100_000
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        extra = ()
        if where == "config-file":
            cfg.write_text('{"data": ' + deep, encoding="utf-8")
        else:
            extra = ("--set", "analysis.histogram_bins=" + deep)
        done = run_module("coincast", "analyze", "--config", str(cfg), *extra)
        assert done.returncode == 2, done.stderr[-400:]
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
        assert len(done.stderr) < 200 + len(str(cfg)), done.stderr[:400]
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data": {"BTC": "x.csv"}, "epochs": 5}))
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_set_typo(self, tmp_path):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["train", "--config", str(cfg), "--set", "lstm.epoch=3"]) == 2

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("lstm.optimizer=adam", "unknown config key 'lstm.optimizer'"),
            ("lstm.batch_size=8", "unknown config key 'lstm.batch_size'"),
            ("pipeline.mape_epsilon=1", "unknown config key 'pipeline.mape_epsilon'"),
            ("lstm.clip_norm=null", "lstm.clip_norm must be a number, got None"),
        ],
    )
    def test_one_training_and_scoring_path(self, tmp_path, capsys, assignment, message):
        # training is full-batch Adam with clipping and MAPE is strict, with no key to change that
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["train", "--config", str(cfg), "--set", assignment]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        (tmp_path / "a_directory").mkdir()
        for command in ("train", "analyze", "backtest"):
            for data in ("gone.csv", "a_directory"):
                cfg = tmp_path / "config.json"
                cfg.write_text(
                    json.dumps(
                        {
                            "data": {"BTC": str(tmp_path / data)},
                            "output_dir": str(tmp_path / "out"),
                        }
                    )
                )
                assert main([command, "--config", str(cfg)]) == 3, (command, data)
                assert capsys.readouterr().err.startswith("error: cannot read data file for BTC:")
                assert not (tmp_path / "out").exists()
                assert not list(tmp_path.glob(".stage-*"))

    def test_output_dir_under_a_regular_file(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60, extra={"output_dir": str(tmp_path / "afile" / "out")})
        (tmp_path / "afile").write_text("not a directory\n")
        for command in ("analyze", "train", "evaluate", "backtest"):
            assert main([command, "--config", str(cfg)]) == 3, command
            assert capsys.readouterr().err.startswith("error: ")
            assert not list(tmp_path.rglob(".stage-*"))
        assert (tmp_path / "afile").read_text() == "not a directory\n"

    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        assert main(["train", "--config", str(cfg), "--set", "gbt.lambda=NaN"]) == 2
        assert "gbt.lambda must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))

    @pytest.mark.parametrize("field", ["lstm.learning_rate", "analysis.initial_capital"])
    def test_integer_past_the_largest_float_is_a_config_error(self, tmp_path, capsys, field):
        # refused with the config: the data file is gone and no command reads it
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        (tmp_path / "btc.csv").unlink()
        for command in ("analyze", "train", "evaluate", "backtest"):
            assert main([command, "--config", str(cfg), "--set", f"{field}={10**400}"]) == 2, command
            err = capsys.readouterr().err
            assert err == f"error: {field} must be finite, got {str(10**400)[:40]}... (401 characters)\n"
            assert len(err) < 200
        assert not (tmp_path / "out").exists()

    def test_integer_past_pythons_digit_limit_is_a_config_error(self, tmp_path, capsys):
        huge = "1" + "0" * 5000
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        # an override that is no JSON Python converts is the literal string
        assert main(["train", "--config", str(cfg), "--set", f"gbt.lambda={huge}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: gbt.lambda must be a number, got '{huge[:39]}... (5003 characters)\n"
        assert len(err) < 200
        cfg.write_text(cfg.read_text().replace('"n_steps_in": 8', f'"train_fraction": {huge}, "n_steps_in": 8'))
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not valid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_corrupt_data_leaves_no_partial_artifacts(self, tmp_path, capsys):
        # first symbol is fine, second is corrupt: nothing may be committed
        cfg = write_workspace(tmp_path, symbols=("BTC", "ETH"), T=60)
        eth = tmp_path / "eth.csv"
        lines = eth.read_text().splitlines()
        parts = lines[5].split(",")
        parts[7] = "-1.0"  # negative close
        lines[5] = ",".join(parts)
        eth.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg)]) == 3
        assert "line" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))

    def test_training_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        code = main(
            [
                "train",
                "--config", str(cfg),
                "--set", "lstm.learning_rate=1e200",
                "--set", "lstm.epochs=6",
            ]
        )
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("symbol", ["../../evil2", "..", ".", "a\\b", "a/b"])
    def test_path_like_symbol_is_a_config_error(self, tmp_path, symbol):
        csv_path = tmp_path / "a.csv"
        csv_path.write_text(rows_to_csv_text(random_walk_rows(T=60, seed=11), symbol="A", name="A"))
        cfg = tmp_path / "config.json"
        tree = {
            "data": {symbol: str(csv_path), "B": str(tmp_path / "missing.csv")},
            "output_dir": str(tmp_path / "w" / "o3"),
            **FAST_SECTIONS,
        }
        cfg.write_text(json.dumps(tree))
        assert main(["train", "--config", str(cfg)]) == 2
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "config.json"]

    def test_every_error_kind_has_an_exit_code(self):
        codes = {
            kind: next(code for kinds, code in _EXIT_CODES if issubclass(kind, kinds))
            for kind in ToolkitError.__subclasses__()
        }
        assert codes == {
            ConfigError: 2,
            SchemaError: 3,
            ValidationError: 3,
            SizingError: 3,
            DomainError: 3,
            ShapeError: 3,
            TrainingError: 4,
            WorkerError: 3,
        }

    def test_series_too_short_for_windows(self, tmp_path):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=10, extra={"n_steps_in": 30})
        assert main(["train", "--config", str(cfg)]) == 3


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@POOL
class TestBoosterWorkers:
    def train(self, tmp_path, capsys):
        tmp_path.mkdir(exist_ok=True)
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        code = main(["train", "--config", str(cfg), "--set", "n_steps_out=3"])
        err = capsys.readouterr().err
        assert_no_child_left()
        assert "Traceback" not in err
        assert not list(tmp_path.glob(".stage-*"))
        return code, err

    def test_no_worker_outlives_train(self, tmp_path, capsys):
        assert self.train(tmp_path, capsys) == (0, "")

    @pytest.mark.parametrize("kind", [DomainError, MemoryError])
    def test_worker_error_exits_as_in_process(self, tmp_path, capsys, monkeypatch, kind):
        # the lag boosters are fit first and fail at once; the hybrid's fail
        # later, but come first in job order, so theirs is the error reported
        def failing(F, y, params, n_rounds):
            if F.shape[1] > 4:  # lags, not the 4 latents
                raise DomainError("lag fit failed")
            time.sleep(0.2)
            raise kind("hybrid fit failed")

        monkeypatch.setattr(pipeline, "train_booster", failing)
        pooled = self.train(tmp_path / "pool", capsys)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        in_process = self.train(tmp_path / "one", capsys)
        assert pooled == in_process == (3, "error: hybrid fit failed\n")

    @TRAIN_POOL
    def test_dead_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        parent, fit = os.getpid(), pipeline.train_booster

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return fit(*args)

        monkeypatch.setattr(pipeline, "train_booster", dying)
        code, err = self.train(tmp_path, capsys)
        assert code == 3
        assert err == f"error: {pipeline.WORKER_DIED}\n"
        assert not (tmp_path / "out").exists()


def tree_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def schedule(name, monkeypatch):
    """Run a command in this process as with one usable CPU, on the pool, or
    on the pool with a BLAS whose thread count cannot be set."""
    if name == "in-process":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif name == "pool-unpinned":
        monkeypatch.setattr(numkernel, "_blas_thread_calls", lambda: None)


def record_pids(monkeypatch, owner, name: str, log: Path):
    """Append the pid of every process that calls ``owner.name`` to ``log``."""
    fn = getattr(owner, name)

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args)

    monkeypatch.setattr(owner, name, logged)


def run_schedules(tmp_path, monkeypatch, argv, names, traced):
    """Run ``main(argv)`` on each named :func:`schedule`. Returns each
    schedule's output hashes, and the pids that called each traced
    ``(owner, name)`` by name."""
    hashes, pids = {}, {}
    for name in names:
        logs = {fn: tmp_path / f"{name}.{fn}.pids" for _, fn in traced}
        with monkeypatch.context() as patch:
            schedule(name, patch)
            for owner, fn in traced:
                record_pids(patch, owner, fn, logs[fn])
            assert main(argv) == 0
        assert_no_child_left()
        hashes[name] = tree_hashes(tmp_path / "out")
        pids[name] = {fn: set(map(int, log.read_text().split())) for fn, log in logs.items()}
        shutil.rmtree(tmp_path / "out")
    return hashes, pids


@POOL
class TestTrainSchedule:
    @pytest.mark.parametrize(
        "symbols, steps_out",
        [(("BTC", "ETH", "SOL"), 1), (("BTC", "ETH", "SOL"), 3), (("BTC",), 3)],
        ids=["1", "3", "one-symbol-3"],
    )
    def test_every_schedule_writes_the_same_bytes(self, tmp_path, monkeypatch, symbols, steps_out):
        extra = {"n_steps_out": steps_out, "pipeline": {"dump_windows": True}}
        cfg = write_workspace(tmp_path, symbols=symbols, T=80, extra=extra)
        names = ("in-process", "pool", "pool-unpinned")
        traced = [(lstm_mod, "train"), (pipeline, "train_booster")]
        hashes, pids = run_schedules(tmp_path, monkeypatch, ["train", "--config", str(cfg)], names, traced)
        assert len(hashes["pool"]) == len(symbols) * (7 + 2 * steps_out)
        assert hashes["in-process"] == hashes["pool"] == hashes["pool-unpinned"]
        parent = {os.getpid()}
        assert pids["in-process"] == pids["pool-unpinned"] == {"train": parent, "train_booster": parent}
        # jobs run in workers only where BLAS can be held at one thread; one
        # symbol's LSTM too
        if numkernel.one_blas_thread().pinned:
            assert parent.isdisjoint(pids["pool"]["train"] | pids["pool"]["train_booster"])
            assert len(pids["pool"]["train"]) == min(len(symbols), CPUS)

    @pytest.mark.parametrize("name", ["in-process", "pool", "pool-unpinned"])
    def test_first_symbols_error_wins_over_a_later_bad_csv(self, tmp_path, capsys, monkeypatch, name):
        schedule(name, monkeypatch)
        cfg = write_workspace(tmp_path, T=60)
        (tmp_path / "eth.csv").write_text("not,a,price,file\n")
        args = ["--set", "lstm.learning_rate=1e200", "--set", "lstm.epochs=6"]
        assert main(["train", "--config", str(cfg), *args]) == 4
        assert capsys.readouterr().err == "error: training diverged at epoch 1: loss is not finite\n"
        assert_no_child_left()
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))

    @pytest.mark.parametrize("name", ["in-process", "pool", "pool-unpinned"])
    def test_first_symbols_booster_error_ends_the_second_lstm(self, tmp_path, capsys, monkeypatch, name):
        # ETH's LSTM would take a minute; BTC's boosters fail at once, and no
        # other symbol comes first, so the command ends without waiting for ETH
        schedule(name, monkeypatch)
        cfg = write_workspace(tmp_path, T=60)
        (tmp_path / "eth.csv").write_text(rows_to_csv_text(random_walk_rows(T=90, seed=12), symbol="ETH"))
        train = lstm_mod.train

        def slow(dataset, config):
            if dataset.n_samples > 50:
                time.sleep(60)
            return train(dataset, config)

        def failing(*args):
            raise DomainError("booster fit failed")

        monkeypatch.setattr(lstm_mod, "train", slow)
        monkeypatch.setattr(pipeline, "train_booster", failing)
        started = time.monotonic()
        assert main(["train", "--config", str(cfg)]) == 3
        assert time.monotonic() - started < 20
        assert capsys.readouterr().err == "error: booster fit failed\n"
        assert_no_child_left()
        assert not list(tmp_path.glob(".stage-*"))

    @TRAIN_POOL
    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<pid>/children to find the workers",
    )
    @pytest.mark.parametrize(
        "signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"]
    )
    def test_interrupted_train_leaves_no_process(self, tmp_path, signum, code):
        # a fit that would run for days, in worker processes; SIGINT goes to
        # the whole process group, as a terminal's Ctrl-C sends it
        extra = {"lstm": {"hidden_size": 4, "epochs": 10**9}}
        cfg = write_workspace(tmp_path, T=60, extra=extra)
        command = [sys.executable, "-m", "coincast", "train", "--config", str(cfg)]
        proc = subprocess.Popen(
            command,
            env=checkout_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 20
            while not children.read_text().split() and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(pid) for pid in children.read_text().split()]
            assert workers, "train started no worker"
            time.sleep(0.3)  # the workers are fitting
            if signum == signal.SIGINT:
                os.killpg(proc.pid, signum)
            else:
                proc.send_signal(signum)
            out, err = proc.communicate(timeout=5)
        finally:
            # whatever the outcome, nothing of the command outlives the test
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == code
        assert (out, err) == ("", f"error: interrupted ({signal.Signals(signum).name})\n")
        # reaped by the command before it exited
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))


@POOL
class TestReadSchedule:
    """``backtest`` reads and writes on the worker pool, ``analyze`` writes there."""

    @pytest.mark.parametrize("command, files", [("analyze", 9), ("backtest", 6)])
    def test_every_schedule_writes_the_same_bytes(self, tmp_path, monkeypatch, command, files):
        cfg = write_workspace(tmp_path, symbols=("BTC", "ETH", "SOL"), T=120)
        # every CSV read and every CSV written
        traced = [(cli, "parse_csv"), (cli, "write_csv")]
        argv = [command, "--config", str(cfg)]
        hashes, pids = run_schedules(tmp_path, monkeypatch, argv, ("in-process", "pool"), traced)
        assert len(hashes["pool"]) == files
        assert hashes["in-process"] == hashes["pool"]
        parent = {os.getpid()}
        assert pids["in-process"] == {"parse_csv": parent, "write_csv": parent}
        pooled = {"write_csv"} if command == "analyze" else {"parse_csv", "write_csv"}
        for fn, called in pids["pool"].items():
            if fn in pooled:
                assert parent.isdisjoint(called) and len(called) >= 2
            else:
                assert called == parent

    @pytest.mark.parametrize(
        "command, functions", [("analyze", ["parse_csv"]), ("backtest", ["parse_csv", "write_csv"])]
    )
    def test_one_symbol_runs_in_process(self, tmp_path, monkeypatch, command, functions):
        # a single job needs no worker: backtest's one symbol; analyze parses
        # in this process whatever the symbol count
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=120)
        log = tmp_path / "pids"
        for name in functions:
            record_pids(monkeypatch, cli, name, log)
        assert main([command, "--config", str(cfg)]) == 0
        assert set(map(int, log.read_text().split())) == {os.getpid()}

    @pytest.mark.parametrize("command", ["analyze", "backtest"])
    @pytest.mark.parametrize("name", ["in-process", "pool"])
    def test_first_symbols_bad_csv_wins(self, tmp_path, capsys, monkeypatch, command, name):
        # BTC's fault is on its last line and its parse is slowed, so where
        # parses run on the pool (backtest) SOL's fault on its first line is
        # found first
        schedule(name, monkeypatch)
        cfg = write_workspace(tmp_path, symbols=("BTC", "ETH", "SOL"), T=120)
        btc, sol = tmp_path / "btc.csv", tmp_path / "sol.csv"
        btc.write_bytes(csv_cell(121, CLOSE, b"-1.0")(btc.read_bytes()))
        sol.write_bytes(csv_cell(2, DATE, b"yesterday")(sol.read_bytes()))
        parse = cli.parse_csv

        def slow_btc(raw):
            if b",BTC," in raw:
                time.sleep(0.3)
            return parse(raw)

        monkeypatch.setattr(cli, "parse_csv", slow_btc)
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: line 121: negative close price -1.0\n"
        assert_no_child_left()
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))

    def test_dead_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        parent, backtest = os.getpid(), analysis.sma_crossover_backtest

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return backtest(*args)

        monkeypatch.setattr(analysis, "sma_crossover_backtest", dying)
        cfg = write_workspace(tmp_path, T=60)
        assert main(["backtest", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {pipeline.WORKER_DIED}\n"
        assert_no_child_left()
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob(".stage-*"))


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("coincast ")

    def test_python_dash_m_runs_the_cli(self):
        done = run_module("coincast", "--version")
        assert done.returncode == 0
        assert done.stdout.strip() == f"coincast {coincast.__version__}"

    def test_python_dash_m_on_the_cli_module(self):
        done = run_module("coincast.cli", "--version")
        assert done.returncode == 0
        assert done.stdout.strip() == f"coincast {coincast.__version__}"

    def test_importing_the_cli_loads_neither_multiprocessing_nor_base64(self):
        # every command pays for what importing the cli loads: the worker pool
        # imports multiprocessing when it starts, and model files use binascii
        done = subprocess.run(
            [sys.executable, "-c", "import sys, coincast.cli; print(sorted({'multiprocessing', 'base64'} & set(sys.modules)))"],
            capture_output=True, text=True, env=checkout_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_entry_raises_system_exit(self, tmp_path, monkeypatch):
        cfg = write_workspace(tmp_path, symbols=("BTC",), T=60)
        monkeypatch.setattr(
            "sys.argv", ["coincast", "backtest", "--config", str(cfg)]
        )
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert excinfo.value.code == 0
        assert (tmp_path / "out" / "backtest" / "BTC_curves.csv").is_file()
