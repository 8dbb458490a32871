"""The README's code examples run as written."""
import contextlib
import io
import json
import re
import textwrap
from pathlib import Path

from conftest import random_walk_rows, rows_to_csv_text, rows_to_series
from coincast import pipeline
from coincast.config import RunConfig
from coincast.lstm import TrainConfig
from coincast.pipeline import MODEL_VERSION, WORKER_DIED

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ```language block after the ``## heading`` line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_running_config_loads_and_shows_the_defaults():
    cfg = RunConfig.from_dict(json.loads(code_block("Running", "json")))
    assert cfg == RunConfig.from_dict({"data": cfg.data})


def test_library_use_example_runs(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "btc.csv").write_text(
        rows_to_csv_text(random_walk_rows(T=60, seed=3), symbol="BTC", name="Bitcoin"),
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code_block("Library use", "python"), str(README), "exec"), {})
    lines = out.getvalue().split()
    assert lines[0] == "model,test_mape,test_minmax_rmse"
    assert [line.split(",")[0] for line in lines[1:]] == ["hybrid", "lstm-only", "gbt-lags"]


def test_the_array_snippet_reads_the_trained_weights(tmp_path, monkeypatch):
    cfg = RunConfig(data={"BTC": "btc.csv"}, n_steps_in=8, lstm=TrainConfig(hidden_size=4, epochs=2))
    train_ds, _ = pipeline.prepare_datasets(
        rows_to_series(random_walk_rows(T=80, seed=5)), cfg.features, cfg.target, 8, 1, 0.8
    )
    [(models, _)] = pipeline.train_symbols([train_ds], cfg.lstm, cfg.gbt, 2)
    model = tmp_path / "out" / "model" / "BTC"
    model.mkdir(parents=True)
    pipeline.save_bundle(model, pipeline.TrainedBundle(*models, train_ds.scaler, cfg))
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(textwrap.dedent(code_block("Running", "python")), str(README), "exec"), names)
    trained = models[0].lstm.W_f
    assert (names["W_f"].dtype, names["W_f"].shape) == (trained.dtype, trained.shape)
    assert names["W_f"].tobytes() == trained.tobytes()


def test_exit_codes_name_the_model_version_that_is_read():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"a manifest whose `version` is not (\d+);", text).group(1) == str(MODEL_VERSION)


def test_exit_codes_quote_the_dead_worker_message():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"died\s+\(killed, for example\):\s+`error: ([^`]*)`", text).group(1) == WORKER_DIED
