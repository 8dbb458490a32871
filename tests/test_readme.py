"""The README's code examples run as written."""
import contextlib
import io
import json
import re
from pathlib import Path

from conftest import random_walk_rows, rows_to_csv_text
from coincast.config import RunConfig
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


def test_exit_codes_name_the_model_version_that_is_read():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"a manifest whose `version` is not (\d+);", text).group(1) == str(MODEL_VERSION)


def test_exit_codes_quote_the_dead_worker_message():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"died\s+\(killed, for example\):\s+`error: ([^`]*)`", text).group(1) == WORKER_DIED
