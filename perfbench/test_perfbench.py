"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
from spans import Spans, Tracer, command_coverage, layer_metrics  # noqa: E402
from workloads import MAPE_METRICS, VERBS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans(rows, names):
    """rows: (name, start, end, parent index, run id)."""
    return Spans(
        names=names,
        name_id=[names.index(r[0]) for r in rows],
        start=[r[1] for r in rows],
        end=[r[2] for r in rows],
        parent=[r[3] for r in rows],
        run=[r[4] for r in rows],
    )


def test_self_time_subtracts_direct_children_only():
    names = ["cli.main", "pipeline.evaluate", "lstm.extract_latents", "numkernel.sigmoid"]
    spans = _spans(
        [
            ("cli.main", 0.0, 10.0, -1, 0),
            ("pipeline.evaluate", 1.0, 7.0, 0, 0),
            ("lstm.extract_latents", 2.0, 6.0, 1, 0),
            ("numkernel.sigmoid", 2.5, 3.0, 2, 0),
            ("numkernel.sigmoid", 4.0, 5.5, 2, 0),
            ("numkernel.sigmoid", 8.0, 9.0, 0, 0),
        ],
        names,
    )
    np.testing.assert_allclose(spans.self_time(), [10 - 6 - 1, 6 - 4, 4 - 0.5 - 1.5, 0.5, 1.5, 1.0])
    assert spans.self_time().sum() == pytest.approx(10.0)
    sig = spans.named("numkernel.sigmoid", [0])
    assert spans.outermost(sig).tolist() == [False, False, False, True, True, True]
    under_eval = spans.within(sig, spans.named("pipeline.evaluate", [0]))
    assert under_eval.tolist() == [False, False, False, True, True, False]


def test_layer_shares_and_coverage_on_synthetic_spans():
    names = ["cli.main", "cli.cmd_evaluate", "lstm.extract_latents", "numkernel.sigmoid",
             "cli.cmd_analyze", "market_data.parse_csv"]
    spans = _spans(
        [
            ("cli.main", 0.0, 4.0, -1, 7),
            ("cli.cmd_evaluate", 0.5, 3.5, 0, 7),
            ("lstm.extract_latents", 1.0, 3.0, 1, 7),
            ("numkernel.sigmoid", 1.5, 2.0, 2, 7),
            ("cli.main", 10.0, 12.0, -1, 8),
            ("cli.cmd_analyze", 10.0, 12.0, 4, 8),
            ("market_data.parse_csv", 10.0, 11.9, 5, 8),
        ],
        names,
    )
    # Run 8 is a read-side command: timed and covered, but not in the shares.
    out = layer_metrics(spans, 1, [7], {7: 2.5, 8: 2.0})
    assert out["cli.self_share"] == pytest.approx(0.5)
    assert out["lstm.self_share"] == pytest.approx(0.375)
    assert out["numkernel.self_share"] == pytest.approx(0.125)
    assert out["market_data.self_share"] == 0.0
    assert out["market_data.parse_csv.s"] == pytest.approx(1.9)
    assert out["numkernel.sigmoid.lstm_share"] == pytest.approx(0.25)
    # Only the 2 s below the dispatchers count, over the measured wall time;
    # the metric is the lowest kind of command (evaluate 0.8, analyze 0.95).
    assert out["trace.coverage"] == pytest.approx(0.8)


def test_low_coverage_fails_the_run(tmp_path):
    import run

    names = ["cli.main", "cli.cmd_analyze", "cli.cmd_backtest", "cli._Stage.write_csv", "market_data.parse_csv"]
    spans = _spans(
        [
            ("cli.main", 0.0, 10.0, -1, 1),
            ("cli.cmd_analyze", 0.0, 10.0, 0, 1),
            ("market_data.parse_csv", 0.0, 4.0, 1, 1),
            ("cli._Stage.write_csv", 4.0, 9.5, 1, 1),
            ("cli.main", 20.0, 30.0, -1, 2),
            ("cli.cmd_analyze", 20.0, 30.0, 4, 2),
            ("market_data.parse_csv", 20.0, 29.0, 5, 2),
            ("cli.main", 40.0, 50.0, -1, 3),
            ("cli.cmd_backtest", 40.0, 50.0, 7, 3),
            ("market_data.parse_csv", 40.0, 44.0, 8, 3),
        ],
        names,
    )
    walls = {1: 10.0, 2: 10.0, 3: 10.0}
    coverage = command_coverage(spans, walls)
    assert coverage == pytest.approx({"cli.cmd_analyze": 0.925, "cli.cmd_backtest": 0.4})
    bench = run.Bench(WORKLOADS["lstm-train"], 1, tmp_path, cli=None, gen=None)
    bench.verbs = ["train", "analyze", "analyze", "backtest"]
    run.check_trace(bench, spans, walls)
    assert bench.failed == 1
    bench.failed = 0
    run.check_trace(bench, spans, {1: 10.0, 2: 10.0})
    assert bench.failed == 0


def test_training_outside_train_fails_the_run(tmp_path):
    import run

    names = ["cli.main", "cli.cmd_train", "cli.cmd_evaluate", "gbtree.train_booster"]
    spans = _spans(
        [
            ("cli.main", 0.0, 10.0, -1, 0),
            ("cli.cmd_train", 0.0, 10.0, 0, 0),
            ("gbtree.train_booster", 0.0, 10.0, 1, 0),
            ("cli.main", 20.0, 30.0, -1, 1),
            ("cli.cmd_evaluate", 20.0, 30.0, 3, 1),
            ("gbtree.train_booster", 20.0, 30.0, 4, 1),
        ],
        names,
    )
    bench = run.Bench(WORKLOADS["boost-lags"], 1, tmp_path, cli=None, gen=None)
    bench.verbs = ["train", "evaluate"]
    run.check_trace(bench, spans, {0: 10.0})
    assert bench.failed == 0
    run.check_trace(bench, spans, {0: 10.0, 1: 10.0})
    assert bench.failed == 1


def test_generator_is_deterministic_and_valid():
    from coincast.market_data import parse_csv

    a = gen.ohlcv_csv(3, 1, 400)
    assert a == gen.ohlcv_csv(3, 1, 400)
    assert a != gen.ohlcv_csv(4, 1, 400)
    assert a != gen.ohlcv_csv(3, 2, 400)
    series = parse_csv(a)
    assert len(series) == 400
    assert len(set(series.dates())) == 400
    hi, lo = series.column("high"), series.column("low")
    op, cl = series.column("open"), series.column("close")
    assert np.all(lo <= np.minimum(op, cl)) and np.all(hi >= np.maximum(op, cl))


def test_tracer_replaces_names_bound_by_from_import():
    from coincast import analysis, cli, config, gbtree, lstm, market_data, metrics, numkernel, pipeline

    modules = (analysis, cli, config, gbtree, lstm, market_data, metrics, numkernel, pipeline)
    originals = {
        (pipeline, "train_booster"): pipeline.train_booster,
        (cli, "parse_csv"): cli.parse_csv,
        (cli, "align_on_dates"): cli.align_on_dates,
        (lstm, "sigmoid"): lstm.sigmoid,
        (gbtree.Booster, "predict"): gbtree.Booster.predict,
        (cli, "_read_series"): cli._read_series,
        (cli._Stage, "write_csv"): cli._Stage.write_csv,
    }
    tracer = Tracer(modules)
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        assert float(lstm.sigmoid(0.0)) == 0.5
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    spans = tracer.spans()
    assert [spans.names[i] for i in spans.name_id] == ["numkernel.sigmoid"]


def test_metric_names_and_spec_fields():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_workloads_match_spec_and_time_every_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == {"setup_s", "peak_rss_mb", *MAPE_METRICS, *(f"{v}_s" for v in VERBS)}
    for workload in WORKLOADS.values():
        assert {c.verb for c in workload.timed} == set(VERBS)
