#!/usr/bin/env python3
"""Run one coincast benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lstm-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports ``coincast``
from ``src/`` and refuses to run without it. It generates the workload's
inputs from ``--seed`` several times (the set-up), then repeats rounds of
the workload's CLI commands (``coincast.cli.main``) until ``--seconds`` have
been measured, checking every command's output. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Work files go under ``.perfbench_run/``.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread (never more than nproc): at the library default, train
# times varied 12-14% between fresh processes; pinned, 2-6%.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The program receives only the generated inputs and config.
os.environ.pop("TOOL_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import MAPE_METRICS, REPORT_MODELS, SIDE_VERBS, VERBS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"

SETUP_REPEATS = 3
MIN_COVERAGE = 0.9
ANALYSIS_FILES = (
    "backtest_curves.csv",
    "correlation_matrix.csv",
    "decomposition.csv",
    "distribution_stats.json",
    "market_dominance.csv",
    "rebased_prices.csv",
    "returns_histogram.csv",
    "rolling_correlation.csv",
    "rolling_volatility.csv",
)
TRAINING_SPANS = ("lstm.train", "gbtree.train_booster")


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _finite_nonneg(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


class Bench:
    """One workload at one seed: inputs, CLI invocations and output checks."""

    def __init__(self, workload, seed, work, cli, gen):
        self.workload, self.seed, self.work = workload, seed, work
        self.cli, self.gen = cli, gen
        self.out = work / "out"
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.walls = []  # wall seconds of every CLI command, indexed by run id
        self.verbs = []  # its verb, by the same index
        self._digests = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)

    def _same(self, kind: str, digest: str) -> None:
        first = self._digests.setdefault(kind, digest)
        if digest != first:
            self.fail(f"{kind} differ between runs of seed {self.seed}")

    def symbols(self, key: str):
        return [self.gen.symbol_name(i) for i in range(self.workload.inputs[key].symbols)]

    def write_inputs(self) -> None:
        h = hashlib.sha256()
        for key, spec in sorted(self.workload.inputs.items()):
            folder = self.work / "inputs" / key
            folder.mkdir(parents=True)
            data = {}
            for i, symbol in enumerate(self.symbols(key)):
                blob = self.gen.ohlcv_csv(self.seed, i, spec.days)
                h.update(blob)
                path = folder / f"{symbol}.csv"
                path.write_bytes(blob)
                data[symbol] = str(path)
            config = {"data": data, "output_dir": str(self.out), **spec.settings}
            (self.work / f"{key}.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        self._same("generated inputs", h.hexdigest())

    def invoke(self, command) -> float:
        argv = [command.verb, "--config", str(self.work / f"{command.inputs}.json")]
        if self.tracer is not None:
            self.tracer.run_id = len(self.walls)
        self.attempted += 1
        started = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = "an exception"
        wall = time.perf_counter() - started
        self.walls.append(wall)
        self.verbs.append(command.verb)
        problem = f"exit code {code}" if code != 0 else self.check(command, self.out)
        if problem:
            self.fail(f"{command.verb} on {command.inputs}: {problem}")
        return wall

    def check(self, command, out: Path):
        symbols = self.symbols(command.inputs)
        if command.verb == "train":
            missing = [s for s in symbols if not (out / "model" / s / "manifest.json").is_file()]
            return f"no model manifest for {missing}" if missing else None
        if command.verb == "analyze":
            missing = [f for f in ANALYSIS_FILES if not (out / "analysis" / f).is_file()]
            return f"missing analysis/{missing}" if missing else None
        if command.verb == "backtest":
            missing = [
                f"{s}_{kind}.csv"
                for s in symbols
                for kind in ("curves", "trades")
                if not (out / "backtest" / f"{s}_{kind}.csv").is_file()
            ]
            return f"missing backtest/{missing}" if missing else None
        for symbol in symbols:
            csv_path = out / "report" / f"report_{symbol}.csv"
            json_path = out / "report" / f"report_{symbol}.json"
            if not (csv_path.is_file() and json_path.is_file()):
                return f"no report for {symbol}"
            rows = json.loads(json_path.read_text())["rows"]
            if tuple(r.get("model") for r in rows) != REPORT_MODELS:
                return f"report rows for {symbol} are not {REPORT_MODELS}"
            for row in rows:
                if not (_finite_nonneg(row.get("test_mape")) and _finite_nonneg(row.get("test_minmax_rmse"))):
                    return f"non-finite or negative metric in {symbol} report: {row}"
        return None

    def setup(self) -> float:
        """Generate the inputs and configs; returns the seconds it took."""
        started = time.perf_counter()
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        self.write_inputs()
        return time.perf_counter() - started

    def round(self):
        """One pass of the timed commands; returns {verb: [wall seconds]}."""
        shutil.rmtree(self.out, ignore_errors=True)
        times = {}
        for command in self.workload.timed:
            times.setdefault(command.verb, []).append(self.invoke(command))
        self._same("artifact trees", tree_digest(self.out))
        return times

    def mape(self) -> dict:
        evaluate = next(c for c in self.workload.timed if c.verb == "evaluate")
        per_model = {m: [] for m in REPORT_MODELS}
        for symbol in self.symbols(evaluate.inputs):
            payload = json.loads((self.out / "report" / f"report_{symbol}.json").read_text())
            for row in payload["rows"]:
                per_model[row["model"]].append(row["test_mape"])
        return {
            metric: statistics.fmean(per_model[model])
            for metric, model in zip(MAPE_METRICS, REPORT_MODELS)
        }


def measure(seconds: float, step):
    """Call ``step`` until starting another call would overrun ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t
        if time.perf_counter() - started + last > seconds:
            return results


def end_to_end(bench, seconds, imports_done):
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    rounds = measure(seconds, bench.round)
    samples = {verb: [] for verb in VERBS}
    for times in rounds:
        for verb, walls in times.items():
            samples[verb].extend(walls)
    metrics = {
        "setup_s": (imports_done - T0) + statistics.median(setups),
        **{f"{verb}_s": statistics.median(samples[verb]) for verb in VERBS},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **bench.mape(),
    }
    samples["setup"] = setups
    print(f"rounds: {len(rounds)}; setups: {len(setups)}")
    return metrics, samples


def traced(bench, seconds, modules):
    from spans import Tracer, layer_metrics

    tracer = bench.tracer = Tracer(modules)
    for _ in range(SETUP_REPEATS):
        bench.setup()

    walls = {False: [], True: []}
    timed_runs = []
    written = []

    def pair():
        for on in (False, True):
            first = len(bench.walls)
            if on:
                tracer.install()
            try:
                times = bench.round()
            finally:
                tracer.uninstall()
            walls[on].append(sum(sum(w) for w in times.values()))
            if on:
                timed_runs.extend(range(first, len(bench.walls)))
                written.append(sum(p.stat().st_size for p in bench.out.rglob("*") if p.is_file()))

    pairs = measure(seconds, pair)
    spans = tracer.spans()
    command_walls = {r: bench.walls[r] for r in timed_runs}
    share_runs = [r for r in timed_runs if bench.verbs[r] not in SIDE_VERBS]
    metrics = layer_metrics(spans, len(pairs), share_runs, command_walls)
    untraced = statistics.median(walls[False])
    metrics["cli.bytes_written"] = statistics.fmean(written)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(walls[True]) - untraced) / untraced
    check_trace(bench, spans, command_walls)
    print(f"traced rounds: {len(pairs)}; spans: {len(spans)}")
    return metrics, spans


def check_trace(bench, spans, command_walls) -> None:
    """Fail the run for each kind of timed command whose coverage is below
    MIN_COVERAGE, and for a training span inside a command other than
    ``train`` (evaluate must only load and predict)."""
    from spans import command_coverage

    for name, share in sorted(command_coverage(spans, command_walls).items()):
        if share < MIN_COVERAGE:
            bench.fail(f"trace coverage of {name} is {share:.3f}, below {MIN_COVERAGE}")
    read_runs = [r for r in command_walls if bench.verbs[r] != "train"]
    for name in TRAINING_SPANS:
        if spans.named(name, read_runs).any():
            bench.fail(f"{name} ran inside a command other than train")


def metric_units(trace: int) -> dict:
    """Name to unit of the metrics one run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit():
    """HEAD of the checkout when it is a git repository; git may not look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment(seed: int, numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "coincast" / "cli.py").is_file():
        print(f"error: no coincast sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import coincast
    from coincast import analysis, cli, config, gbtree, lstm, market_data, metrics, numkernel, pipeline

    if Path(coincast.__file__).resolve().parent != SRC / "coincast":
        print(f"error: imported coincast from {coincast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gen

    imports_done = time.perf_counter()
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work, cli, gen)
    try:
        if args.trace:
            modules = (analysis, cli, config, gbtree, lstm, market_data, metrics, numkernel, pipeline)
            values, spans = traced(bench, args.seconds, modules)
            samples = None
        else:
            values, samples = end_to_end(bench, args.seconds, imports_done)
        env = environment(args.seed, numpy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_units(args.trace)
    metrics_out = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics_out,
    }
    stem = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        spans.save(f"{stem}.spans.npz")
    record = {"environment": env, "samples_s": samples, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, m in metrics_out.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
