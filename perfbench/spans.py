"""Call spans around coincast's public functions, and the per-layer figures
the benchmark derives from them.

The tracer wraps, from outside the program, every public function and every
public method of a public class defined in a ``coincast`` module, plus the
private ``cli`` helpers that read inputs and stage output files. A wrapper
replaces the original wherever a module holds it, so names bound with
``from ... import`` (``pipeline.train_booster``, ``cli.parse_csv``,
``lstm.sigmoid``, ...) are traced too. Spans are kept in memory as parallel
lists and written out once, when the run ends.

A span is named ``<module>.<function>`` or ``<module>.<Class>.<method>``; its
layer is the module name. Spans of one thread nest, so the children of a
span never overlap and the time they cover is the sum of their durations.

A command's coverage is the share of its wall time spent in named spans
below its dispatchers (``cli.main`` and the ``cli.cmd_*`` function it
calls); what the dispatchers run inline, or through a function the tracer
missed, is uncovered. It is summed per kind of command (``cli.cmd_train``,
``cli.cmd_analyze``, ...).
"""
from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "analysis",
    "cli",
    "config",
    "gbtree",
    "lstm",
    "market_data",
    "metrics",
    "numkernel",
    "pipeline",
)


# Private cli helpers traced as well, so that reading inputs, CSV/JSON
# formatting and staging show as named ``cli`` spans below the dispatchers.
CLI_HELPERS = (
    "_build_parser",
    "_read_series",
    "_load_all",
    "_write_backtest_curves",
    "_Stage.write_text",
    "_Stage.write_csv",
    "_Stage.write_json",
    "_Stage.commit",
)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _lstm_train_counts(fn, result, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    X = a["dataset"].X
    cfg = a["config"]
    k, (N, n, d) = cfg.hidden_size, X.shape
    window_steps = N * n * cfg.epochs
    # Forward plus backward of the four gate products, 3 * 8k(k+d) flops per
    # window-step; computed from the shapes, not counted.
    return {"epochs": cfg.epochs, "flop": 24.0 * k * (k + d) * window_steps}


def _windows(fn, result, args, kwargs) -> dict:
    return {"windows": _bound(fn, args, kwargs)["dataset"].n_samples}


def _booster_sizes(fn, result, args, kwargs) -> dict:
    return {
        "nodes": sum(t.n_nodes for t in result.trees),
        "leaves": sum(t.n_leaves for t in result.trees),
    }


def _row_trees(fn, result, args, kwargs) -> dict:
    booster = args[0]
    return {"row_trees": len(result) * len(booster.trees)}


def _rows(fn, result, args, kwargs) -> dict:
    return {"rows": len(result)}


def _bundle_bytes(fn, result, args, kwargs) -> dict:
    return {"bytes": _dir_bytes(_bound(fn, args, kwargs)["directory"])}


# Counts read at the call boundary, attributed to the span of the call.
COUNT_HOOKS = {
    "lstm.train": _lstm_train_counts,
    "lstm.extract_latents": _windows,
    "pipeline.evaluate": _windows,
    "gbtree.train_booster": _booster_sizes,
    "gbtree.Booster.predict": _row_trees,
    "market_data.parse_csv": _rows,
    "pipeline.save_bundle": _bundle_bytes,
    "pipeline.load_bundle": _bundle_bytes,
}


def traced_callables(modules):
    """Yield (span name, owner, attribute, original) for every traced callable.

    ``owner`` is the module or class whose attribute is replaced; names bound
    into other modules are found later by identity.
    """
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        if layer == "cli":
            for dotted in CLI_HELPERS:
                *path, attr = dotted.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                yield f"cli.{dotted}", owner, attr, vars(owner)[attr]
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", module, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        yield f"{layer}.{name}.{attr}", obj, attr, member


class Tracer:
    """Records spans of wrapped calls; ``install``/``uninstall`` swap the
    wrappers in and out so untraced rounds run the original functions."""

    def __init__(self, modules):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counts: list[tuple[int, str, float]] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._patches = []
        modules = list(modules)
        wrapped = {}
        for name, owner, attr, original in traced_callables(modules):
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
                wrapped[id(original)] = (original, wrapper)
            self._patches.append((owner, attr, original, wrapper))
        # Names bound elsewhere with ``from ... import`` are replaced where
        # they are looked up.
        for module in modules:
            for attr, obj in vars(module).items():
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj and obj.__module__ != module.__name__:
                    self._patches.append((module, attr, obj, wrapper))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = COUNT_HOOKS.get(name)
        name_id, start, end, parent, run = self.name_id, self.start, self.end, self.parent, self.run
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(fn, result, args, kwargs).items():
                    counts.append((i, key, float(value)))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(
            names=self.names,
            name_id=np.asarray(self.name_id, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            run=np.asarray(self.run, dtype=np.int64),
            counts=self.counts,
        )


class Spans:
    """Recorded spans as arrays, with self time and per-name aggregation."""

    def __init__(self, names, name_id, start, end, parent, run, counts=()):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.run = np.asarray(run, dtype=np.int64)
        self.counts = list(counts)
        self.duration = self.end - self.start
        self.layer_of_name = [n.split(".", 1)[0] for n in self.names]

    def __len__(self) -> int:
        return self.start.size

    def self_time(self) -> np.ndarray:
        """Duration of each span minus the time its direct children cover."""
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self)
        )
        return self.duration - covered

    def save(self, path) -> None:
        idx = np.asarray([c[0] for c in self.counts], dtype=np.int64)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            run=self.run,
            count_span=idx,
            count_key=np.asarray([c[1] for c in self.counts]),
            count_value=np.asarray([c[2] for c in self.counts], dtype=np.float64),
        )

    def named(self, name: str, runs) -> np.ndarray:
        """Mask of spans called ``name`` that belong to one of ``runs``."""
        try:
            nid = self.names.index(name)
        except ValueError:
            return np.zeros(len(self), dtype=bool)
        return (self.name_id == nid) & np.isin(self.run, list(runs))

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, lay in enumerate(self.layer_of_name) if lay == layer]
        return np.isin(self.name_id, ids)

    def _has_ancestor_in(self, mask: np.ndarray) -> np.ndarray:
        # A parent is recorded before its children, so one forward pass
        # carries "has an ancestor in mask" down the tree.
        flags = mask.tolist()
        under = [False] * len(self)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                under[i] = flags[p] or under[p]
        return np.asarray(under, dtype=bool)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` with no ancestor in ``mask`` (no double counting)."""
        return mask & ~self._has_ancestor_in(mask)

    def within(self, mask: np.ndarray, ancestor_mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` that have an ancestor in ``ancestor_mask``."""
        return mask & self._has_ancestor_in(ancestor_mask)

    def count(self, key: str, mask: np.ndarray) -> float:
        return float(sum(v for i, k, v in self.counts if k == key and mask[i]))


def layer_metrics(spans: Spans, rounds: int, share_runs, command_walls) -> dict:
    """Per-layer figures, per traced round of the workload's timed commands.

    ``command_walls`` maps each traced run id to the wall time the benchmark
    measured around the command. The ``<layer>.self_share`` figures are taken
    over ``share_runs`` only: the workload's own commands, not the read-side
    commands every workload runs so that each end-to-end metric exists.
    """
    timed_runs = list(command_walls)
    in_timed = np.isin(spans.run, timed_runs)
    self_t = spans.self_time()

    def scope(name):
        return spans.named(name, timed_runs)

    def secs(mask) -> float:
        return float(spans.duration[mask].sum())

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    def total(name, *keys):
        """Seconds in ``name`` per round, then each count key per second."""
        m = scope(name)
        s = secs(m)
        return (s / rounds, *(ratio(spans.count(k, m), s) for k in keys))

    out = {}
    m = scope("lstm.train")
    out["lstm.train.s"] = secs(m) / rounds
    out["lstm.train.s_per_epoch"] = ratio(secs(m), spans.count("epochs", m))
    out["lstm.train.gflop_per_s"] = ratio(spans.count("flop", m) / 1e9, secs(m))
    out["lstm.extract_latents.s"], out["lstm.extract_latents.windows_per_s"] = total(
        "lstm.extract_latents", "windows"
    )
    for name in ("lstm.sequence_forward", "numkernel.sigmoid", "gbtree.build_tree",
                 "market_data.PriceSeries.column"):
        out[f"{name}.calls"] = float(scope(name).sum()) / rounds
    out["numkernel.sigmoid.s"] = total("numkernel.sigmoid")[0]
    lstm_top = spans.outermost(spans.layer_mask("lstm") & in_timed)
    out["numkernel.sigmoid.lstm_share"] = ratio(
        secs(spans.named("numkernel.sigmoid", timed_runs)), secs(lstm_top)
    )

    out["gbtree.train_booster.s"] = total("gbtree.train_booster")[0]
    m = scope("gbtree.build_tree")
    out["gbtree.build_tree.s_per_tree"] = ratio(secs(m), float(m.sum()))
    m = scope("gbtree.train_booster")
    out["gbtree.nodes"] = spans.count("nodes", m) / rounds
    out["gbtree.leaves"] = spans.count("leaves", m) / rounds
    out["gbtree.Booster.predict.s"], out["gbtree.Booster.predict.row_trees_per_s"] = total(
        "gbtree.Booster.predict", "row_trees"
    )

    for name in ("prepare_datasets", "fit_horizon_boosters", "evaluate"):
        out[f"pipeline.{name}.s"] = total(f"pipeline.{name}")[0]
    ev = scope("pipeline.evaluate")
    ext_in_eval = spans.within(spans.named("lstm.extract_latents", timed_runs), ev)
    out["pipeline.evaluate.latent_passes_per_window"] = ratio(
        spans.count("windows", ext_in_eval), spans.count("windows", ev)
    )
    for name in ("save_bundle", "load_bundle"):
        m = scope(f"pipeline.{name}")
        out[f"pipeline.{name}.s"] = secs(m) / rounds
        out[f"pipeline.{name}.bytes"] = spans.count("bytes", m) / rounds

    out["market_data.parse_csv.s"], out["market_data.parse_csv.rows_per_s"] = total(
        "market_data.parse_csv", "rows"
    )
    for name in ("PriceSeries.column", "make_windows", "align_on_dates"):
        out[f"market_data.{name}.s"] = total(f"market_data.{name}")[0]

    analysis_top = spans.outermost(spans.layer_mask("analysis") & in_timed)
    out["analysis.s"] = secs(analysis_top) / rounds
    out["analysis.rolling_correlation.s"] = total("analysis.rolling_correlation")[0]
    metrics_top = spans.outermost(spans.layer_mask("metrics") & in_timed)
    out["metrics.s"] = secs(metrics_top) / rounds
    out["config.load_config.s"] = total("config.load_config")[0]

    cli_self = float(self_t[spans.layer_mask("cli") & in_timed].sum())
    out["cli.self_s"] = cli_self / rounds
    in_share = np.isin(spans.run, list(share_runs))
    main = spans.named("cli.main", share_runs)
    for layer in LAYERS:
        mask = spans.layer_mask(layer) & in_share
        out[f"{layer}.self_share"] = ratio(float(self_t[mask].sum()), secs(main))
    out["trace.coverage"] = min(command_coverage(spans, command_walls).values())
    return out


def command_coverage(spans: Spans, command_walls) -> dict:
    """Coverage of each kind of command, keyed by its ``cli.cmd_*`` name.

    A command's covered time is its ``cli.main`` span's duration less the
    self time of ``cli.main`` and ``cli.cmd_*``: the time spent in named spans
    below the dispatchers. Coverage sums that over the runs of one kind and
    divides by their summed wall time from ``command_walls`` (run id to
    seconds), so one short command's pause does not decide it alone.
    """
    runs = list(command_walls)
    self_t = spans.self_time()
    dispatch_ids = [
        i for i, name in enumerate(spans.names) if name == "cli.main" or name.startswith("cli.cmd_")
    ]
    dispatch = np.isin(spans.name_id, dispatch_ids) & np.isin(spans.run, runs)
    covered = dict.fromkeys(runs, 0.0)
    kind = dict.fromkeys(runs, "cli.main")
    for i in np.flatnonzero(dispatch).tolist():
        run, name = int(spans.run[i]), spans.names[spans.name_id[i]]
        if name == "cli.main":
            covered[run] += float(spans.duration[i])
        else:
            kind[run] = name
        covered[run] -= float(self_t[i])
    totals = {}
    for run, wall in command_walls.items():
        c, w = totals.get(kind[run], (0.0, 0.0))
        totals[kind[run]] = (c + covered[run], w + wall)
    return {name: c / w for name, (c, w) in totals.items()}
