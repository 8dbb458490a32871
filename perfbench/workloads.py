"""The benchmark's workloads: generated inputs, run settings and the CLI
commands each one times.

Sizes are scaled from the probed shapes so that a round of timed commands
repeats several times in one run, while each workload keeps its layer mix
(README.md in this directory gives the reasons and the layer map).
"""
from __future__ import annotations

from dataclasses import dataclass

VERBS = ("train", "evaluate", "analyze", "backtest")
# Read-side commands on the shared ``wide`` inputs. Each workload runs them so
# that every end-to-end metric exists on it; the layer shares, which show a
# workload's design, are taken over its other commands.
SIDE_VERBS = ("analyze", "backtest")
REPORT_MODELS = ("hybrid", "lstm-only", "gbt-lags")
MAPE_METRICS = ("hybrid_mape_pct", "lstm_only_mape_pct", "gbt_lags_mape_pct")


@dataclass(frozen=True)
class Inputs:
    """``symbols`` generated CSVs of ``days`` rows each, plus run settings."""

    symbols: int
    days: int
    settings: dict


@dataclass(frozen=True)
class Command:
    verb: str
    inputs: str


@dataclass(frozen=True)
class Workload:
    inputs: dict
    timed: tuple  # one round, in order


def _training(hidden, epochs, rounds, depth, steps_out):
    # Only sizes are set; the LSTM keeps the program's default training path
    # (Adam, full batch, learning rate 0.005, seed 42, train_fraction 0.8).
    return {
        "n_steps_in": 30,
        "n_steps_out": steps_out,
        "lstm": {"hidden_size": hidden, "epochs": epochs},
        "gbt": {"n_rounds": rounds, "max_depth": depth},
    }


# The read side: 8 symbols, so analyze aligns dates and runs every
# cross-asset figure, and each call is long enough to time steadily.
WIDE = Inputs(8, 2000, {})


def _round(slots: int) -> tuple:
    """``train`` on the workload's own inputs, then ``slots`` groups of
    evaluate, analyze and backtest, spread between trains so that the short
    commands are sampled at several points of a run, not in one burst."""
    group = (Command("evaluate", "main"), Command("analyze", "wide"), Command("backtest", "wide"))
    return (Command("train", "main"), *group * slots)


WORKLOADS = {
    "lstm-train": Workload(
        inputs={"main": Inputs(2, 400, _training(64, 16, 10, 2, 1)), "wide": WIDE},
        timed=_round(3),
    ),
    # One evaluate more per round would take gbtree below 0.8 of the train and
    # evaluate time; 44 rounds leave room for two.
    "boost-lags": Workload(
        inputs={"main": Inputs(1, 800, _training(8, 2, 44, 4, 3)), "wide": WIDE},
        timed=_round(2),
    ),
}
