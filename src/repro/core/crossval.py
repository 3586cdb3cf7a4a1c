"""Rolling-origin cross-validation (extension).

The paper evaluates on one chronological 7:1:2 split; a single test window
can be lucky or unlucky (e.g. all its incidents at easy sensors).
Rolling-origin evaluation — train on an expanding prefix, test on the next
block, roll forward — gives a variance estimate over *time* instead of
over seeds only.  Folds re-window the same simulated series, which the
world cache (:mod:`repro.datasets.cache`) serves without re-simulating,
and the per-fold windows stay lazy — each fold holds views, not stacked
tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets.catalog import LoadedDataset
from ..datasets.windows import SupervisedDataset, WindowConfig, make_windows
from .experiment import RunResult, TrainingConfig, run_experiment

__all__ = ["RollingFold", "rolling_origin_folds", "rolling_origin_evaluate"]


@dataclass
class RollingFold:
    """One fold: a LoadedDataset view with fold-specific splits."""

    index: int
    dataset: LoadedDataset
    train_steps: int
    test_steps: int


def rolling_origin_folds(dataset: LoadedDataset, n_folds: int = 3,
                         min_train_fraction: float = 0.4) -> list[RollingFold]:
    """Split the series into ``n_folds`` expanding-window folds.

    Fold k trains on the first ``min_train + k * block`` steps and tests on
    the following block, where blocks partition the region after the
    minimum training prefix.  Validation takes the trailing 1/8 of each
    fold's training region (mirroring the paper's 7:1 train:val ratio).
    """
    if n_folds < 1:
        raise ValueError("need at least one fold")
    if not 0.0 < min_train_fraction < 1.0:
        raise ValueError("min_train_fraction must be in (0, 1)")
    series = dataset.supervised.series
    total = len(series)
    window = (dataset.supervised.config.history
              + dataset.supervised.config.horizon)
    min_train = int(total * min_train_fraction)
    block = (total - min_train) // n_folds
    if block < window + 2:
        raise ValueError(
            f"series too short for {n_folds} folds (block={block}, "
            f"window={window})")

    time_of_day = dataset.simulation.time_of_day
    day_of_week = dataset.simulation.day_of_week
    folds = []
    for k in range(n_folds):
        end_train = min_train + k * block
        end_test = end_train + block
        fold_total = end_test
        train_ratio = (end_train / fold_total) * (7.0 / 8.0)
        val_ratio = (end_train / fold_total) * (1.0 / 8.0)
        config = WindowConfig(
            history=dataset.supervised.config.history,
            horizon=dataset.supervised.config.horizon,
            train_ratio=train_ratio, val_ratio=val_ratio,
            include_day_of_week=dataset.supervised.config.include_day_of_week)
        supervised = make_windows(series[:fold_total],
                                  time_of_day[:fold_total], config,
                                  day_of_week=day_of_week[:fold_total])
        fold_dataset = replace(dataset, supervised=supervised)
        folds.append(RollingFold(index=k, dataset=fold_dataset,
                                 train_steps=end_train,
                                 test_steps=block))
    return folds


def rolling_origin_evaluate(model_name: str, dataset: LoadedDataset,
                            config: TrainingConfig | None = None,
                            n_folds: int = 3, seed: int = 0,
                            **model_hparams) -> list[RunResult]:
    """Train & evaluate one model on every rolling-origin fold, one
    :func:`run_experiment` call per fold."""
    return [run_experiment(model_name, fold.dataset, config, seed=seed,
                           **model_hparams)
            for fold in rolling_origin_folds(dataset, n_folds)]
