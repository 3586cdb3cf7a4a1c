"""Hyper-parameter sweep utility (extension).

The paper reuses each model's published hyper-parameters; this helper makes
it easy to check how sensitive the benchmark rankings are to that choice —
one of the threats to validity for any cross-model comparison.  Every
configuration trains on the same :class:`LoadedDataset` (one cached world,
lazy windows), so sweep cost is pure training cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..datasets.catalog import LoadedDataset
from .experiment import RunResult, TrainingConfig, run_experiment

__all__ = ["SweepResult", "grid_sweep"]


@dataclass
class SweepResult:
    """One sweep point: the hyper-parameters tried and the resulting run."""

    hparams: dict
    run: RunResult

    @property
    def val_mae(self) -> float:
        maes = self.run.history.val_maes
        return min(maes) if maes else float("inf")

    @property
    def test_mae_15(self) -> float:
        return self.run.evaluation.full[15].mae


def grid_sweep(model_name: str, dataset: LoadedDataset,
               grid: dict[str, list], config: TrainingConfig | None = None,
               seed: int = 0, verbose: bool = False) -> list[SweepResult]:
    """Train one run per point of the Cartesian hyper-parameter grid.

    Each point is one :func:`run_experiment` call.  Returns sweep points
    sorted by validation MAE (best first), so ``results[0].hparams`` is the
    selected configuration — model selection never touches the test split.
    """
    if not grid:
        raise ValueError("empty grid")
    keys = sorted(grid)
    results: list[SweepResult] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        hparams = dict(zip(keys, values))
        if verbose:
            print(f"[sweep] {model_name} {hparams}")
        run = run_experiment(model_name, dataset, config, seed=seed,
                             **hparams)
        results.append(SweepResult(hparams=hparams, run=run))
    results.sort(key=lambda r: r.val_mae)
    return results
