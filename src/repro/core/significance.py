"""Statistical comparison of repeated runs (extension beyond the paper).

The paper reports mean ± std over five seeds but never tests whether model
differences are significant.  This module adds Welch's t-test and a
pairwise win-matrix so "Graph-WaveNet is more accurate than X" becomes a
quantified statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiment import RunResult

__all__ = ["Comparison", "welch_test", "compare_models", "win_matrix"]


@dataclass
class Comparison:
    """Outcome of comparing model A vs model B on one metric."""

    model_a: str
    model_b: str
    mean_a: float
    mean_b: float
    t_statistic: float
    p_value: float

    @property
    def better(self) -> str:
        """Name of the model with the lower (better) mean error."""
        return self.model_a if self.mean_a <= self.mean_b else self.model_b

    def significant(self, alpha: float = 0.05) -> bool:
        return bool(self.p_value < alpha)


def _horizon_maes(runs: list[RunResult], minutes: int) -> np.ndarray:
    return np.array([r.evaluation.full[minutes].mae for r in runs])


def welch_test(values_a: np.ndarray, values_b: np.ndarray) -> tuple[float, float]:
    """Welch's unequal-variance t-test; returns (t, p).

    Degenerate inputs (fewer than two samples, or both samples constant)
    return (nan, 1.0) rather than raising.
    """
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    if len(values_a) < 2 or len(values_b) < 2:
        return float("nan"), 1.0
    if values_a.std() == 0 and values_b.std() == 0:
        return float("nan"), 1.0 if values_a.mean() == values_b.mean() else 0.0
    from scipy import stats

    t_stat, p_value = stats.ttest_ind(values_a, values_b, equal_var=False)
    return float(t_stat), float(p_value)


def compare_models(runs_a: list[RunResult], runs_b: list[RunResult],
                   minutes: int = 15) -> Comparison:
    """Compare two models' repeated runs at one horizon (MAE)."""
    if not runs_a or not runs_b:
        raise ValueError("both run lists must be non-empty")
    values_a = _horizon_maes(runs_a, minutes)
    values_b = _horizon_maes(runs_b, minutes)
    t_stat, p_value = welch_test(values_a, values_b)
    return Comparison(model_a=runs_a[0].model_name,
                      model_b=runs_b[0].model_name,
                      mean_a=float(values_a.mean()),
                      mean_b=float(values_b.mean()),
                      t_statistic=t_stat, p_value=p_value)


def win_matrix(all_runs: dict[str, list[RunResult]],
               minutes: int = 15) -> dict[tuple[str, str], Comparison]:
    """All pairwise comparisons among models (keyed (a, b), a < b)."""
    names = sorted(all_runs)
    matrix: dict[tuple[str, str], Comparison] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            matrix[(a, b)] = compare_models(all_runs[a], all_runs[b], minutes)
    return matrix
