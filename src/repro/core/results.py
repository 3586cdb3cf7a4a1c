"""Result aggregation across repeated runs (mean ± std, as the paper).

Also provides a JSON round-trip so benchmark outputs can be persisted and
re-rendered without re-training.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..artifacts import write_json
from .experiment import RunResult
from .metrics import HorizonMetrics

__all__ = ["MetricSummary", "AggregateResult", "aggregate_runs",
           "save_results", "load_results"]

_METRICS = ("mae", "rmse", "mape")


@dataclass
class MetricSummary:
    """Mean and standard deviation over repeats."""

    mean: float
    std: float

    def __str__(self) -> str:
        return f"{self.mean:.3f}±{self.std:.3f}"


@dataclass
class AggregateResult:
    """Aggregated (model, dataset) cell over ``n`` repeated seeds."""

    model_name: str
    dataset_name: str
    num_repeats: int
    # horizon minutes -> metric name -> summary
    full: dict[int, dict[str, MetricSummary]]
    difficult: dict[int, dict[str, MetricSummary]]
    degradation: dict[int, MetricSummary]       # MAE degradation %, Fig. 2
    train_time_per_epoch: MetricSummary
    inference_seconds: MetricSummary
    num_parameters: int

    def metric(self, minutes: int, name: str,
               difficult: bool = False) -> MetricSummary:
        table = self.difficult if difficult else self.full
        return table[minutes][name]


def _summarize(values: list[float]) -> MetricSummary:
    array = np.asarray(values, dtype=float)
    finite = array[np.isfinite(array)]
    if finite.size == 0:
        return MetricSummary(float("nan"), float("nan"))
    return MetricSummary(float(finite.mean()), float(finite.std()))


def _collect(tables: list[dict[int, HorizonMetrics]]
             ) -> dict[int, dict[str, MetricSummary]]:
    horizons = tables[0].keys()
    out: dict[int, dict[str, MetricSummary]] = {}
    for minutes in horizons:
        out[minutes] = {
            name: _summarize([getattr(t[minutes], name) for t in tables])
            for name in _METRICS}
    return out


def aggregate_runs(runs: list[RunResult]) -> AggregateResult:
    """Aggregate repeated runs of one (model, dataset) cell."""
    if not runs:
        raise ValueError("no runs to aggregate")
    names = {(r.model_name, r.dataset_name) for r in runs}
    if len(names) != 1:
        raise ValueError(f"runs mix cells: {sorted(names)}")
    full = _collect([r.evaluation.full for r in runs])
    difficult = _collect([r.evaluation.difficult for r in runs])
    degradation = {
        minutes: _summarize([r.evaluation.degradation(minutes) for r in runs])
        for minutes in runs[0].evaluation.full}
    return AggregateResult(
        model_name=runs[0].model_name,
        dataset_name=runs[0].dataset_name,
        num_repeats=len(runs),
        full=full, difficult=difficult, degradation=degradation,
        train_time_per_epoch=_summarize(
            [r.history.train_time_per_epoch for r in runs]),
        inference_seconds=_summarize(
            [r.evaluation.inference_seconds for r in runs]),
        num_parameters=runs[0].evaluation.num_parameters)


# --------------------------------------------------------------------- #
# JSON round-trip
# --------------------------------------------------------------------- #
def _summary_to_json(summary: MetricSummary) -> dict:
    return {"mean": summary.mean, "std": summary.std}


def _summary_from_json(payload: dict) -> MetricSummary:
    return MetricSummary(mean=payload["mean"], std=payload["std"])


def save_results(results: list[AggregateResult], path: str | Path) -> None:
    """Persist aggregated results as JSON."""
    payload = []
    for r in results:
        payload.append({
            "model": r.model_name,
            "dataset": r.dataset_name,
            "num_repeats": r.num_repeats,
            "full": {str(m): {k: _summary_to_json(v) for k, v in row.items()}
                     for m, row in r.full.items()},
            "difficult": {str(m): {k: _summary_to_json(v) for k, v in row.items()}
                          for m, row in r.difficult.items()},
            "degradation": {str(m): _summary_to_json(v)
                            for m, v in r.degradation.items()},
            "train_time_per_epoch": _summary_to_json(r.train_time_per_epoch),
            "inference_seconds": _summary_to_json(r.inference_seconds),
            "num_parameters": r.num_parameters,
        })
    write_json(path, payload, indent=2)


def load_results(path: str | Path) -> list[AggregateResult]:
    """Load aggregated results saved by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    results = []
    for item in payload:
        results.append(AggregateResult(
            model_name=item["model"],
            dataset_name=item["dataset"],
            num_repeats=item["num_repeats"],
            full={int(m): {k: _summary_from_json(v) for k, v in row.items()}
                  for m, row in item["full"].items()},
            difficult={int(m): {k: _summary_from_json(v) for k, v in row.items()}
                       for m, row in item["difficult"].items()},
            degradation={int(m): _summary_from_json(v)
                         for m, v in item["degradation"].items()},
            train_time_per_epoch=_summary_from_json(item["train_time_per_epoch"]),
            inference_seconds=_summary_from_json(item["inference_seconds"]),
            num_parameters=item["num_parameters"]))
    return results
