"""Prediction export (extension): persist forecasts for external analysis.

Writes a model's test-set predictions with their ground truth, window
start positions, and alignment metadata so notebooks/BI tools can analyse
them without re-running inference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..artifacts import atomic_write, read_archive, write_archive
from ..datasets.catalog import LoadedDataset
from ..models.base import TrafficModel
from .experiment import predict

__all__ = ["export_predictions", "load_predictions", "predictions_to_csv"]


def export_predictions(model: TrafficModel, dataset: LoadedDataset,
                       path: str | Path, batch_size: int = 64) -> None:
    """Run test-set inference and save a self-describing ``.npz``."""
    split = dataset.supervised.test
    prediction, elapsed = predict(model, split, dataset.supervised.scaler,
                                  batch_size)
    meta = {
        "model": model.name,
        "dataset": dataset.spec.name,
        "scale": dataset.scale,
        "horizon": dataset.supervised.config.horizon,
        "history": dataset.supervised.config.history,
        "inference_seconds": elapsed,
    }
    write_archive(path, dict(prediction=prediction, target=split.y,
                             start_index=split.start_index),
                  meta, compress=True)


def load_predictions(path: str | Path
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Load (prediction, target, start_index, metadata)."""
    arrays, meta = read_archive(path)
    return (arrays["prediction"], arrays["target"], arrays["start_index"],
            meta)


def predictions_to_csv(path_npz: str | Path, path_csv: str | Path,
                       horizon_step: int = 0) -> None:
    """Flatten one forecast step to CSV: window,sensor,prediction,target."""
    prediction, target, start_index, meta = load_predictions(path_npz)
    horizon = prediction.shape[1]
    if not 0 <= horizon_step < horizon:
        raise ValueError(
            f"horizon_step {horizon_step} outside [0, {horizon})")
    num_samples, _, nodes = prediction.shape
    with atomic_write(path_csv, "w") as stream:
        stream.write("series_position,sensor,prediction,target\n")
        for sample in range(num_samples):
            position = start_index[sample] + horizon_step
            for node in range(nodes):
                stream.write(f"{position},{node},"
                             f"{prediction[sample, horizon_step, node]:.6f},"
                             f"{target[sample, horizon_step, node]:.6f}\n")
