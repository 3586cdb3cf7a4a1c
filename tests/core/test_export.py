"""Prediction export round trip."""

import numpy as np
import pytest

from repro.core import (TrainingConfig, export_predictions, load_predictions,
                        predictions_to_csv, train_model)
from repro.models import create_model


@pytest.fixture(scope="module")
def exported(tmp_path_factory, ci_dataset):
    model = create_model("linear", ci_dataset.num_nodes,
                         ci_dataset.adjacency, seed=0)
    train_model(model, ci_dataset,
                TrainingConfig(epochs=1, max_batches_per_epoch=2))
    path = tmp_path_factory.mktemp("export") / "predictions"   # as named
    export_predictions(model, ci_dataset, path)
    return path, model, ci_dataset


class TestExport:
    def test_roundtrip_shapes(self, exported):
        path, model, dataset = exported
        prediction, target, start_index, meta = load_predictions(path)
        split = dataset.supervised.test
        assert prediction.shape == split.y.shape
        np.testing.assert_array_equal(target, split.y)
        np.testing.assert_array_equal(start_index, split.start_index)

    def test_metadata(self, exported):
        path, model, dataset = exported
        _, _, _, meta = load_predictions(path)
        assert meta["model"] == "linear"
        assert meta["dataset"] == "metr-la"
        assert meta["horizon"] == 12
        assert meta["inference_seconds"] > 0

    def test_predictions_in_original_units(self, exported):
        path, _, _ = exported
        prediction, _, _, _ = load_predictions(path)
        assert prediction.mean() > 5.0      # mph, not z-scores

    def test_csv_flattening(self, exported, tmp_path):
        path, _, dataset = exported
        csv_path = tmp_path / "step1.csv"
        predictions_to_csv(path, csv_path, horizon_step=0)
        lines = csv_path.read_text().splitlines()
        split = dataset.supervised.test
        assert lines[0] == "series_position,sensor,prediction,target"
        assert len(lines) == 1 + split.num_samples * dataset.num_nodes
        first = lines[1].split(",")
        assert int(first[0]) == split.start_index[0]
        assert float(first[3]) == pytest.approx(split.y[0, 0, 0])

    def test_csv_step_validated(self, exported, tmp_path):
        path, _, _ = exported
        with pytest.raises(ValueError):
            predictions_to_csv(path, tmp_path / "x.csv", horizon_step=99)
