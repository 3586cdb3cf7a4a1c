"""Every artifact writer goes through one atomic writer (`repro.artifacts`):
a write that fails part-way leaves the previous file and no temp file."""

import errno

import numpy as np
import pytest

import repro.artifacts as artifacts
from repro.bench import BenchTiming, write_bench_json
from repro.core import (aggregate_runs, export_predictions,
                        predictions_to_csv, save_results)
from repro.datasets import DatasetCache
from repro.datasets.io import save_dataset
from repro.models import create_model
from repro.nn import Linear
from repro.nn.checkpoint import save_checkpoint
from repro.obs import (EpochEnd, build_manifest, write_chrome_trace,
                       write_manifest)
from tests.core.test_results import make_run

WRITERS = ["save_checkpoint", "save_dataset", "export_predictions",
           "DatasetCache.put", "predictions_to_csv", "save_results",
           "write_manifest", "write_chrome_trace", "write_bench_json"]


def writers(path, data):
    """Writer name -> a call that writes one artifact at ``path``."""
    model = Linear(3, 2, rng=np.random.default_rng(0))
    forecaster = create_model("last-value", data.num_nodes, data.adjacency)
    source = path.with_name("source.npz")
    export_predictions(forecaster, data, source)
    results = [aggregate_runs([make_run(seed=0), make_run(seed=1)])]
    manifest = build_manifest("linear", "metr-la", 0, {}, 10, 1.0)
    events = [EpochEnd(epoch=1, total_epochs=1, train_loss=0.5, val_mae=3.0,
                       seconds=1.0)]
    timings = [BenchTiming("case", 2.0, 1.0)]
    return {
        "save_checkpoint": lambda: save_checkpoint(path, model),
        "save_dataset": lambda: save_dataset(data, path),
        "export_predictions": lambda: export_predictions(forecaster, data,
                                                         path),
        "DatasetCache.put": lambda: DatasetCache(path.parent).put(data,
                                                                  "0" * 16),
        "predictions_to_csv": lambda: predictions_to_csv(source, path),
        "save_results": lambda: save_results(results, path),
        "write_manifest": lambda: write_manifest(path, manifest),
        "write_chrome_trace": lambda: write_chrome_trace(events, path),
        "write_bench_json": lambda: write_bench_json(timings, path, "quick",
                                                     "kernels"),
    }


class _DiskFull:
    """``open`` whose stream fails like a full disk on its first write."""

    def __init__(self, *args, **kwargs):
        self._stream = open(*args, **kwargs)

    def write(self, data):
        self._stream.write(data[:64])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stream.close()


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_overwrite_keeps_previous_file(writer, tmp_path, ci_dataset,
                                              monkeypatch):
    write = writers(tmp_path / "artifact.out", ci_dataset)[writer]
    write()
    before = _snapshot(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(artifacts, "open", _DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write()
    assert _snapshot(tmp_path) == before      # same bytes, no temp file
