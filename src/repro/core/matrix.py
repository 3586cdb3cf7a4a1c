"""Benchmark matrix orchestration with caching.

One object owns the model×dataset grid the paper evaluates: datasets are
built once, each (model, dataset) cell is trained once per seed set, and
aggregated cells are memoised — in memory always, and optionally on disk
(JSON keyed by a config fingerprint) so repeated benchmark invocations skip
finished cells.  Dataset builds themselves go through ``load_dataset``'s
content-addressed world cache (:mod:`repro.datasets.cache`), so even a
fresh process reuses previously simulated worlds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from ..datasets.catalog import LoadedDataset, load_dataset
from ..obs.events import EventBus, JSONLSink
from .experiment import RunResult, TrainingConfig, run_experiment
from .results import (AggregateResult, aggregate_runs, load_results,
                      save_results)

__all__ = ["BenchmarkMatrix"]


class BenchmarkMatrix:
    """Lazily trains and caches (model, dataset) cells.

    Every cell trains through one shared :class:`repro.train.Engine`
    (``self.engine``) built from the matrix's training config, so the
    whole grid runs under a single consistent training loop.

    Parameters
    ----------
    scale:
        Dataset scale preset used for every dataset.
    config:
        Shared training settings (the paper's single-environment premise).
    repeats:
        Seeds per cell (the paper uses five).
    cache_dir:
        Optional directory for a persistent cell cache.  Cells are keyed by
        (model, dataset, scale, repeats, training-config fingerprint), so
        changing any setting invalidates them.
    trace_dir:
        Optional directory for per-run telemetry: every trained seed writes
        a ``<model>_<dataset>_seed<k>.jsonl`` event trace plus a matching
        ``.run.json`` manifest (see :mod:`repro.obs`).  Cells restored from
        the disk cache emit no traces (nothing is re-run).
    """

    def __init__(self, scale: str = "ci",
                 config: TrainingConfig | None = None, repeats: int = 2,
                 cache_dir: str | Path | None = None,
                 trace_dir: str | Path | None = None):
        self.scale = scale
        self.config = config or TrainingConfig()
        self.repeats = repeats
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir else None
        from ..train.engine import Engine
        self.engine = Engine(self.config)
        self._datasets: dict[str, LoadedDataset] = {}
        self._cells: dict[tuple[str, str], AggregateResult] = {}
        self._runs: dict[tuple[str, str], list[RunResult]] = {}

    # ------------------------------------------------------------------ #
    def dataset(self, name: str) -> LoadedDataset:
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, scale=self.scale)
        return self._datasets[name]

    def _fingerprint(self, model: str, dataset: str) -> str:
        payload = json.dumps({"model": model, "dataset": dataset,
                              "scale": self.scale, "repeats": self.repeats,
                              "config": asdict(self.config)},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _cache_path(self, model: str, dataset: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{model}_{dataset}_{self._fingerprint(model, dataset)}.json"

    def _train_cell(self, model: str, dataset: str) -> list[RunResult]:
        """Train every seed of one cell, tracing each run if configured."""
        data = self.dataset(dataset)
        runs = []
        for seed in range(self.repeats):
            bus = None
            manifest_path = None
            if self.trace_dir is not None:
                stem = f"{model}_{dataset}_seed{seed}"
                bus = EventBus([JSONLSink(self.trace_dir / f"{stem}.jsonl")])
                manifest_path = str(self.trace_dir / f"{stem}.run.json")
            try:
                runs.append(run_experiment(model, data, self.config,
                                           seed=seed, bus=bus,
                                           manifest_path=manifest_path,
                                           engine=self.engine))
            finally:
                if bus is not None:
                    bus.close()
        return runs

    # ------------------------------------------------------------------ #
    def cell(self, model: str, dataset: str) -> AggregateResult:
        key = (model, dataset)
        if key in self._cells:
            return self._cells[key]

        path = self._cache_path(model, dataset)
        if path is not None and path.exists():
            self._cells[key] = load_results(path)[0]
            return self._cells[key]

        runs = self._train_cell(model, dataset)
        self._runs[key] = runs
        aggregated = aggregate_runs(runs)
        self._cells[key] = aggregated
        if path is not None:
            save_results([aggregated], path)
        return aggregated

    def cells(self, models, dataset: str) -> list[AggregateResult]:
        return [self.cell(model, dataset) for model in models]

    def runs(self, model: str, dataset: str) -> list[RunResult]:
        """Raw per-seed runs for a cell (trains the cell if needed).

        Unavailable for cells restored from the disk cache (only aggregates
        are persisted); those retrain on demand.
        """
        key = (model, dataset)
        if key not in self._runs:
            runs = self._train_cell(model, dataset)
            self._runs[key] = runs
            self._cells.setdefault(key, aggregate_runs(runs))
        return self._runs[key]

    def all_cells(self) -> list[AggregateResult]:
        """Every cell computed so far."""
        return list(self._cells.values())
