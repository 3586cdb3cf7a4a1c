"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's artefacts (Fig. 1, Fig. 2,
Fig. 3, Table III) by training the eight models under one protocol and
printing the corresponding rows.  Because several artefacts share the same
trained cells (e.g. Table III and Fig. 2 both use METR-LA), results are
cached per session by :class:`repro.core.BenchmarkMatrix`.

Environment knobs (all optional):

- ``REPRO_BENCH_SCALE``   dataset scale preset (default ``ci``)
- ``REPRO_BENCH_EPOCHS``  training epochs per run (default 3)
- ``REPRO_BENCH_BATCHES`` max mini-batches per epoch (default 12)
- ``REPRO_BENCH_REPEATS`` repeated seeds per cell (default 2; paper uses 5)
- ``REPRO_BENCH_CACHE``   directory for a persistent cell cache (off by
  default so every invocation measures fresh timings)
- ``REPRO_BENCH_TRACE``   directory for per-run telemetry: every trained
  seed writes a JSONL event trace and a ``.run.json`` manifest next to the
  benchmark's JSON results (see ``docs/observability.md``)
- ``REPRO_BENCH_MODE``    workload preset for every engine suite in
  ``bench_suites.py`` — kernels, optim, data, obs (default ``full``;
  ``quick`` for a fast sanity pass — speedup floors, memory floors and
  the ≤2% tracing-overhead budget are only asserted in ``full`` mode)
- ``REPRO_BENCH_CHECK``   when set to ``1``/``true``, every engine suite
  additionally gates its fresh timings against the committed
  ``BENCH_<suite>.json`` baseline via :func:`repro.obs.check_records`
  (off by default; only meaningful in ``full`` mode — other modes skip
  the comparison because workloads differ)
"""

from __future__ import annotations

import os

import pytest

from repro import TrainingConfig
from repro.core import BenchmarkMatrix

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "3"))
BENCH_BATCHES = int(os.environ.get("REPRO_BENCH_BATCHES", "12"))
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None
BENCH_TRACE = os.environ.get("REPRO_BENCH_TRACE") or None

BENCH_CONFIG = TrainingConfig(epochs=BENCH_EPOCHS, batch_size=32,
                              max_batches_per_epoch=BENCH_BATCHES,
                              learning_rate=0.01)


@pytest.fixture(scope="session")
def matrix():
    return BenchmarkMatrix(scale=BENCH_SCALE, config=BENCH_CONFIG,
                           repeats=BENCH_REPEATS, cache_dir=BENCH_CACHE,
                           trace_dir=BENCH_TRACE)
