"""Observability suite: what does the tracing itself cost?

Instrumentation only earns its keep if it is effectively free when
nobody listens.  This suite measures that contract from two angles:

- ``traced_train_step``   a full :class:`repro.train.Engine` fit (STGCN
  on a CI-scale world) with span instrumentation live-but-unobserved
  (no sinks attached) vs. the same fit with spans force-disabled via
  :func:`repro.obs.disable_spans`.  ``meta.overhead_pct`` records the
  relative cost of tracing an unobserved run — the ≤2% budget the
  regression gate enforces.
- ``span_noop_vs_recorded``  the :func:`repro.obs.span` context manager
  in isolation: recorded spans (a :class:`MemorySink` attached) vs. the
  no-op fast path on a sinkless bus; meta carries ns-per-span both ways.

The span case's reference timing is the *instrumentation-on* side
(recorded spans); the overhead case's reference is the untraced fit.
"""

from __future__ import annotations

from ..obs.events import EventBus, MemorySink
from ..obs.spans import disable_spans, span
from . import best_of, interleaved_best

__all__ = ["CASES"]


def _traced_train_step(sizes: dict):
    from ..core.experiment import TrainingConfig
    from ..datasets.catalog import load_dataset
    from ..models.base import create_model
    from ..train.engine import Engine

    dataset = load_dataset("pemsd8", scale="ci")
    config = TrainingConfig(epochs=sizes["epochs"],
                            batch_size=sizes["batch_size"],
                            max_batches_per_epoch=sizes["max_batches"],
                            verbose=False)
    silent = EventBus()          # no sinks: spans take the no-op path

    def make_model():
        return create_model(
            "stgcn", dataset.num_nodes, dataset.adjacency,
            history=dataset.supervised.config.history,
            horizon=dataset.supervised.config.horizon,
            in_features=dataset.supervised.train.num_features, seed=0)

    def fit_traced():
        Engine(config).fit(make_model(), dataset, seed=0, bus=silent)

    def fit_untraced():
        with disable_spans():
            Engine(config).fit(make_model(), dataset, seed=0, bus=silent)

    reference, fast = interleaved_best(fit_untraced, fit_traced,
                                       sizes["repeats"])
    overhead_pct = (fast / reference - 1.0) * 100.0
    meta = {"overhead_pct": round(overhead_pct, 3),
            "model": "stgcn", "dataset": "pemsd8",
            "batches": sizes["max_batches"],
            "batch_size": sizes["batch_size"]}
    return reference, fast, meta


def _span_noop_vs_recorded(sizes: dict):
    n = sizes["spans"]
    recording = EventBus([MemorySink()])
    silent = EventBus()

    def spin(bus: EventBus):
        def step():
            for _ in range(n):
                with span("bench/spin", bus=bus):
                    pass
        return step

    reference = best_of(spin(recording), sizes["repeats"])
    fast = best_of(spin(silent), sizes["repeats"])
    meta = {"spans": n,
            "recorded_ns_per_span": round(reference / n * 1e9, 1),
            "noop_ns_per_span": round(fast / n * 1e9, 1)}
    return reference, fast, meta


CASES = {
    "traced_train_step": _traced_train_step,
    "span_noop_vs_recorded": _span_noop_vs_recorded,
}
