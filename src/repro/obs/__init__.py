"""`repro.obs` — experiment telemetry: events, sinks, manifests, traces.

The observability layer for the whole stack (see ``docs/observability.md``):

- :mod:`repro.obs.events` — typed events (:class:`RunStarted`,
  :class:`EpochEnd`, :class:`BatchEnd`, :class:`EvalDone`,
  :class:`CheckpointSaved`, :class:`RunFinished`, :class:`ProfileSnapshot`)
  on an :class:`EventBus` with pluggable sinks (console, JSONL file,
  in-memory recorder).
- :mod:`repro.obs.manifest` — the ``run.json`` writer: config, seed,
  parameter count, wall time, peak RSS, library versions.
- :mod:`repro.obs.trace` — JSONL trace parsing, schema validation, and
  ``repro trace summarize``-style reports.
- :mod:`repro.obs.spans` — nested, thread-correct span tracing
  (:func:`span`, :class:`SpanTree`, :func:`span_report`) over the bus.
- :mod:`repro.obs.stats` — :func:`profile_region`, which publishes
  op-census breakdowns from :mod:`repro.nn.profiler`.  Aggregates (batch
  counts and latencies, cache hit ratio, clip rate) come from the trace
  itself: :meth:`SpanTree.aggregate` and the ``cache_*``/``grad_clip``
  events.
- :mod:`repro.obs.export` — Chrome-tracing/Perfetto timeline export.
- :mod:`repro.obs.gate` — the ``repro bench check`` perf-regression gate
  over the committed ``BENCH_*.json`` baselines.

Quickstart::

    from repro.obs import EventBus, JSONLSink
    bus = EventBus([JSONLSink("trace.jsonl")])
    run_experiment("graph-wavenet", data, config, seed=0,
                   bus=bus, manifest_path="run.json")
    bus.close()
"""

from .events import (EVENT_KINDS, BatchEnd, BenchCase, CacheHit, CacheMiss,
                     CheckpointSaved, ConsoleSink, DatasetBuild, EpochEnd,
                     EvalDone, Event, EventBus, GradClip, JSONLSink,
                     MemorySink, ProfileSnapshot, RunFinished, RunStarted,
                     SpanEvent, bus_scope, event_from_record,
                     event_to_record, get_bus)
from .export import chrome_trace, write_chrome_trace
from .gate import (GateFinding, GateReport, check_records, find_baselines,
                   load_bench_record, run_and_check)
from .manifest import (RunManifest, build_manifest, normalize_ru_maxrss,
                       peak_rss_kb, read_manifest, write_manifest)
from .spans import (Span, SpanNode, SpanTree, current_span, disable_spans,
                    span, span_report, spans_enabled)
from .stats import profile_region, snapshot_from_report
from .trace import read_trace, summarize_trace, validate_record, validate_trace

__all__ = [
    "Event", "RunStarted", "BatchEnd", "EpochEnd", "EvalDone",
    "CheckpointSaved", "RunFinished", "ProfileSnapshot", "BenchCase",
    "GradClip", "CacheHit", "CacheMiss", "DatasetBuild", "SpanEvent",
    "EVENT_KINDS",
    "event_to_record", "event_from_record",
    "EventBus", "ConsoleSink", "JSONLSink", "MemorySink",
    "get_bus", "bus_scope",
    "RunManifest", "build_manifest", "write_manifest", "read_manifest",
    "peak_rss_kb", "normalize_ru_maxrss",
    "profile_region", "snapshot_from_report",
    "read_trace", "validate_record", "validate_trace", "summarize_trace",
    "Span", "span", "current_span", "spans_enabled", "disable_spans",
    "SpanNode", "SpanTree", "span_report",
    "chrome_trace", "write_chrome_trace",
    "GateFinding", "GateReport", "load_bench_record", "find_baselines",
    "check_records", "run_and_check",
]
