"""Trace export to external timeline viewers.

Converts a recorded event stream into the Chrome Tracing JSON format —
loadable in Perfetto (https://ui.perfetto.dev), ``chrome://tracing``, or
anything else that speaks the Trace Event spec.  Spans become ``"X"``
(complete) events with microsecond ``ts``/``dur``; every other telemetry
event (epoch ends, cache hits, checkpoints, ...) becomes an ``"i"``
(instant) marker so the training curve and the cache behaviour line up
on the same timeline as the span hierarchy.

The CLI wrapper is ``repro trace export <trace.jsonl> --format chrome``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from ..artifacts import write_json
from .events import Event, SpanEvent, event_to_record

__all__ = ["chrome_trace", "write_chrome_trace"]

_PID = 1          # single-process tool: one constant pid


def _category(label: str) -> str:
    """Trace-viewer category = the taxonomy's top segment (``train/...``)."""
    return label.split("/", 1)[0] if "/" in label else label


def chrome_trace(events: Iterable[Event]) -> dict[str, Any]:
    """Build a Chrome-tracing JSON object from typed events.

    Spans map to complete (``"X"``) slices — ``ts`` is the wall-clock
    open time and ``dur`` the monotonic duration, both in microseconds,
    with status/attrs under ``args``.  Other events map to instant
    (``"i"``) markers at their creation time.  Thread idents are
    renumbered to small ``tid`` values with ``"M"`` metadata naming them.
    """
    trace_events: list[dict[str, Any]] = []
    tids: dict[int, int] = {}

    def tid_for(ident: int) -> int:
        tid = tids.get(ident)
        if tid is None:
            tid = tids[ident] = len(tids) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
                "args": {"name": f"thread-{tid}" if tid > 1 else "main"},
            })
        return tid

    for event in events:
        if isinstance(event, SpanEvent):
            args: dict[str, Any] = {"span_id": event.span_id,
                                    "status": event.status}
            if event.error:
                args["error"] = event.error
            args.update(event.attrs)
            trace_events.append({
                "name": event.label, "cat": _category(event.label),
                "ph": "X", "ts": event.t_start * 1e6,
                "dur": event.seconds * 1e6,
                "pid": _PID, "tid": tid_for(event.thread), "args": args,
            })
        else:
            record = event_to_record(event)
            record.pop("event", None)
            record.pop("t", None)
            trace_events.append({
                "name": event.kind, "cat": "event", "ph": "i", "s": "g",
                "ts": event.t * 1e6, "pid": _PID, "tid": tid_for(0),
                "args": record,
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export"},
    }


def write_chrome_trace(source: str | Path | Iterable[Event],
                       path: str | Path) -> dict[str, Any]:
    """Export ``source`` (JSONL trace path or events) to ``path``.

    Unknown event kinds in a trace file are skipped (forward
    compatibility).  Returns the JSON object that was written.
    """
    if isinstance(source, (str, Path)):
        from .trace import read_trace     # lazy: keeps import graph flat
        events: Iterable[Event] = read_trace(source)
    else:
        events = source
    payload = chrome_trace(events)
    write_json(path, payload)
    return payload
