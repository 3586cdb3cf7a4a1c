"""Typed telemetry events and the bus that fans them out to sinks.

The experiment runner emits one event per interesting moment of a run —
:class:`RunStarted`, :class:`BatchEnd`, :class:`EpochEnd`,
:class:`EvalDone`, :class:`CheckpointSaved`, :class:`RunFinished`, and
:class:`ProfileSnapshot` for op-census regions — onto an
:class:`EventBus`.  Sinks subscribe to the bus and decide what to do with
the stream: :class:`ConsoleSink` prints human-readable lines (the old
``verbose=True`` output is exactly one console sink filtered to
``epoch_end``), :class:`JSONLSink` appends one JSON object per event to a
trace file, and :class:`MemorySink` records events for tests and
programmatic inspection.

Every event serialises to a flat JSON-safe dict via :func:`event_to_record`
(``{"event": <kind>, "t": <unix time>, ...fields}``) and parses back with
:func:`event_from_record`, so a JSONL trace round-trips losslessly.

A process-wide ambient bus (:func:`get_bus`, :func:`bus_scope`) lets
callers instrument code they do not own: ``train_model`` and friends fall
back to the ambient bus when no explicit ``bus=`` is passed, and emitting
on a bus with no sinks is a cheap no-op.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, TextIO

__all__ = [
    "Event", "RunStarted", "BatchEnd", "EpochEnd", "EvalDone",
    "CheckpointSaved", "RunFinished", "ProfileSnapshot", "BenchCase",
    "GradClip", "CacheHit", "CacheMiss", "DatasetBuild", "SpanEvent",
    "EVENT_KINDS", "event_to_record", "event_from_record", "upgrade_record",
    "EventBus", "ConsoleSink", "JSONLSink", "MemorySink",
    "get_bus", "bus_scope",
]


# --------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------- #
@dataclass
class Event:
    """Base telemetry event; ``kind`` identifies the concrete type and
    ``t`` is the unix wall-clock creation time."""

    kind: ClassVar[str] = "event"
    t: float = field(default_factory=time.time, kw_only=True)


@dataclass
class RunStarted(Event):
    """One ``run_experiment`` cell begins: identity + frozen config."""

    kind: ClassVar[str] = "run_started"
    model: str = ""
    dataset: str = ""
    seed: int = 0
    num_parameters: int = 0
    config: dict = field(default_factory=dict)


@dataclass
class BatchEnd(Event):
    """One optimisation step finished (loss is the batch training loss)."""

    kind: ClassVar[str] = "batch_end"
    epoch: int = 0
    batch: int = 0
    loss: float = 0.0


@dataclass
class EpochEnd(Event):
    """One training epoch finished, validation already scored."""

    kind: ClassVar[str] = "epoch_end"
    epoch: int = 0
    total_epochs: int = 0
    train_loss: float = 0.0
    val_mae: float = 0.0
    seconds: float = 0.0


@dataclass
class EvalDone(Event):
    """Held-out test evaluation finished.

    ``full`` and ``difficult`` map horizon minutes (as string keys, for
    JSON stability) to ``{"mae": .., "rmse": .., "mape": ..}`` dicts.
    """

    kind: ClassVar[str] = "eval_done"
    inference_seconds: float = 0.0
    num_parameters: int = 0
    full: dict = field(default_factory=dict)
    difficult: dict = field(default_factory=dict)


@dataclass
class CheckpointSaved(Event):
    """A model/optimizer checkpoint was written to disk."""

    kind: ClassVar[str] = "checkpoint_saved"
    path: str = ""
    num_arrays: int = 0


@dataclass
class RunFinished(Event):
    """One ``run_experiment`` cell completed end to end."""

    kind: ClassVar[str] = "run_finished"
    model: str = ""
    dataset: str = ""
    seed: int = 0
    wall_seconds: float = 0.0
    best_epoch: int = -1
    best_val_mae: float = float("nan")


@dataclass
class ProfileSnapshot(Event):
    """Op census of a profiled region (see :func:`repro.obs.profile_region`).

    ``top_ops`` maps op name to ``{"count": .., "elements": ..}`` for the
    heaviest ops in the region.
    """

    kind: ClassVar[str] = "profile"
    label: str = ""
    wall_seconds: float = 0.0
    total_nodes: int = 0
    total_elements: int = 0
    top_ops: dict = field(default_factory=dict)


@dataclass
class GradClip(Event):
    """Gradient clipping actually rescaled the gradients this step.

    Emitted by the training engine only when the pre-clip global norm
    exceeded ``max_norm`` (quiet steps emit nothing), so a trace shows
    exactly where training was running hot.
    """

    kind: ClassVar[str] = "grad_clip"
    epoch: int = 0
    batch: int = 0
    norm: float = 0.0
    max_norm: float = 0.0


@dataclass
class CacheHit(Event):
    """A ``load_dataset`` call was served from the dataset cache."""

    kind: ClassVar[str] = "cache_hit"
    name: str = ""
    scale: str = ""
    key: str = ""
    path: str = ""
    seconds: float = 0.0


@dataclass
class CacheMiss(Event):
    """A ``load_dataset`` call found no cache entry and must build."""

    kind: ClassVar[str] = "cache_miss"
    name: str = ""
    scale: str = ""
    key: str = ""


@dataclass
class DatasetBuild(Event):
    """A dataset world was built from scratch (simulator + windows)."""

    kind: ClassVar[str] = "dataset_build"
    name: str = ""
    scale: str = ""
    num_nodes: int = 0
    num_steps: int = 0
    seconds: float = 0.0
    cached: bool = False       # True when the build was written to the cache


@dataclass
class BenchCase(Event):
    """One ``repro bench`` case: reference vs. fast timings.

    Emitted by :func:`repro.bench.run` for every case of every suite;
    ``suite`` names the suite and ``meta`` carries the case's shapes and
    side measurements (batches/sec, peak memory, ``overhead_pct``, ...).
    """

    kind: ClassVar[str] = "bench_case"
    suite: str = ""
    name: str = ""
    mode: str = "quick"
    reference_seconds: float = 0.0
    fast_seconds: float = 0.0
    speedup: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass
class SpanEvent(Event):
    """One completed span from :func:`repro.obs.spans.span`.

    Emitted when the span closes, so a trace lists children before their
    parents (innermost-first).  ``parent_id`` is empty for roots,
    ``t_start`` is the unix wall-clock open time, ``seconds`` the
    monotonic-clock duration, and ``attrs`` whatever the caller attached
    (batch size, dataset name, ...).  ``status`` is ``"ok"`` or
    ``"error"`` (with ``error`` holding the exception summary).
    """

    kind: ClassVar[str] = "span"
    label: str = ""
    span_id: str = ""
    parent_id: str = ""
    t_start: float = 0.0
    seconds: float = 0.0
    status: str = "ok"
    error: str = ""
    depth: int = 0
    thread: int = 0
    attrs: dict = field(default_factory=dict)


EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (RunStarted, BatchEnd, EpochEnd, EvalDone, CheckpointSaved,
                RunFinished, ProfileSnapshot, BenchCase, GradClip, CacheHit,
                CacheMiss, DatasetBuild, SpanEvent)
}

#: Per-suite bench event kinds written before every suite shared
#: :class:`BenchCase`; old traces holding them still read, as bench cases.
_LEGACY_BENCH_KINDS = {"kernel_bench": "kernels", "optim_bench": "optim",
                      "data_bench": "data", "obs_bench": "obs"}


def upgrade_record(record: dict[str, Any]) -> dict[str, Any]:
    """Rewrite a record of a legacy event kind to its current form."""
    suite = _LEGACY_BENCH_KINDS.get(record.get("event"))
    if suite is None:
        return record
    return {**record, "event": BenchCase.kind, "suite": suite}


def event_to_record(event: Event) -> dict[str, Any]:
    """Serialise an event to a flat JSON-safe dict (``event`` key = kind)."""
    record: dict[str, Any] = {"event": event.kind}
    record.update(asdict(event))
    return record


def event_from_record(record: dict[str, Any]) -> Event:
    """Reconstruct the typed event serialised by :func:`event_to_record`."""
    record = upgrade_record(record)
    kind = record.get("event")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}; "
                         f"expected one of {sorted(EVENT_KINDS)}")
    known = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in record.items() if k in known}
    return cls(**kwargs)


# --------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------- #
class ConsoleSink:
    """Print human-readable lines for events.

    ``kinds`` restricts rendering to a subset of event kinds (``None`` =
    all).  The ``epoch_end`` line reproduces the historical
    ``verbose=True`` training output byte for byte.
    """

    def __init__(self, stream: TextIO | None = None,
                 kinds: Iterable[str] | None = None):
        self.stream = stream
        self.kinds = frozenset(kinds) if kinds is not None else None

    def format(self, event: Event) -> str:
        """One display line for ``event``."""
        if isinstance(event, EpochEnd):
            return (f"  epoch {event.epoch}/{event.total_epochs} "
                    f"loss={event.train_loss:.4f} val_mae={event.val_mae:.4f} "
                    f"({event.seconds:.1f}s)")
        if isinstance(event, RunStarted):
            return (f"[run] {event.model} on {event.dataset} "
                    f"seed={event.seed} params={event.num_parameters:,}")
        if isinstance(event, BatchEnd):
            return (f"    batch {event.batch} epoch {event.epoch} "
                    f"loss={event.loss:.4f}")
        if isinstance(event, EvalDone):
            mae_15 = event.full.get("15", {}).get("mae", float("nan"))
            return (f"[eval] inference={event.inference_seconds:.2f}s "
                    f"mae@15m={mae_15:.3f}")
        if isinstance(event, CheckpointSaved):
            return f"[checkpoint] {event.path} ({event.num_arrays} arrays)"
        if isinstance(event, RunFinished):
            return (f"[done] {event.model} on {event.dataset} "
                    f"seed={event.seed} best_val_mae={event.best_val_mae:.4f} "
                    f"({event.wall_seconds:.1f}s)")
        if isinstance(event, ProfileSnapshot):
            return (f"[profile] {event.label}: {event.total_nodes} nodes, "
                    f"{event.total_elements:,} elements "
                    f"({event.wall_seconds:.4f}s)")
        if isinstance(event, SpanEvent):
            mark = "" if event.status == "ok" else f" ERROR {event.error}"
            return (f"{'  ' * event.depth}[span] {event.label} "
                    f"({event.seconds * 1e3:.2f}ms){mark}")
        if isinstance(event, BenchCase):
            return (f"[bench] {event.name}: reference "
                    f"{event.reference_seconds * 1e3:.2f}ms -> "
                    f"{event.fast_seconds * 1e3:.2f}ms "
                    f"({event.speedup:.2f}x)")
        if isinstance(event, CacheHit):
            return (f"[cache] hit {event.name} (scale={event.scale}) "
                    f"key={event.key} ({event.seconds:.2f}s)")
        if isinstance(event, CacheMiss):
            return (f"[cache] miss {event.name} (scale={event.scale}) "
                    f"key={event.key}")
        if isinstance(event, DatasetBuild):
            return (f"[build] {event.name} (scale={event.scale}) "
                    f"{event.num_nodes} nodes x {event.num_steps} steps "
                    f"({event.seconds:.2f}s)"
                    + (" -> cached" if event.cached else ""))
        if isinstance(event, GradClip):
            return (f"    clip epoch {event.epoch} batch {event.batch} "
                    f"norm={event.norm:.3f} -> {event.max_norm:.3f}")
        return f"[{event.kind}]"

    def __call__(self, event: Event) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        # Resolve the stream at call time so pytest's capsys (which swaps
        # sys.stdout) sees the output.
        stream = self.stream if self.stream is not None else sys.stdout
        print(self.format(event), file=stream)


class JSONLSink:
    """Append one JSON object per event to ``path`` (the trace file).

    The file is opened lazily on the first event and flushed per line so a
    crashed run still leaves a readable prefix.  Use as a sink directly or
    as a context manager (closes the file on exit).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: TextIO | None = None

    def __call__(self, event: Event) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(event_to_record(event),
                                      sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemorySink:
    """Record events in memory (tests, notebooks, programmatic analysis)."""

    def __init__(self):
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[Event]:
        """Recorded events of one kind, in arrival order."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        self.events.clear()


# --------------------------------------------------------------------- #
# Bus
# --------------------------------------------------------------------- #
class EventBus:
    """Fans each emitted event out to every attached sink, in order.

    A sink is any callable taking one :class:`Event`.  Emitting on a bus
    with no sinks is a no-op, so instrumented code costs nothing when
    nobody is listening.  A sink that raises does not abort the emitting
    code or starve later sinks: the exception is caught, a
    :class:`RuntimeWarning` is issued once per sink, and delivery
    continues.
    """

    def __init__(self, sinks: Iterable[Callable[[Event], None]] = ()):
        self._sinks: list[Callable[[Event], None]] = list(sinks)
        self._warned: set[int] = set()

    @property
    def sinks(self) -> tuple[Callable[[Event], None], ...]:
        return tuple(self._sinks)

    @property
    def has_sinks(self) -> bool:
        """True when at least one sink is attached (spans check this to
        skip all bookkeeping on an unobserved bus)."""
        return bool(self._sinks)

    def attach(self, sink: Callable[[Event], None]) -> Callable[[Event], None]:
        """Subscribe ``sink``; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Callable[[Event], None]) -> None:
        """Unsubscribe ``sink`` (no error if absent)."""
        with contextlib.suppress(ValueError):
            self._sinks.remove(sink)

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every sink in attachment order.

        Sink failures are isolated: the first exception from each sink
        produces one :class:`RuntimeWarning`; later failures from the
        same sink are swallowed silently, and other sinks always still
        receive the event.
        """
        for sink in self._sinks:
            try:
                sink(event)
            except Exception as exc:
                if id(sink) not in self._warned:
                    self._warned.add(id(sink))
                    warnings.warn(
                        f"telemetry sink {sink!r} raised {exc!r} on a "
                        f"{event.kind!r} event; suppressing further errors "
                        f"from this sink", RuntimeWarning, stacklevel=2)

    @contextlib.contextmanager
    def scoped(self, *sinks: Callable[[Event], None]):
        """Attach ``sinks`` for the duration of a ``with`` block."""
        for sink in sinks:
            self.attach(sink)
        try:
            yield self
        finally:
            for sink in sinks:
                self.detach(sink)

    def close(self) -> None:
        """Close every sink that supports ``close()``."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if callable(closer):
                closer()


_AMBIENT: list[EventBus] = [EventBus()]


def get_bus() -> EventBus:
    """The current ambient bus (instrumented code's default target)."""
    return _AMBIENT[-1]


@contextlib.contextmanager
def bus_scope(bus: EventBus):
    """Make ``bus`` the ambient bus inside a ``with`` block.

    Lets callers trace code that takes no ``bus=`` argument::

        with bus_scope(EventBus([JSONLSink("trace.jsonl")])):
            run_experiment("stgcn", data, config)
    """
    _AMBIENT.append(bus)
    try:
        yield bus
    finally:
        _AMBIENT.pop()
