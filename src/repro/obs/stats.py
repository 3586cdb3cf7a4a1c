"""A metrics registry: named counters, gauges, and fixed-bucket histograms.

Where :mod:`repro.obs.spans` answers "what happened, in order, and how
long did each piece take", the registry answers the aggregate questions
— how many batches ran, what the batch-latency distribution looks like,
what fraction of dataset loads the cache served, how often gradient
clipping fired.  Instrumented code grabs an instrument once and updates
it with plain arithmetic (no locks on the hot path beyond CPython's own
atomicity), and sinks or tests take a point-in-time :meth:`snapshot`,
optionally publishing it to the event bus as a ``metrics`` event.

The stack's built-in instruments:

- ``train/batches`` (counter) and ``train/batch_seconds`` (histogram)
  from :class:`repro.train.Engine`;
- ``train/grad_clip_steps`` / ``train/grad_clip_checks`` (counters) from
  :class:`repro.train.GradClipCallback` — their ratio is the clip rate;
- ``data/batches`` (counter) and ``data/gather_seconds`` (histogram)
  from the :class:`repro.datasets.DataLoader` gather path;
- ``data/cache_hits`` / ``data/cache_misses`` (counters) from
  :func:`repro.datasets.load_dataset` — see :meth:`MetricsRegistry.ratio`.

There is one ambient registry (:func:`get_registry`);
:func:`registry_scope` swaps in a fresh one for a ``with`` block so tests
and benchmark runs observe only their own activity.

:func:`profile_region` publishes the op census of a region (from
:mod:`repro.nn.profiler`) as a :class:`~repro.obs.ProfileSnapshot` event,
with per-op node/element breakdowns.
"""

from __future__ import annotations

import bisect
import contextlib
from typing import Any, Iterable, Sequence

from ..nn.profiler import ProfileReport, profile
from .events import EventBus, MetricsSnapshot, ProfileSnapshot, get_bus

__all__ = [
    "StatCounter", "Gauge", "Histogram", "MetricsRegistry",
    "LATENCY_BUCKETS", "get_registry", "registry_scope",
    "profile_region", "snapshot_from_report",
]

#: Default histogram buckets for sub-second latencies (upper bounds, s).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class StatCounter:
    """A named monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be ≥ 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        self.value += amount


class Gauge:
    """A named value that can move in both directions (e.g. resident MB)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (either sign)."""
        self.value += float(delta)


class Histogram:
    """Fixed-bucket histogram of observations (cumulative-style buckets).

    ``buckets`` are upper bounds in ascending order; an implicit
    +inf bucket catches the rest.  ``counts[i]`` is the number of
    observations ≤ ``buckets[i]`` exclusive of earlier buckets (i.e.
    per-bucket, not cumulative); ``count``/``total`` track the stream.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "_min", "_max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs ascending buckets, "
                             f"got {buckets!r}")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)   # +1 = +inf bucket
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile as a bucket upper bound.

        Returns NaN when empty; observations past the last bucket report
        the recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return float("nan")
        rank = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= rank and c:
                return self.buckets[i] if i < len(self.buckets) else self._max
        return self._max


class MetricsRegistry:
    """Create-or-fetch registry of named instruments.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    for a name or create it — so call sites need no global wiring, and
    two modules touching ``data/cache_hits`` share one count.
    """

    def __init__(self):
        self._counters: dict[str, StatCounter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> StatCounter:
        """The counter called ``name``, created on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = StatCounter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use.

        ``buckets`` only applies on creation; a later fetch with
        different buckets raises to catch silent mismatches.
        """
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, buckets)
        elif inst.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"histogram {name!r} already exists with "
                             f"different buckets")
        return inst

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / (numerator + denominator)`` over two counters.

        The cache-hit-ratio / clip-rate helper:
        ``ratio("data/cache_hits", "data/cache_misses")``.  NaN when both
        counts are zero.
        """
        a = self.counter(numerator).value
        b = self.counter(denominator).value
        return a / (a + b) if (a + b) else float("nan")

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time JSON-safe dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {"buckets": list(h.buckets), "counts": list(h.counts),
                    "count": h.count, "sum": h.total}
                for n, h in sorted(self._histograms.items())},
        }

    def publish(self, label: str = "",
                bus: EventBus | None = None) -> MetricsSnapshot:
        """Emit the current snapshot as a ``metrics`` event; returns it."""
        snap = self.snapshot()
        event = MetricsSnapshot(label=label, counters=snap["counters"],
                                gauges=snap["gauges"],
                                histograms=snap["histograms"])
        (bus if bus is not None else get_bus()).emit(event)
        return event

    def reset(self) -> None:
        """Drop every instrument (tests/benchmark isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_AMBIENT: list[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The current ambient registry (instrumented code's default)."""
    return _AMBIENT[-1]


@contextlib.contextmanager
def registry_scope(registry: MetricsRegistry | None = None):
    """Swap in ``registry`` (fresh one by default) for a ``with`` block."""
    _AMBIENT.append(registry if registry is not None else MetricsRegistry())
    try:
        yield _AMBIENT[-1]
    finally:
        _AMBIENT.pop()


def snapshot_from_report(label: str, report: ProfileReport,
                         top: int = 8) -> ProfileSnapshot:
    """Convert an op-census :class:`ProfileReport` into a bus event."""
    top_ops = {name: {"count": stats.count, "elements": stats.elements}
               for name, stats in report.top(top)}
    return ProfileSnapshot(label=label, wall_seconds=report.wall_seconds,
                           total_nodes=report.total_nodes,
                           total_elements=report.total_elements,
                           top_ops=top_ops)


@contextlib.contextmanager
def profile_region(label: str, bus: EventBus | None = None, top: int = 8):
    """Op-census a region and emit the result as a :class:`ProfileSnapshot`.

    Yields the live :class:`~repro.nn.profiler.ProfileReport`; on exit the
    aggregated census is published to ``bus`` (ambient bus by default)::

        with profile_region("forward+backward"):
            loss = model.training_loss(x, y)
            loss.backward()
    """
    bus = bus or get_bus()
    with profile() as report:
        yield report
    bus.emit(snapshot_from_report(label, report, top=top))
