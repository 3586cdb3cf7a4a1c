"""Op-census snapshots of a profiled region, published on the event bus.

:func:`profile_region` publishes the op census of a region (from
:mod:`repro.nn.profiler`) as a :class:`~repro.obs.ProfileSnapshot` event,
with per-op node/element breakdowns.

Aggregate questions — how many batches ran and how long they took, what
fraction of dataset loads the cache served, how often gradient clipping
fired — are answered from the trace itself: :meth:`SpanTree.aggregate
<repro.obs.spans.SpanTree.aggregate>` over the ``train/batch`` and
``data/gather`` spans, and the ``cache_hit``/``cache_miss``/``grad_clip``
events.
"""

from __future__ import annotations

import contextlib

from ..nn.profiler import ProfileReport, profile
from .events import EventBus, ProfileSnapshot, get_bus

__all__ = ["profile_region", "snapshot_from_report"]


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
