"""Per-layer instrumentation, attached from outside the program.

Nothing in ``src/`` is changed to trace it.  Spans are opened and closed
around calls into each layer's public surface:

* instance wrappers on ``SupervisedSplit.batch`` (gather),
  ``TrafficModel.training_loss`` (forward) and ``TrafficModel.forward``
  under ``no_grad`` (inference batches), and on the optimizer's ``step``
  through an ``Engine`` ``optimizer_factory``;
* the ``Engine`` callback hooks, which bound each batch, the backward
  pass (``training_loss`` returns → ``on_after_backward``), the optimizer
  phase (→ ``on_batch_end``) and validation;
* ``with`` blocks in the harness around ``load_dataset``,
  ``create_model``, ``predict``, ``evaluate_horizons`` and the
  difficult-interval masks.

Spans are kept in memory and written once, at the end, as ``span`` events
in the JSONL format ``python -m repro trace spans`` reads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.nn import is_grad_enabled
from repro.obs.events import SpanEvent, event_to_record
from repro.train.callbacks import Callback

now = time.perf_counter


class Recorder:
    """In-memory span stack.  ``spans`` holds closed spans as
    ``(label, span_id, parent_id, depth, t0, t1, attrs)`` tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._wall_offset = time.time() - now()
        self.in_fit = False

    def open(self, label: str, t: float | None = None, **attrs) -> None:
        parent = self._stack[-1][1] if self._stack else ""
        self._stack.append([label, f"{next(self._ids):x}", parent,
                            len(self._stack), now() if t is None else t,
                            attrs])

    def close(self, t: float | None = None, label: str | None = None) -> None:
        name, span_id, parent, depth, t0, attrs = self._stack.pop()
        self.spans.append((label or name, span_id, parent, depth, t0,
                           now() if t is None else t, attrs))

    @property
    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int) -> None:
        """Close the spans a raised exception left open above ``depth``."""
        while len(self._stack) > depth:
            self.close()

    @contextlib.contextmanager
    def span(self, label: str, **attrs):
        self.open(label, **attrs)
        try:
            yield
        finally:
            self.close()

    def durations(self, label: str, **match) -> list[float]:
        """Durations in seconds of the closed spans named ``label`` whose
        attributes include ``match``."""
        return [t1 - t0 for name, _, _, _, t0, t1, attrs in self.spans
                if name == label
                and all(attrs.get(k) == v for k, v in match.items())]

    def events(self) -> list[SpanEvent]:
        """The closed spans as the program's own ``span`` events."""
        return [SpanEvent(label=label, span_id=span_id, parent_id=parent,
                          t_start=self._wall_offset + t0, seconds=t1 - t0,
                          depth=depth, attrs=attrs)
                for label, span_id, parent, depth, t0, t1, attrs
                in self.spans]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event_to_record(event)) + "\n")


class NullRecorder:
    """The untraced stand-in: every hook is a no-op."""

    depth = 0

    def span(self, label: str, **attrs):
        return contextlib.nullcontext()

    def unwind(self, depth: int) -> None:
        pass


NULL_RECORDER = NullRecorder()


def wrap_gather(split, rec: Recorder, name: str) -> None:
    original = split.batch

    @functools.wraps(original)
    def batch(*args, **kwargs):
        with rec.span("data/gather", split=name):
            return original(*args, **kwargs)

    split.batch = batch


def wrap_training_loss(model, rec: Recorder) -> None:
    """Time the forward pass and open the backward span as it returns.

    Only calls inside ``Engine.fit``'s epochs are recorded, which leaves
    out the engine's one-sample trainability probe.
    """
    original = model.training_loss

    @functools.wraps(original)
    def training_loss(*args, **kwargs):
        if not rec.in_fit:
            return original(*args, **kwargs)
        rec.open("models/forward")
        loss = original(*args, **kwargs)
        t = now()
        rec.close(t)
        rec.open("nn/backward", t)
        return loss

    model.training_loss = training_loss


def wrap_optimizer_factory(factory, rec: Recorder):
    def build(model, config):
        optimizer = factory(model, config)
        step = optimizer.step

        def traced_step():
            with rec.span("nn/optimizer_step"):
                step()

        optimizer.step = traced_step
        return optimizer

    return build


class OutputCheck:
    """Instance wrapper on ``model.forward`` for inference batches (calls
    under ``no_grad``): records each output's shape and finiteness and the
    call's wall time, inside a span when tracing.  Training forwards pass
    straight through."""

    def __init__(self, model, rec: Recorder | NullRecorder):
        self.outputs: list[tuple[tuple[int, ...], bool]] = []
        self.seconds: list[float] = []
        original = model.forward

        @functools.wraps(original)
        def forward(*args, **kwargs):
            if is_grad_enabled():
                return original(*args, **kwargs)
            with rec.span("models/infer_batch"):
                start = now()
                out = original(*args, **kwargs)
                self.seconds.append(now() - start)
            self.outputs.append((out.data.shape,
                                 bool(np.isfinite(out.data).all())))
            return out

        model.forward = forward

    def take_seconds(self) -> list[float]:
        """The batch times recorded so far; starts a fresh record."""
        seconds, self.seconds = self.seconds, []
        self.outputs = []
        return seconds


class StepClock(Callback):
    """Per-batch wall time, from the previous ``on_batch_end`` (or the
    epoch start) to this one: gather, forward, backward, clip and the
    optimizer step.  Also counts non-finite losses."""

    def __init__(self):
        self.steps: list[float] = []
        self.epoch_batches: list[int] = []
        self.bad_losses = 0
        self._mark = 0.0

    def on_epoch_start(self, state) -> None:
        self.epoch_batches.append(0)
        self._mark = now()

    def on_batch_end(self, state) -> None:
        t = now()
        self.steps.append(t - self._mark)
        self._mark = t
        self.epoch_batches[-1] += 1
        if not math.isfinite(state.batch_loss):
            self.bad_losses += 1


class TracedClock(StepClock):
    """:class:`StepClock` that also records the batch, backward, optimizer
    and validation spans.  Must be first in the callback list, so that
    gradient clipping falls in the optimizer phase."""

    def __init__(self, rec: Recorder):
        super().__init__()
        self.rec = rec

    def on_fit_start(self, state) -> None:
        self.rec.in_fit = True

    def on_epoch_start(self, state) -> None:
        super().on_epoch_start(state)
        self.rec.open("train/batch", self._mark)

    def on_after_backward(self, state) -> None:
        t = now()
        self.rec.close(t)                                  # nn/backward
        self.rec.open("nn/optim", t)

    def on_batch_end(self, state) -> None:
        super().on_batch_end(state)
        t = self._mark
        self.rec.close(t)                                  # nn/optim
        self.rec.close(t)                                  # train/batch
        self.rec.open("train/batch", t)

    def on_epoch_train_end(self, state) -> None:
        # The open batch span covers only the loader's exit (and, with
        # max_batches_per_epoch, the one gather made before the break).
        self.rec.close(label="train/epoch_tail")
        self.rec.open("train/validate")

    def on_epoch_end(self, state) -> None:
        self.rec.close()

    def on_fit_end(self, state) -> None:
        self.rec.in_fit = False
