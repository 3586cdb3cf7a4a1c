"""Callbacks for the training :class:`~repro.train.engine.Engine`.

Everything that used to be inlined in ``train_model`` — gradient clipping,
LR scheduling, telemetry emission, early stopping with best-state restore
— is a small callback object hooked into the engine's epoch/batch loop.
The default stack (:func:`default_callbacks`) reproduces the legacy
``train_model`` behaviour exactly, event for event; extra callbacks (e.g.
:class:`CheckpointCallback`) compose on top without touching the loop.

Hook order within one epoch::

    on_fit_start
      on_epoch_start
        on_after_backward        # per batch, between backward() and step()
        on_batch_end             # per batch, after step()
      on_epoch_train_end         # after the batch loop, before validation
      on_epoch_end               # after validation MAE is known
    on_fit_end

Callbacks run in list order at every hook; the default stack keeps
telemetry ahead of early stopping so the ``epoch_end`` event is published
before any stop decision, matching the legacy loop.
"""

from __future__ import annotations

import typing

from ..nn.checkpoint import save_checkpoint
from ..nn.optim import (CosineAnnealingLR, ExponentialLR, StepLR,
                        clip_grad_norm)
from ..obs.events import BatchEnd, EpochEnd, GradClip, bus_scope

if typing.TYPE_CHECKING:                                 # pragma: no cover
    from .engine import EngineState

__all__ = ["Callback", "GradClipCallback", "LRScheduleCallback",
           "TelemetryCallback", "EarlyStoppingCallback",
           "CheckpointCallback", "default_callbacks"]


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    def on_fit_start(self, state: "EngineState") -> None: ...

    def on_epoch_start(self, state: "EngineState") -> None: ...

    def on_after_backward(self, state: "EngineState") -> None: ...

    def on_batch_end(self, state: "EngineState") -> None: ...

    def on_epoch_train_end(self, state: "EngineState") -> None: ...

    def on_epoch_end(self, state: "EngineState") -> None: ...

    def on_fit_end(self, state: "EngineState") -> None: ...


class GradClipCallback(Callback):
    """Global-L2 gradient clipping after every backward pass.

    Emits a ``grad_clip`` telemetry event only when clipping actually
    rescaled the gradients (pre-clip norm exceeded ``max_norm``); batches
    whose gradients were already inside the ball stay silent.
    ``max_norm`` of ``None`` or ``0`` turns clipping off; a negative value
    is rejected, since clipping to it would flip the gradient's sign.
    """

    def __init__(self, max_norm: float | None):
        if max_norm is not None and max_norm < 0:
            raise ValueError(f"grad_clip max_norm must be >= 0 (0 or None "
                             f"disables clipping), got {max_norm}")
        self.max_norm = max_norm

    def on_after_backward(self, state: "EngineState") -> None:
        if not self.max_norm:
            return
        target = (state.optimizer.arena if state.optimizer.arena is not None
                  else state.optimizer.parameters)
        norm = clip_grad_norm(target, self.max_norm)
        state.grad_norm = norm
        if norm > self.max_norm:
            state.bus.emit(GradClip(epoch=state.epoch + 1,
                                    batch=state.batch + 1,
                                    norm=norm, max_norm=self.max_norm))


class LRScheduleCallback(Callback):
    """Optional per-epoch LR decay (``step``/``exponential``/``cosine``).

    The scheduler is built at fit start (so ``base_lr`` is the optimizer's
    initial rate) and stepped after each epoch's batch loop, before
    validation — the same point the legacy loop stepped it.
    """

    def __init__(self, schedule: str | None):
        self.schedule = schedule

    def on_fit_start(self, state: "EngineState") -> None:
        state.scheduler = self._build(state)

    def on_epoch_train_end(self, state: "EngineState") -> None:
        if state.scheduler is not None:
            state.scheduler.step()

    def _build(self, state: "EngineState"):
        config = state.config
        if self.schedule is None:
            return None
        if self.schedule == "step":
            return StepLR(state.optimizer,
                          step_size=max(1, config.epochs // 3), gamma=0.3)
        if self.schedule == "exponential":
            return ExponentialLR(state.optimizer, gamma=0.9)
        if self.schedule == "cosine":
            return CosineAnnealingLR(state.optimizer,
                                     t_max=max(1, config.epochs))
        raise ValueError(f"unknown lr_schedule {self.schedule!r}; "
                         "choose step, exponential, or cosine")


class TelemetryCallback(Callback):
    """Publish ``batch_end`` / ``epoch_end`` events to the engine's bus."""

    def on_batch_end(self, state: "EngineState") -> None:
        state.bus.emit(BatchEnd(epoch=state.epoch + 1,
                                batch=state.batch + 1,
                                loss=state.batch_loss))

    def on_epoch_end(self, state: "EngineState") -> None:
        state.bus.emit(EpochEnd(epoch=state.epoch + 1,
                                total_epochs=state.config.epochs,
                                train_loss=state.history.train_losses[-1],
                                val_mae=state.val_mae,
                                seconds=state.history.epoch_seconds[-1]))


class EarlyStoppingCallback(Callback):
    """Track the best validation MAE; stop after ``patience`` bad epochs.

    Snapshots the model state dict at every improvement and restores the
    best snapshot at fit end (weights only — the optimizer's learning rate
    and scheduler position are deliberately left where training ended, so
    a restore never resurrects a pre-schedule LR).  ``patience=None``
    disables stopping but keeps best-state tracking/restore, exactly like
    the legacy loop.
    """

    def __init__(self, patience: int | None):
        self.patience = patience
        self.best_val = float("inf")
        self.best_state = None
        self.bad_epochs = 0

    def on_fit_start(self, state: "EngineState") -> None:
        self.best_val = float("inf")
        self.best_state = None
        self.bad_epochs = 0

    def on_epoch_end(self, state: "EngineState") -> None:
        if state.val_mae < self.best_val:
            self.best_val = state.val_mae
            self.best_state = state.model.state_dict()
            state.history.best_epoch = state.epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.patience is not None and self.bad_epochs > self.patience:
                state.stop = True

    def on_fit_end(self, state: "EngineState") -> None:
        if self.best_state is not None:
            state.model.load_state_dict(self.best_state)


class CheckpointCallback(Callback):
    """Write a training checkpoint every ``every`` epochs.

    The checkpoint bundles model + optimizer state (see
    :mod:`repro.nn.checkpoint`) and metadata recording the completed epoch
    count, the scheduler position, and the epoch's validation MAE — enough
    for ``Engine.fit(..., resume_from=path)`` to continue the run with the
    LR schedule picking up from the restored step count.
    """

    def __init__(self, path, every: int = 1, save_optimizer: bool = True):
        self.path = path
        self.every = max(1, int(every))
        self.save_optimizer = save_optimizer

    def on_epoch_end(self, state: "EngineState") -> None:
        if (state.epoch + 1) % self.every:
            return
        metadata = {"epoch": state.epoch + 1, "val_mae": state.val_mae}
        if state.scheduler is not None:
            metadata["scheduler_epoch"] = state.scheduler.epoch
        optimizer = state.optimizer if self.save_optimizer else None
        with bus_scope(state.bus):
            save_checkpoint(self.path, state.model, optimizer, metadata)


def default_callbacks(config) -> list[Callback]:
    """The stack reproducing legacy ``train_model`` behaviour verbatim."""
    return [
        GradClipCallback(config.grad_clip),
        LRScheduleCallback(config.lr_schedule),
        TelemetryCallback(),
        EarlyStoppingCallback(config.patience),
    ]
