"""The unified training engine behind ``train_model`` and the harness.

:class:`Engine` owns the epoch/batch loop that every training entry point
(:func:`repro.core.train_model`, :func:`repro.core.run_experiment`,
rolling-origin cross-validation, hyper-parameter sweeps, the benchmark
matrix) routes through.  The loop itself is deliberately small: compute
the loss, backward, step — everything else (gradient clipping, LR
scheduling, telemetry, early stopping, checkpointing) is a
:class:`~repro.train.callbacks.Callback` hooked into well-defined points.

The engine trains on a flat parameter arena
(:meth:`repro.nn.Module.flatten_parameters`), so the default Adam
optimizer takes the fused single-array update path and gradient clipping
is one reduction over the flat gradient buffer.  Console and telemetry
output are byte-identical to the legacy ``train_model`` loop — the
parity is asserted by tests.

Baselines whose ``training_loss`` is not differentiable are detected with
a one-sample probe *before* the epoch loop, so skipping them leaves no
partial epoch state and no stale ``train()`` mode behind.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.experiment import TrainingConfig, TrainingHistory, predict
from ..core.metrics import mae
from ..datasets.loader import DataLoader
from ..nn.checkpoint import load_checkpoint
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..obs.events import ConsoleSink, EventBus, bus_scope, get_bus
from ..obs.spans import span
from .callbacks import Callback, default_callbacks

__all__ = ["Engine", "EngineState"]


@dataclass
class EngineState:
    """Mutable loop state shared with every callback during one fit."""

    model: object
    dataset: object
    config: TrainingConfig
    optimizer: object
    history: TrainingHistory
    bus: EventBus
    scheduler: object | None = None
    epoch: int = 0                  # 0-based index of the current epoch
    batch: int = 0                  # 0-based index of the current batch
    batch_loss: float = 0.0         # loss of the batch just stepped
    val_mae: float = field(default=float("inf"))
    grad_norm: float = 0.0          # pre-clip norm of the last batch
    start_epoch: int = 0            # first epoch index (>0 when resumed)
    stop: bool = False              # callbacks set this to end the fit


def _default_optimizer(model, config: TrainingConfig):
    """Adam over the model's flat parameter arena (fused update path)."""
    return Adam(model.flatten_parameters(), lr=config.learning_rate,
                weight_decay=config.weight_decay)


class Engine:
    """Callback-driven training loop over a model + dataset.

    Parameters
    ----------
    config:
        Shared :class:`~repro.core.TrainingConfig`; ``None`` means
        defaults.
    callbacks:
        Callback stack for every fit; ``None`` builds
        :func:`~repro.train.callbacks.default_callbacks` (clipping,
        LR schedule, telemetry, early stopping) per fit, which reproduces
        legacy ``train_model`` behaviour exactly.
    optimizer_factory:
        ``(model, config) -> Optimizer`` override; the default flattens
        the model's parameters into an arena and builds a fused Adam.
    """

    def __init__(self, config: TrainingConfig | None = None,
                 callbacks: list[Callback] | None = None,
                 optimizer_factory=None):
        self.config = config or TrainingConfig()
        self.callbacks = callbacks
        self.optimizer_factory = optimizer_factory or _default_optimizer

    # ------------------------------------------------------------------ #
    def fit(self, model, dataset, seed: int = 0,
            bus: EventBus | None = None,
            resume_from=None) -> TrainingHistory:
        """Train ``model`` in place; returns the training history.

        Telemetry goes to ``bus`` or the ambient bus;
        ``config.verbose=True`` attaches a console sink limited to epoch
        lines for the duration.  ``resume_from`` restores a checkpoint
        written by :class:`~repro.train.callbacks.CheckpointCallback`
        (model, optimizer, and scheduler position) and continues from the
        recorded epoch.
        """
        config = self.config
        bus = bus if bus is not None else get_bus()
        history = TrainingHistory()
        if not model.parameters():
            return history                  # parameter-free baseline
        if not self._trainable(model, dataset):
            return history                  # constant training_loss

        optimizer = self.optimizer_factory(model, config)
        callbacks = (list(self.callbacks) if self.callbacks is not None
                     else default_callbacks(config))
        state = EngineState(model=model, dataset=dataset, config=config,
                            optimizer=optimizer, history=history, bus=bus)
        self._dispatch(callbacks, "on_fit_start", state)
        if resume_from is not None:
            self._resume(state, resume_from)

        if (config.max_batches_per_epoch is not None
                and config.max_batches_per_epoch <= 0):
            raise ValueError(
                f"max_batches_per_epoch must be >= 1 (got "
                f"{config.max_batches_per_epoch}); every epoch needs at "
                "least one optimisation step")
        # The target transform is hoisted out of the epoch loop: the loader
        # yields targets already in scaled units (a lazy split gathers them
        # from the pre-scaled series, an eager split transforms its target
        # array once) — targets are static across epochs.
        loader = DataLoader(dataset.supervised.train,
                            batch_size=config.batch_size,
                            shuffle=True, seed=seed,
                            target_scaler=dataset.supervised.scaler)

        with contextlib.ExitStack() as stack:
            # Nested instrumentation (loader gathers, kernel spans,
            # validation predicts, checkpoint announcements) reaches the
            # fit's bus even though those layers take no bus argument.
            stack.enter_context(bus_scope(bus))
            if config.verbose:
                stack.enter_context(
                    bus.scoped(ConsoleSink(kinds=("epoch_end",))))
            stack.enter_context(span(
                "train/fit", bus=bus, model=type(model).__name__,
                epochs=config.epochs, batch_size=config.batch_size))
            for epoch in range(state.start_epoch, config.epochs):
                state.epoch = epoch
                with span("train/epoch", bus=bus, epoch=epoch + 1):
                    model.train()
                    self._dispatch(callbacks, "on_epoch_start", state)
                    epoch_losses = []
                    start = time.perf_counter()
                    for batch_index, (x, y_scaled, _) in enumerate(loader):
                        if (config.max_batches_per_epoch is not None
                                and batch_index
                                >= config.max_batches_per_epoch):
                            break
                        state.batch = batch_index
                        with span("train/batch", bus=bus,
                                  batch=batch_index + 1, size=len(x)):
                            with span("train/forward", bus=bus):
                                loss = model.training_loss(Tensor(x),
                                                           Tensor(y_scaled))
                            optimizer.zero_grad()
                            # Each batch builds a fresh tape, so release
                            # this one eagerly — cuts peak RSS on the deep
                            # recurrent models.
                            with span("train/backward", bus=bus):
                                loss.backward(free_graph=True)
                            self._dispatch(callbacks, "on_after_backward",
                                           state)
                            with span("train/optim", bus=bus):
                                optimizer.step()
                        state.batch_loss = loss.item()
                        epoch_losses.append(state.batch_loss)
                        self._dispatch(callbacks, "on_batch_end", state)
                    if not epoch_losses:
                        raise RuntimeError(
                            f"epoch {epoch} produced no training batches "
                            f"({dataset.supervised.train.num_samples} "
                            f"samples, batch_size={config.batch_size}); the "
                            "mean train loss would be NaN — use a larger "
                            "split or a smaller batch size")
                    history.epoch_seconds.append(time.perf_counter() - start)
                    history.train_losses.append(float(np.mean(epoch_losses)))
                    self._dispatch(callbacks, "on_epoch_train_end", state)

                    with span("train/validate", bus=bus, epoch=epoch + 1):
                        val_prediction, _ = predict(
                            model, dataset.supervised.val,
                            dataset.supervised.scaler,
                            config.eval_batch_size)
                    state.val_mae = mae(val_prediction,
                                        dataset.supervised.val.y)
                    history.val_maes.append(state.val_mae)
                    self._dispatch(callbacks, "on_epoch_end", state)
                if state.stop:
                    break

        self._dispatch(callbacks, "on_fit_end", state)
        return history

    # ------------------------------------------------------------------ #
    @staticmethod
    def _dispatch(callbacks, hook: str, state: EngineState) -> None:
        for callback in callbacks:
            getattr(callback, hook)(state)

    @staticmethod
    def _trainable(model, dataset) -> bool:
        """One-sample probe: is ``training_loss`` differentiable?

        Runs before the epoch loop (and before any mode flip), so
        untrainable baselines are skipped without leaving a half-finished
        epoch or a stale ``train()`` mode behind.
        """
        split = dataset.supervised.train
        if split.num_samples == 0:
            return True
        x, y_scaled, _ = split.batch(
            np.arange(1), target_scaler=dataset.supervised.scaler)
        return bool(model.training_loss(Tensor(x),
                                        Tensor(y_scaled)).requires_grad)

    @staticmethod
    def _resume(state: EngineState, path) -> None:
        """Restore model/optimizer/scheduler from a checkpoint."""
        metadata = load_checkpoint(path, state.model, state.optimizer)
        state.start_epoch = int(metadata.get("epoch", 0))
        scheduler_epoch = metadata.get("scheduler_epoch")
        if state.scheduler is not None and scheduler_epoch is not None:
            # The checkpoint's optimizer lr already reflects the schedule;
            # realign the scheduler's counter so the next step() continues
            # the decay from the restored position instead of restarting.
            state.scheduler.epoch = int(scheduler_epoch)
