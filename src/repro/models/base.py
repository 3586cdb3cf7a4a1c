"""Common interface and registry for the eight benchmark models.

Every model consumes a window ``x`` of shape ``(batch, history, nodes,
features)`` — feature 0 the z-scored traffic value, feature 1 the
normalised time of day — and produces scaled predictions of shape
``(batch, horizon, nodes)``.  The experiment runner inverse-transforms
predictions before computing metrics, matching the paper's protocol.
"""

from __future__ import annotations

from typing import Callable, Type

import numpy as np

from ..nn import functional as F
from ..nn.losses import masked_mae
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["TrafficModel", "Seq2SeqModel", "register_model", "create_model",
           "model_names", "MODEL_REGISTRY"]

MODEL_REGISTRY: dict[str, Type["TrafficModel"]] = {}


def register_model(name: str) -> Callable[[Type["TrafficModel"]], Type["TrafficModel"]]:
    """Class decorator adding a model to the registry under ``name``."""

    def decorator(cls: Type["TrafficModel"]) -> Type["TrafficModel"]:
        if name in MODEL_REGISTRY:
            raise ValueError(f"model {name!r} already registered")
        MODEL_REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def model_names() -> list[str]:
    """Names of all registered models (paper models + baselines)."""
    return list(MODEL_REGISTRY)


def create_model(name: str, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, **hparams) -> "TrafficModel":
    """Instantiate a registered model by name."""
    key = name.lower().replace("_", "-")
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {model_names()}")
    return MODEL_REGISTRY[key](num_nodes=num_nodes, adjacency=adjacency,
                               history=history, horizon=horizon,
                               in_features=in_features, seed=seed, **hparams)


class TrafficModel(Module):
    """Base class: spatio-temporal forecaster over a fixed road graph."""

    name = "base"

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0):
        super().__init__()
        adjacency = np.asarray(adjacency, dtype=float)
        if adjacency.shape != (num_nodes, num_nodes):
            raise ValueError(
                f"adjacency shape {adjacency.shape} does not match "
                f"num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.history = history
        self.horizon = horizon
        self.in_features = in_features
        self.seed = seed
        self.register_buffer("adjacency", adjacency)

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        """Map ``(B, T', N, F)`` inputs to ``(B, T, N)`` scaled predictions."""
        raise NotImplementedError

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        """Loss used for optimisation (masked MAE on scaled values).

        Models with a different training objective (e.g. STGCN's
        many-to-one single-step training) override this.
        """
        prediction = self.forward(x)
        return masked_mae(prediction, y_scaled, null_value=None)

    def _validate_input(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ValueError(f"expected (B, T', N, F) input, got shape {x.shape}")
        if x.shape[1] != self.history:
            raise ValueError(
                f"history mismatch: model expects {self.history}, got {x.shape[1]}")
        if x.shape[2] != self.num_nodes:
            raise ValueError(
                f"node mismatch: model expects {self.num_nodes}, got {x.shape[2]}")


class Seq2SeqModel(TrafficModel):
    """Encoder-decoder forecaster that rolls the horizon out step by step.

    The shared rollout starts the decoder from an all-zero GO input and,
    at every horizon step, emits a ``(B, N)`` prediction and feeds back
    either that prediction or — in training, with probability
    :meth:`_teacher_probability` — the ground truth (teacher forcing).
    Subclasses supply only their cells and layout:

    * ``_encode(x) -> state`` consumes the ``(B, T', N, F)`` history;
    * ``_decode_step(step_input, state) -> (prediction, state)`` advances
      the decoder by one step, ``prediction`` shaped like ``step_input``;
    * ``_step_shape(batch)`` is the decoder's per-step input shape.
    """

    #: Offset of the teacher-forcing RNG's seed from the model seed.
    TEACHER_SEED_OFFSET = 0

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features,
                         seed)
        if not 0.0 <= tf_ratio <= 1.0:
            raise ValueError(f"tf_ratio must be a probability in [0, 1], "
                             f"got {tf_ratio}")
        self.tf_ratio = tf_ratio
        self._tf_rng = np.random.default_rng(seed + self.TEACHER_SEED_OFFSET)
        self._global_step = 0

    def _teacher_probability(self) -> float:
        """Probability of feeding the ground truth back at a decode step."""
        return self.tf_ratio

    def _rollout(self, x: Tensor, teacher: Tensor | None = None) -> Tensor:
        batch = x.shape[0]
        shape = self._step_shape(batch)
        state = self._encode(x)
        step_input = Tensor(np.zeros(shape))
        outputs = []
        for t in range(self.horizon):
            prediction, state = self._decode_step(step_input, state)
            outputs.append(_reshaped(prediction, (batch, self.num_nodes)))
            use_teacher = (teacher is not None and self.training
                           and self._tf_rng.random()
                           < self._teacher_probability())
            step_input = (_reshaped(teacher[:, t], shape) if use_teacher
                          else prediction)
        return F.stack(outputs, axis=1)                # (B, T, N)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        return self._rollout(x)

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        self._validate_input(x)
        prediction = self._rollout(x, teacher=y_scaled)
        self._global_step += 1
        return masked_mae(prediction, y_scaled, null_value=None)


def _reshaped(tensor: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``tensor`` viewed as ``shape``; no tape node when it already fits."""
    return tensor if tensor.shape == shape else tensor.reshape(shape)
