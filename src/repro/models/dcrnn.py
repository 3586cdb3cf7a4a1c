"""DCRNN (Li et al., ICLR 2018) — diffusion-convolutional recurrent network.

A GRU in which every dense transform is replaced by a bidirectional
diffusion convolution over the road graph (random-walk supports, K steps in
each direction).  An encoder consumes the T'=12 history; a decoder emits the
T=12 forecast autoregressively from a GO symbol — the sequence-to-sequence
structure whose error accumulation the paper highlights in Sec. V-A/VI.

Training feeds ground truth to the decoder (teacher forcing) with a
probability that either stays fixed at ``tf_ratio`` or, when
``scheduled_sampling_decay`` is set, follows the original DCRNN curriculum
— an inverse-sigmoid decay ``k / (k + exp(step / k))`` that starts near 1
(always teacher-forced) and anneals towards 0 (free-running) as training
progresses.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.module import Module, ModuleList
from ..nn.layers import Linear
from ..nn.layers.recurrent import step_stack
from ..nn.tensor import Tensor
from .base import Seq2SeqModel, register_model
from .graph_conv import DiffusionConv

__all__ = ["DCRNN", "DCGRUCell"]


class DCGRUCell(Module):
    """GRU cell whose matmuls are diffusion convolutions.

    Operates on ``(B, N, C)`` node features; hidden state is ``(B, N, H)``.
    """

    def __init__(self, adjacency: np.ndarray, input_size: int, hidden_size: int,
                 max_diffusion_step: int = 2, *, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.gate_conv = DiffusionConv(adjacency, input_size + hidden_size,
                                       2 * hidden_size, max_diffusion_step,
                                       rng=rng)
        self.candidate_conv = DiffusionConv(adjacency, input_size + hidden_size,
                                            hidden_size, max_diffusion_step,
                                            rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = F.concat([x, h], axis=-1)
        gates = self.gate_conv(combined).sigmoid()
        reset, update = F.split(gates, 2, axis=-1)
        candidate_in = F.concat([x, reset * h], axis=-1)
        candidate = self.candidate_conv(candidate_in).tanh()
        return update * h + (1.0 - update) * candidate


@register_model("dcrnn")
class DCRNN(Seq2SeqModel):
    """Diffusion Convolutional Recurrent Neural Network (seq2seq)."""

    TEACHER_SEED_OFFSET = 7919

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 16, num_layers: int = 2,
                 max_diffusion_step: int = 2, tf_ratio: float = 0.5,
                 scheduled_sampling_decay: float | None = None):
        super().__init__(num_nodes, adjacency, history, horizon, in_features,
                         seed, tf_ratio)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        decay = scheduled_sampling_decay
        if decay is not None and not decay > 0:
            raise ValueError(f"scheduled_sampling_decay must be > 0 (None "
                             f"keeps tf_ratio fixed), got {decay}")
        self.scheduled_sampling_decay = decay
        self.encoder = ModuleList(
            [DCGRUCell(adjacency, in_features if i == 0 else hidden_size,
                       hidden_size, max_diffusion_step, rng=rng)
             for i in range(num_layers)])
        self.decoder = ModuleList(
            [DCGRUCell(adjacency, 1 if i == 0 else hidden_size,
                       hidden_size, max_diffusion_step, rng=rng)
             for i in range(num_layers)])
        self.projection = Linear(hidden_size, 1, rng=rng)

    # ------------------------------------------------------------------ #
    def _step_shape(self, batch: int) -> tuple[int, ...]:
        return (batch, self.num_nodes, 1)

    def _encode(self, x: Tensor) -> list[Tensor]:
        hidden = [Tensor(np.zeros((x.shape[0], self.num_nodes,
                                   self.hidden_size)))
                  for _ in range(self.num_layers)]
        for step in F.unbind(x, axis=1):
            step_stack(self.encoder, step, hidden)
        return hidden

    def _decode_step(self, step_input: Tensor, hidden: list[Tensor]
                     ) -> tuple[Tensor, list[Tensor]]:
        top = step_stack(self.decoder, step_input, hidden)
        return self.projection(top), hidden            # (B, N, 1)

    def _teacher_probability(self) -> float:
        """Fixed ratio, or the DCRNN inverse-sigmoid curriculum."""
        if self.scheduled_sampling_decay is None:
            return self.tf_ratio
        k = self.scheduled_sampling_decay
        return k / (k + np.exp(min(self._global_step / k, 500.0)))
