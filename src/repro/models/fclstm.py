"""FC-LSTM baseline (extension) — the classical deep baseline.

Before graph models, traffic forecasting used fully-connected LSTMs over
the concatenated sensor vector (the baseline the DCRNN paper compares
against).  Spatial structure is "modelled" only implicitly through the
dense input projection, so it sits between the per-node GRU baseline and
the graph models in the spatial-modelling spectrum.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.layers.recurrent import LSTMCell, lstm_step_stack
from ..nn.module import ModuleList
from ..nn.tensor import Tensor
from .base import Seq2SeqModel, register_model

__all__ = ["FCLSTM"]


@register_model("fc-lstm")
class FCLSTM(Seq2SeqModel):
    """Encoder-decoder LSTM over the flattened sensor vector."""

    TEACHER_SEED_OFFSET = 4219

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 32, num_layers: int = 2,
                 tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features,
                         seed, tf_ratio)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        flat_in = num_nodes * in_features
        self.encoder = ModuleList(
            [LSTMCell(flat_in if i == 0 else hidden_size, hidden_size,
                      rng=rng) for i in range(num_layers)])
        self.decoder = ModuleList(
            [LSTMCell(num_nodes if i == 0 else hidden_size, hidden_size,
                      rng=rng) for i in range(num_layers)])
        self.projection = Linear(hidden_size, num_nodes, rng=rng)

    def _step_shape(self, batch: int) -> tuple[int, ...]:
        return (batch, self.num_nodes)

    def _encode(self, x: Tensor) -> tuple[list[Tensor], list[Tensor]]:
        batch = x.shape[0]
        flat = x.reshape(batch, self.history,
                         self.num_nodes * self.in_features)
        h = [Tensor(np.zeros((batch, self.hidden_size)))
             for _ in range(self.num_layers)]
        c = [Tensor(np.zeros((batch, self.hidden_size)))
             for _ in range(self.num_layers)]
        for step in F.unbind(flat, axis=1):
            lstm_step_stack(self.encoder, step, h, c)
        return h, c

    def _decode_step(self, step_input: Tensor,
                     state: tuple[list[Tensor], list[Tensor]]
                     ) -> tuple[Tensor, tuple[list[Tensor], list[Tensor]]]:
        top = lstm_step_stack(self.decoder, step_input, *state)
        return self.projection(top), state          # (B, N)
