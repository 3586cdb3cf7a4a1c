"""GRU seq2seq without any spatial modelling (ablation extension).

The paper's model-selection step (Sec. IV-A) *excluded* models that do not
exploit the road graph, reporting that they are less accurate.  This model
makes that claim testable inside the benchmark: it is exactly a DCRNN with
the diffusion convolutions replaced by plain per-node dense transforms —
every sensor is forecast independently of its neighbours.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.layers.recurrent import GRUCell, step_stack
from ..nn.module import ModuleList
from ..nn.tensor import Tensor
from .base import Seq2SeqModel, register_model


@register_model("gru-seq2seq")
class GRUSeq2Seq(Seq2SeqModel):
    """Graph-free encoder-decoder GRU over each sensor independently."""

    TEACHER_SEED_OFFSET = 3571

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 16, num_layers: int = 2,
                 tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features,
                         seed, tf_ratio)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.encoder = ModuleList(
            [GRUCell(in_features if i == 0 else hidden_size, hidden_size,
                     rng=rng) for i in range(num_layers)])
        self.decoder = ModuleList(
            [GRUCell(1 if i == 0 else hidden_size, hidden_size, rng=rng)
             for i in range(num_layers)])
        self.projection = Linear(hidden_size, 1, rng=rng)

    def _step_shape(self, batch: int) -> tuple[int, ...]:
        return (batch * self.num_nodes, 1)

    def _encode(self, x: Tensor) -> list[Tensor]:
        batch, history, nodes, features = x.shape
        # Flatten (batch, node) into one recurrence axis: no cross-node flow.
        flat = x.transpose(0, 2, 1, 3).reshape(batch * nodes, history, features)
        hidden = [Tensor(np.zeros((batch * nodes, self.hidden_size)))
                  for _ in range(self.num_layers)]
        for step in F.unbind(flat, axis=1):
            step_stack(self.encoder, step, hidden)
        return hidden

    def _decode_step(self, step_input: Tensor, hidden: list[Tensor]
                     ) -> tuple[Tensor, list[Tensor]]:
        top = step_stack(self.decoder, step_input, hidden)
        return self.projection(top), hidden            # (B*N, 1)
