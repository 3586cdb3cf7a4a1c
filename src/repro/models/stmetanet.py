"""ST-MetaNet (Pan et al., KDD 2019) — deep meta learning for traffic.

The key idea: the weights applied at each node are *generated* from static
node meta-knowledge (geo-graph attributes) by meta-learner MLPs, so every
sensor runs its own specialised GRU/GAT parameters.  We derive each node's
meta-features from the weighted adjacency (in/out degree, neighbour count)
plus a learned node embedding, mirroring the paper's geo-feature encoder.

A meta-GRU encoder consumes the history, a meta-GAT propagates hidden
states over the graph, and a meta-GRU decoder rolls the forecast out
autoregressively (with teacher forcing during training).

Because the generated weights depend only on *static* attributes, the model
adapts poorly when conditions change abruptly — the behaviour the paper
reports in its difficult-interval experiment (Sec. V-B).
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.layers import Linear
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .base import Seq2SeqModel, register_model

__all__ = ["STMetaNet", "MetaGRUCell", "MetaGAT"]


def _node_static_features(adjacency: np.ndarray) -> np.ndarray:
    """Graph-derived meta knowledge: degrees and neighbourhood statistics."""
    adj = np.asarray(adjacency, dtype=float)
    off_diag = adj - np.diag(np.diag(adj))
    out_degree = off_diag.sum(axis=1)
    in_degree = off_diag.sum(axis=0)
    out_count = (off_diag > 0).sum(axis=1).astype(float)
    in_count = (off_diag > 0).sum(axis=0).astype(float)
    feats = np.stack([out_degree, in_degree, out_count, in_count], axis=1)
    std = feats.std(axis=0)
    std[std == 0] = 1.0
    return (feats - feats.mean(axis=0)) / std


class MetaLearner(Module):
    """Two-layer MLP mapping node meta-knowledge to a flat weight vector."""

    def __init__(self, meta_dim: int, out_size: int, hidden: int = 16,
                 *, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(meta_dim, hidden, rng=rng)
        self.fc2 = Linear(hidden, out_size, rng=rng)
        # Scale down generated weights so training starts stable.
        self.scale = 0.1

    def forward(self, meta: Tensor) -> Tensor:
        return self.fc2(self.fc1(meta).relu()) * self.scale


class MetaGRUCell(Module):
    """GRU cell whose input-to-hidden weights are generated per node.

    Hidden-to-hidden weights are shared (the meta-learners specialise how
    each node *reads* its inputs, which is where node identity matters most).
    State is ``(B, N, H)``.
    """

    def __init__(self, input_size: int, hidden_size: int, meta_dim: int,
                 *, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.meta_gates = MetaLearner(meta_dim, input_size * 2 * hidden_size,
                                      rng=rng)
        self.meta_candidate = MetaLearner(meta_dim, input_size * hidden_size,
                                          rng=rng)
        self.w_hg = Parameter(init.xavier_uniform((hidden_size, 2 * hidden_size), rng))
        self.w_hc = Parameter(init.xavier_uniform((hidden_size, hidden_size), rng))
        self.b_g = Parameter(np.ones(2 * hidden_size))
        self.b_c = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor, meta: Tensor) -> Tensor:
        nodes = meta.shape[0]
        w_xg = self.meta_gates(meta).reshape(nodes, self.input_size,
                                             2 * self.hidden_size)
        w_xc = self.meta_candidate(meta).reshape(nodes, self.input_size,
                                                 self.hidden_size)
        gate_in = F.einsum("bni,nio->bno", x, w_xg)
        gates = (gate_in + h.matmul(self.w_hg) + self.b_g).sigmoid()
        reset, update = F.split(gates, 2, axis=-1)
        cand_in = F.einsum("bni,nio->bno", x, w_xc)
        candidate = (cand_in + (reset * h).matmul(self.w_hc) + self.b_c).tanh()
        return update * h + (1.0 - update) * candidate


class MetaGAT(Module):
    """Graph attention whose edge logits come from pairwise meta-knowledge.

    Edge attention combines a *static* meta term (generated from the two
    endpoints' meta vectors) with a content term from current hidden states.
    """

    def __init__(self, hidden_size: int, meta_dim: int, adjacency: np.ndarray,
                 *, rng: np.random.Generator):
        super().__init__()
        mask = (np.asarray(adjacency) > 0) | np.eye(adjacency.shape[0], dtype=bool)
        self.register_buffer("edge_mask", mask)
        self.meta_edge = MetaLearner(2 * meta_dim, 1, rng=rng)
        self.proj = Linear(hidden_size, hidden_size, rng=rng)
        self.gate = Parameter(np.zeros(1))

    def forward(self, h: Tensor, meta: Tensor) -> Tensor:
        nodes = meta.shape[0]
        # Pairwise meta features: (N, N, 2M)
        meta_i = meta.expand_dims(1).repeat(nodes, axis=1)
        meta_j = meta.expand_dims(0).repeat(nodes, axis=0)
        pair = F.concat([meta_i, meta_j], axis=-1)
        static_logit = self.meta_edge(pair).squeeze(2)          # (N, N)
        content = self.proj(h)                                  # (B, N, H)
        content_logit = content.matmul(h.swapaxes(-1, -2))      # (B, N, N)
        scale = 1.0 / np.sqrt(h.shape[-1])
        logits = content_logit * scale + static_logit
        logits = logits + Tensor(np.where(self.edge_mask, 0.0, -1e9))
        weights = F.softmax(logits, axis=-1)
        aggregated = weights.matmul(h)
        gate = self.gate.sigmoid()
        return h + gate * aggregated.relu()


@register_model("st-metanet")
class STMetaNet(Seq2SeqModel):
    """Urban traffic prediction via deep meta learning (seq2seq)."""

    TEACHER_SEED_OFFSET = 104729

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 16, embed_dim: int = 4,
                 tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features,
                         seed, tf_ratio)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size

        static = _node_static_features(adjacency)
        self.register_buffer("static_features", static)
        self.node_embedding = Parameter(rng.normal(0, 0.1, (num_nodes, embed_dim)))
        meta_dim = static.shape[1] + embed_dim
        self.meta_dim = meta_dim

        self.encoder = MetaGRUCell(in_features, hidden_size, meta_dim, rng=rng)
        self.gat = MetaGAT(hidden_size, meta_dim, adjacency, rng=rng)
        self.decoder = MetaGRUCell(1, hidden_size, meta_dim, rng=rng)
        self.projection = Linear(hidden_size, 1, rng=rng)

    def _meta(self) -> Tensor:
        return F.concat([Tensor(self.static_features), self.node_embedding],
                        axis=-1)

    def _step_shape(self, batch: int) -> tuple[int, ...]:
        return (batch, self.num_nodes, 1)

    def _encode(self, x: Tensor) -> tuple[Tensor, Tensor]:
        meta = self._meta()
        h = Tensor(np.zeros((x.shape[0], self.num_nodes, self.hidden_size)))
        for step in F.unbind(x, axis=1):
            h = self.encoder(step, h, meta)
        return self.gat(h, meta), meta

    def _decode_step(self, step_input: Tensor, state: tuple[Tensor, Tensor]
                     ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        h, meta = state
        h = self.decoder(step_input, h, meta)
        return self.projection(h), (h, meta)       # (B, N, 1)
