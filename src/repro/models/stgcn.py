"""STGCN (Yu et al., IJCAI 2018) — spectral GCN + gated temporal convolution.

Architecture: two ST-Conv "sandwich" blocks, each a gated temporal
convolution (GLU), a Chebyshev spectral graph convolution, and a second
gated temporal convolution, with layer normalisation.  A final temporal
convolution collapses the remaining steps and a dense head predicts **one**
step ahead — STGCN is the paper's many-to-one example.

Multi-step forecasts are produced recursively, feeding each prediction back
into the input window.  This is why the paper's Table III records STGCN as
the fastest model to *train* per epoch but a slow one at *inference*: one
backward pass trains a single-step map, but a 12-step forecast costs twelve
forward passes.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Conv2d, LayerNorm
from ..nn.losses import masked_mae
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model
from .graph_conv import ChebConv

__all__ = ["STGCN", "TemporalGatedConv", "STConvBlock"]


class TemporalGatedConv(Module):
    """Gated (GLU) temporal convolution along the last axis of (B,C,N,T)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 *, rng: np.random.Generator):
        super().__init__()
        self.kernel = kernel
        self.conv = Conv2d(in_channels, 2 * out_channels, (1, kernel), rng=rng)
        self.align = (Conv2d(in_channels, out_channels, (1, 1), rng=rng)
                      if in_channels != out_channels else None)

    def forward(self, x: Tensor) -> Tensor:
        gated = self.conv(x)
        value, gate = F.split(gated, 2, axis=1)
        out = value * gate.sigmoid()
        residual = x if self.align is None else self.align(x)
        # Align time length: convolution trims (kernel-1) trailing context.
        trimmed = residual[:, :, :, self.kernel - 1:]
        return out + trimmed


class STConvBlock(Module):
    """Temporal-spatial-temporal sandwich with layer norm."""

    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 spatial_channels: int, out_channels: int, num_nodes: int,
                 cheb_order: int = 3, *, rng: np.random.Generator):
        super().__init__()
        self.temporal1 = TemporalGatedConv(in_channels, out_channels, rng=rng)
        self.spatial = ChebConv(adjacency, out_channels, spatial_channels,
                                order=cheb_order, rng=rng)
        self.temporal2 = TemporalGatedConv(spatial_channels, out_channels, rng=rng)
        self.norm = LayerNorm(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = self.temporal1(x)                       # (B, C, N, T-2)
        # Chebyshev conv wants (..., N, C): move channels last.
        out = out.transpose(0, 3, 2, 1)               # (B, T, N, C)
        out = self.spatial(out).relu()
        out = out.transpose(0, 3, 2, 1)               # (B, C, N, T)
        out = self.temporal2(out)
        out = self.norm(out.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
        return out


@register_model("stgcn")
class STGCN(TrafficModel):
    """Spatio-Temporal Graph Convolutional Network (many-to-one)."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_channels: int = 16,
                 spatial_channels: int = 8, cheb_order: int = 3,
                 multi_step_head: bool = False):
        """``multi_step_head=True`` is an ablation switch: replace the
        paper's many-to-one output with a one-shot multi-horizon head,
        isolating how much of STGCN's weakness is the recursive decoding."""
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.multi_step_head = multi_step_head
        self.block1 = STConvBlock(adjacency, in_features, spatial_channels,
                                  hidden_channels, num_nodes,
                                  cheb_order, rng=rng)
        self.block2 = STConvBlock(adjacency, hidden_channels, spatial_channels,
                                  hidden_channels, num_nodes,
                                  cheb_order, rng=rng)
        remaining = history - 2 * 4     # each block trims 4 steps
        if remaining < 1:
            raise ValueError(f"history {history} too short for two ST blocks")
        self.output_conv = Conv2d(hidden_channels, hidden_channels,
                                  (1, remaining), rng=rng)
        out_channels = horizon if multi_step_head else 1
        self.head = Conv2d(hidden_channels, out_channels, (1, 1), rng=rng)

    # ------------------------------------------------------------------ #
    def _trunk(self, window: Tensor) -> Tensor:
        """Shared convolutional trunk -> (B, C_head, N, 1)."""
        out = window.transpose(0, 3, 2, 1)            # (B, F, N, T)
        out = self.block1(out)
        out = self.block2(out)
        out = self.output_conv(out).relu()            # (B, C, N, 1)
        return self.head(out)

    def _single_step(self, window: Tensor) -> Tensor:
        """Predict one step ahead from a (B, T', N, F) window -> (B, N)."""
        return self._trunk(window).squeeze(3).squeeze(1)

    def forward(self, x: Tensor) -> Tensor:
        """Recursive multi-step rollout (the many-to-one inference cost),
        or a single one-shot pass when ``multi_step_head`` is enabled."""
        self._validate_input(x)
        if self.multi_step_head:
            return self._trunk(x).squeeze(3)          # (B, horizon, N)
        window = x
        # Future time-of-day continues the 5-minute grid of the input.
        time_feature = x.data[:, :, :, 1]
        if self.history > 1:
            deltas = np.diff(time_feature[:, :, 0], axis=1)
            dt = float(np.median(np.abs(deltas))) or (1.0 / 288.0)
        else:
            dt = 1.0 / 288.0
        last_time = time_feature[:, -1, :]
        predictions = []
        for step in range(self.horizon):
            prediction = self._single_step(window)     # (B, N)
            predictions.append(prediction)
            next_time = (last_time + (step + 1) * dt) % 1.0
            frame = F.stack([prediction, Tensor(next_time)], axis=-1)  # (B,N,2)
            window = F.concat([window[:, 1:], frame.expand_dims(1)], axis=1)
        return F.stack(predictions, axis=1)            # (B, T, N)

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        """Many-to-one training: only the next step supervises the model.
        With the ablation head, all horizons supervise at once."""
        self._validate_input(x)
        if self.multi_step_head:
            return masked_mae(self.forward(x), y_scaled, null_value=None)
        prediction = self._single_step(x)
        return masked_mae(prediction, y_scaled[:, 0], null_value=None)
