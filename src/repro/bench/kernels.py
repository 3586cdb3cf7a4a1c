"""Kernel suite: the fast engine vs. ``reference_mode("kernels")``.

Engine overhead would otherwise swamp the architecture differences
Table III compares, so the hot kernels are timed both ways — the
pre-optimisation reference paths (``np.add.at`` scatters, uncached im2col
indices, per-slice gradient buffers) against the current fast paths.

Cases
-----
- ``conv2d_backward``     backward through a ``(1, k)`` temporal conv (the
  kernel all four TCN models use) — dominated by the col2im scatter
- ``conv2d_backward_strided`` strided + dilated 3x3 conv backward
- ``conv2d_forward``      repeated forward passes (im2col index cache)
- ``col2im``              the raw scatter kernel in isolation
- ``split_backward``      gated-activation style split + backward
- ``unbind_backward``     T per-step views + backward (RNN input pattern)
- ``gru_step``            one GRU forward+backward over a short sequence
- ``stgcn_train_step``    a full STGCN training step (loss, backward,
  Adam update) on a synthetic graph

Each maker builds a closure that runs one forward+backward (or the
isolated kernel); the closure consults the reference switch at run time,
so the same closure times both engines.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn import kernels as K
from ..nn.tensor import Tensor
from ..reference import reference_active
from . import paired

__all__ = ["CASES"]


def _conv2d_backward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    x = Tensor(rng.normal(size=(batch, channels, nodes, steps)),
               requires_grad=True)
    w = Tensor(rng.normal(size=(channels, channels, 1, 3)),
               requires_grad=True)
    out = F.conv2d(x, w)
    g = np.ones_like(out.data)

    def step():
        out.backward(g)

    meta = {"input": list(x.shape), "kernel": [1, 3], "stride": [1, 1]}
    return step, meta


def _conv2d_backward_strided(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], max(4, sizes["channels"] // 2)
    side = max(12, sizes["nodes"] // 2)
    x = Tensor(rng.normal(size=(batch, channels, side, side)),
               requires_grad=True)
    w = Tensor(rng.normal(size=(channels, channels, 3, 3)),
               requires_grad=True)
    out = F.conv2d(x, w, stride=(2, 2), padding=(1, 1), dilation=(2, 2))
    g = np.ones_like(out.data)

    def step():
        out.backward(g)

    meta = {"input": list(x.shape), "kernel": [3, 3], "stride": [2, 2],
            "dilation": [2, 2], "padding": [1, 1]}
    return step, meta


def _conv2d_forward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    x = Tensor(rng.normal(size=(batch, channels, nodes, steps)))
    w = Tensor(rng.normal(size=(channels, channels, 1, 3)))

    def step():
        F.conv2d(x, w)

    meta = {"input": list(x.shape), "kernel": [1, 3]}
    return step, meta


def _col2im(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    shape = (batch, channels, nodes, steps)
    kernel = (1, 3)
    out_w = steps - 2
    g_cols = rng.normal(size=(batch, channels, 3, nodes * out_w))

    def step():
        if reference_active("kernels"):
            K.col2im_reference(g_cols, shape, kernel)
        else:
            K.col2im(g_cols, shape, kernel)

    meta = {"shape": list(shape), "kernel": list(kernel)}
    return step, meta


def _split_backward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    data = rng.normal(size=(batch, 2 * channels, nodes, steps))

    def step():
        x = Tensor(data, requires_grad=True)
        value, gate = F.split(x, 2, axis=1)
        out = value * gate.sigmoid()
        out.backward(np.ones_like(out.data))

    meta = {"input": list(data.shape), "sections": 2}
    return step, meta


def _unbind_backward(sizes: dict, rng: np.random.Generator):
    batch, steps = sizes["batch"] * sizes["nodes"], sizes["time_steps"]
    hidden = sizes["gru_hidden"]
    data = rng.normal(size=(batch, steps, hidden))

    def step():
        x = Tensor(data, requires_grad=True)
        total = None
        for view in F.unbind(x, axis=1):
            term = (view * view).sum()
            total = term if total is None else total + term
        total.backward()

    meta = {"input": list(data.shape), "steps": steps}
    return step, meta


def _gru_step(sizes: dict, rng: np.random.Generator):
    from ..nn.layers import GRU

    batch, steps = sizes["batch"] * sizes["nodes"], sizes["time_steps"]
    hidden = sizes["gru_hidden"]
    gru = GRU(hidden, hidden, rng=np.random.default_rng(0))
    data = rng.normal(size=(batch, steps, hidden))

    def step():
        x = Tensor(data, requires_grad=True)
        outputs, _ = gru(x)
        outputs.sum().backward(free_graph=True)

    meta = {"input": list(data.shape), "hidden": hidden}
    return step, meta


def _stgcn_train_step(sizes: dict, rng: np.random.Generator):
    from ..models import create_model
    from ..nn.optim import Adam

    nodes, batch = sizes["stgcn_nodes"], sizes["stgcn_batch"]
    adjacency = np.eye(nodes) + (rng.random((nodes, nodes)) > 0.6)
    model = create_model("stgcn", nodes, adjacency, in_features=2, seed=0)
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-3)
    x = Tensor(rng.normal(size=(batch, 12, nodes, 2)))
    y = Tensor(rng.normal(size=(batch, 12, nodes)))

    def step():
        optimizer.zero_grad()
        loss = model.training_loss(x, y)
        loss.backward(free_graph=True)
        optimizer.step()

    meta = {"nodes": nodes, "batch": batch,
            "parameters": model.num_parameters()}
    return step, meta


CASES = {name: paired(make, "kernels", seed=7) for name, make in (
    ("conv2d_backward", _conv2d_backward),
    ("conv2d_backward_strided", _conv2d_backward_strided),
    ("conv2d_forward", _conv2d_forward),
    ("col2im", _col2im),
    ("split_backward", _split_backward),
    ("unbind_backward", _unbind_backward),
    ("gru_step", _gru_step),
    ("stgcn_train_step", _stgcn_train_step),
)}
