"""Recurrent layers (GRU family) — the temporal backbone of DCRNN/ST-MetaNet.

The cells operate on flattened node-batches: traffic models treat every node
of every sample as an independent recurrence, so inputs are
``(batch*nodes, features)`` per step.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["GRUCell", "GRU", "LSTMCell", "LSTM", "step_stack",
           "lstm_step_stack"]


def step_stack(cells, x: Tensor, hidden: list[Tensor]) -> Tensor:
    """One time step up a stack of ``cell(x, h) -> h`` cells.

    Layer ``i`` reads layer ``i-1``'s new state; ``hidden`` is updated in
    place and the top layer's state is returned.
    """
    for layer, cell in enumerate(cells):
        hidden[layer] = x = cell(x, hidden[layer])
    return x


def lstm_step_stack(cells, x: Tensor, h: list[Tensor],
                    c: list[Tensor]) -> Tensor:
    """:func:`step_stack` for LSTM cells, updating ``h`` and ``c`` in place."""
    for layer, cell in enumerate(cells):
        h[layer], c[layer] = cell(x, (h[layer], c[layer]))
        x = h[layer]
    return x


class GRUCell(Module):
    """Standard gated recurrent unit cell.

    Gates use a single fused weight for efficiency:
    ``[r, z] = sigmoid(x @ W_xg + h @ W_hg + b_g)``,
    ``c = tanh(x @ W_xc + (r * h) @ W_hc + b_c)``,
    ``h' = z * h + (1 - z) * c``.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xg = Parameter(init.xavier_uniform((input_size, 2 * hidden_size), rng))
        self.w_hg = Parameter(init.xavier_uniform((hidden_size, 2 * hidden_size), rng))
        self.b_g = Parameter(np.ones(2 * hidden_size))  # bias=1 helps gradient flow
        self.w_xc = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hc = Parameter(init.xavier_uniform((hidden_size, hidden_size), rng))
        self.b_c = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gates = (x.matmul(self.w_xg) + h.matmul(self.w_hg) + self.b_g).sigmoid()
        r, z = F.split(gates, 2, axis=-1)
        candidate = (x.matmul(self.w_xc) + (r * h).matmul(self.w_hc) + self.b_c).tanh()
        return z * h + (1.0 - z) * candidate


class LSTMCell(Module):
    """Long short-term memory cell with fused gate weights.

    ``[i, f, g, o] = x W_x + h W_h + b``; forget-gate bias initialised to 1
    (the standard trick for gradient flow early in training).
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_h = Parameter(init.xavier_uniform((hidden_size, 4 * hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0       # forget gate
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]
                ) -> tuple[Tensor, Tensor]:
        h, c = state
        fused = x.matmul(self.w_x) + h.matmul(self.w_h) + self.bias
        i_gate, f_gate, g_gate, o_gate = F.split(fused, 4, axis=-1)
        i_gate = i_gate.sigmoid()
        f_gate = f_gate.sigmoid()
        o_gate = o_gate.sigmoid()
        g_gate = g_gate.tanh()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next


class LSTM(Module):
    """Multi-step LSTM over ``(batch, time, features)``.

    Returns ``(outputs, (h_list, c_list))`` with outputs
    ``(batch, time, hidden)``.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 *, rng: np.random.Generator):
        super().__init__()
        from ..module import ModuleList
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = ModuleList(
            [LSTMCell(input_size if i == 0 else hidden_size, hidden_size,
                      rng=rng) for i in range(num_layers)])

    def forward(self, x: Tensor, state=None):
        batch, time, _ = x.shape
        if state is None:
            h = [Tensor(np.zeros((batch, self.hidden_size)))
                 for _ in range(self.num_layers)]
            c = [Tensor(np.zeros((batch, self.hidden_size)))
                 for _ in range(self.num_layers)]
        else:
            h, c = [list(s) for s in state]
        # unbind makes the T per-step slices share one gradient buffer
        # instead of T full-size scatters on the backward pass.
        outputs = [lstm_step_stack(self.cells, step, h, c)
                   for step in F.unbind(x, axis=1)]
        return F.stack(outputs, axis=1), (h, c)


class GRU(Module):
    """Multi-step GRU over input ``(batch, time, features)``.

    Returns ``(outputs, last_hidden)`` where outputs is
    ``(batch, time, hidden)``.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 *, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        from ..module import ModuleList
        self.cells = ModuleList(
            [GRUCell(input_size if i == 0 else hidden_size, hidden_size, rng=rng)
             for i in range(num_layers)])

    def forward(self, x: Tensor, h0: list[Tensor] | None = None):
        batch, time, _ = x.shape
        if h0 is None:
            h0 = [Tensor(np.zeros((batch, self.hidden_size)))
                  for _ in range(self.num_layers)]
        hidden = list(h0)
        outputs = [step_stack(self.cells, step, hidden)
                   for step in F.unbind(x, axis=1)]
        return F.stack(outputs, axis=1), hidden
