"""Adam / AdamW — the optimizer family used by every model in the paper.

Both optimizers carry two execution paths: the fused single-array update
over a :class:`~repro.nn.arena.ParameterArena` (the default when the model
was flattened) and the original per-parameter loop, kept as the reference
path behind ``reference_mode("optim")`` (:mod:`repro.reference`).  The two paths
share the same moment buffers (the loop iterates views of the fused flat
arrays), so switching mid-run is safe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam", "AdamW"]


class Adam(Optimizer):
    """Adam (Kingma & Ba).  ``weight_decay`` here is L2-regularisation
    folded into the gradient (torch.optim.Adam semantics)."""

    #: AdamW flips this: decay is applied directly to the weights instead
    #: of being folded into the gradient.
    _decoupled_decay = False

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m_flat, self._m = self._state_buffers()
        self._v_flat, self._v = self._state_buffers()
        self._decay_scratch: np.ndarray | None = None   # fused L2 temp

    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._step_count
        bias2 = 1.0 - beta2 ** self._step_count
        if self._fused():
            self._step_fused(beta1, beta2, bias1, bias2)
        else:
            self._step_loop(beta1, beta2, bias1, bias2)

    def _step_fused(self, beta1: float, beta2: float,
                    bias1: float, bias2: float) -> None:
        data, grad = self.arena.data, self.arena.grad
        m, v = self._m_flat, self._v_flat
        if self.weight_decay:
            if self._decoupled_decay:
                data -= self.lr * self.weight_decay * data
            else:
                # L2 term folded into the gradient.  Built in a persistent
                # scratch buffer: a fresh arena-sized temp every step costs
                # more than the math at this size.  Bitwise-identical to
                # ``grad + weight_decay * data`` (IEEE mul/add commute).
                if (self._decay_scratch is None
                        or self._decay_scratch.shape != grad.shape):
                    self._decay_scratch = np.empty_like(grad)
                np.multiply(data, self.weight_decay, out=self._decay_scratch)
                np.add(self._decay_scratch, grad, out=self._decay_scratch)
                grad = self._decay_scratch
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def _step_loop(self, beta1: float, beta2: float,
                   bias1: float, bias2: float) -> None:
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                if self._decoupled_decay:
                    param.data -= self.lr * self.weight_decay * param.data
                else:
                    grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    Decay multiplies the weights directly (``w -= lr * wd * w``) instead of
    entering the moment estimates — a first-class branch in both update
    paths rather than the old mutate-``weight_decay``-and-restore hack.
    """

    _decoupled_decay = True
