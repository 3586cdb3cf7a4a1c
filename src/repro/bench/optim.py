"""Optimizer suite: fused arena updates vs. ``reference_mode("optim")``.

The paper's models carry hundreds of small gate matrices (DCRNN-style
recurrent cells), so the per-parameter optimizer loop used to pay one
round of numpy-call overhead per parameter per step.  Every optimizer is
timed both ways on a synthetic many-parameter model — the fused
single-array path over a :class:`repro.nn.arena.ParameterArena` against
the per-parameter reference loop, over the same arena-view state — plus
the two other hot arena operations, gradient clipping and ``zero_grad``.

Cases
-----
- ``adam_step`` / ``adamw_step`` / ``sgd_step`` / ``rmsprop_step`` /
  ``adagrad_step`` — one optimizer step (with weight decay / momentum
  engaged where the optimizer supports it)
- ``clip_grad_norm``  — global-L2 norm over all gradients (one reduction
  on the flat buffer vs. a per-parameter sum)
- ``zero_grad``       — one memset of the arena grad buffer vs. a
  per-parameter loop
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module, Parameter
from ..nn.optim import SGD, Adagrad, Adam, AdamW, RMSprop, clip_grad_norm
from ..reference import reference_active
from . import paired

__all__ = ["CASES"]


class _SyntheticModel(Module):
    """A parameter tree shaped like a stacked recurrent model.

    ``params`` parameters cycling through gate-matrix, bias, and
    projection shapes around ``dim`` — many smallish arrays, the workload
    the arena refactor targets (not one giant matrix, where fusing would
    win nothing).
    """

    def __init__(self, params: int, dim: int, rng: np.random.Generator):
        super().__init__()
        shapes = [(3 * dim, 2 * dim), (3 * dim,), (dim, dim), (dim,)]
        for i in range(params):
            shape = shapes[i % len(shapes)]
            setattr(self, f"p{i}", Parameter(rng.normal(size=shape)))


def _make_model(sizes: dict, rng: np.random.Generator):
    model = _SyntheticModel(sizes["params"], sizes["dim"], rng)
    arena = model.flatten_parameters()
    arena.grad[:] = rng.normal(size=arena.size)
    return model, arena


def _optimizer(cls, **kwargs):
    def make(sizes: dict, rng: np.random.Generator):
        _, arena = _make_model(sizes, rng)
        optimizer = cls(arena, lr=1e-3, **kwargs)
        meta = {"parameters": len(arena), "elements": arena.size, **kwargs}
        return optimizer.step, meta

    return make


def _clip_grad_norm(sizes: dict, rng: np.random.Generator):
    _, arena = _make_model(sizes, rng)
    # A norm far below the threshold: no rescale, so every call does the
    # same work (the norm reduction) on both paths.
    max_norm = float(arena.grad_norm()) * 10.0

    def step():
        clip_grad_norm(arena, max_norm)

    meta = {"parameters": len(arena), "elements": arena.size}
    return step, meta


def _zero_grad(sizes: dict, rng: np.random.Generator):
    model, arena = _make_model(sizes, rng)
    optimizer = SGD(arena, lr=1e-3)
    parameters = model.parameters()

    def step():
        if reference_active("optim"):
            for param in parameters:        # the pre-arena per-param loop
                param.zero_grad()
        else:
            optimizer.zero_grad()

    meta = {"parameters": len(arena), "elements": arena.size}
    return step, meta


CASES = {name: paired(make, "optim", seed=11) for name, make in (
    ("adam_step", _optimizer(Adam, weight_decay=1e-5)),
    ("adamw_step", _optimizer(AdamW, weight_decay=1e-2)),
    ("sgd_step", _optimizer(SGD, momentum=0.9, weight_decay=1e-5)),
    ("rmsprop_step", _optimizer(RMSprop, momentum=0.9)),
    ("adagrad_step", _optimizer(Adagrad)),
    ("clip_grad_norm", _clip_grad_norm),
    ("zero_grad", _zero_grad),
)}
