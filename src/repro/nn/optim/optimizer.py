"""Optimizer base class and gradient clipping, fused or on the reference loop.

Optimizers accept either a plain sequence of :class:`Parameter` objects or
a :class:`repro.nn.arena.ParameterArena` (one flat buffer covering every
parameter — see :meth:`repro.nn.Module.flatten_parameters`).  When an
arena is available, ``step()`` runs *fused*: the whole update is a handful
of vectorized ops over the flat data/grad/state arrays instead of one
Python round per parameter.  The original per-parameter loop is kept as
the reference path — ``reference_mode("optim")`` (:mod:`repro.reference`)
routes every optimizer back through it inside a ``with`` block, so
equivalence tests and ``repro bench optim`` can compare both paths in one
process.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...reference import _REFERENCE
from ..arena import ParameterArena
from ..module import Parameter

__all__ = ["Optimizer", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter] | ParameterArena,
                   max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm.

    All the paper's seq2seq models (DCRNN, ST-MetaNet) rely on clipping for
    stable training; we apply it uniformly across models.  Passing a
    :class:`~repro.nn.arena.ParameterArena` computes the norm and rescale
    as two vectorized ops on the flat gradient buffer; a parameter sequence
    uses the original per-parameter loop.  ``max_norm`` must be positive:
    a negative one would flip the gradient's sign and a zero one erase it.
    """
    if not max_norm > 0:
        raise ValueError(f"clip_grad_norm max_norm must be > 0, got "
                         f"{max_norm}")
    if isinstance(parameters, ParameterArena) and "optim" not in _REFERENCE:
        total = parameters.grad_norm()
        if total > max_norm and total > 0.0:
            parameters.grad *= max_norm / total
        return total
    if isinstance(parameters, ParameterArena):
        parameters = parameters.parameters
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def _shared_arena(parameters: list[Parameter]) -> ParameterArena | None:
    """The arena that binds exactly ``parameters`` in order, if any."""
    if not parameters:
        return None
    arena = getattr(parameters[0], "_arena", None)
    if arena is None:
        return None
    if len(parameters) != len(arena.parameters):
        return None
    if all(a is b for a, b in zip(parameters, arena.parameters)):
        return arena
    return None


class Optimizer:
    """Base optimizer holding a parameter list (optionally arena-backed).

    ``parameters`` may be a sequence of :class:`Parameter` or a
    :class:`~repro.nn.arena.ParameterArena`.  A plain sequence whose
    entries are all views of one arena (in arena order) is promoted to the
    fused path automatically, so ``Adam(model.parameters())`` after
    ``model.flatten_parameters()`` fuses too.
    """

    def __init__(self, parameters: Sequence[Parameter] | ParameterArena,
                 lr: float):
        if isinstance(parameters, ParameterArena):
            self.arena: ParameterArena | None = parameters
            self.parameters = list(parameters.parameters)
        else:
            self.parameters = list(parameters)
            self.arena = _shared_arena(self.parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def _state_buffers(self) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """One zeroed state buffer per parameter (flat + views when fused).

        Arena-backed optimizers get a flat array whose per-parameter views
        are what the reference loop iterates, so the fused and loop paths
        share state; plain optimizers get independent per-parameter
        arrays and no flat buffer.
        """
        if self.arena is not None:
            return self.arena.state_like()
        return None, [np.zeros_like(p.data) for p in self.parameters]

    def _fused(self) -> bool:
        """Whether this step should take the fused single-array path."""
        if self.arena is None or "optim" in _REFERENCE:
            return False
        self.arena.sync_grads()
        return True

    def zero_grad(self) -> None:
        if self.arena is not None:
            self.arena.zero_grad()
            return
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError
