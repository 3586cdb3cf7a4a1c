"""Module / Parameter abstractions (the torch.nn.Module analogue).

Modules register :class:`Parameter` attributes and child modules
automatically via ``__setattr__``; ``parameters()`` and ``state_dict()``
walk the tree.  ``train()`` / ``eval()`` toggle stochastic layers.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor flagged as learnable (``requires_grad=True``).

    A parameter may be *arena-bound* (see :class:`repro.nn.arena.ParameterArena`
    and :meth:`Module.flatten_parameters`): its ``data`` is then a view into
    one flat buffer shared by every parameter of the model, and it keeps a
    persistent flat gradient view so backward passes accumulate straight
    into the arena.  Free-standing parameters behave exactly as before.
    """

    __slots__ = ("_grad_view", "_arena")

    def __init__(self, data, *, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self._grad_view = None          # arena gradient view, when bound
        self._arena = None              # owning ParameterArena, when bound

    def zero_grad(self) -> None:
        if self._grad_view is not None:
            # Arena-bound: zero the persistent view in place so autograd
            # keeps accumulating into the flat buffer.
            self._grad_view.fill(0.0)
            self.grad = self._grad_view
        else:
            self.grad = None


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Attach non-learnable state that is saved in the state dict."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix + name + ".")

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(p.size for p in self.parameters())

    def flatten_parameters(self):
        """Pack every parameter into one flat arena; returns the arena.

        All parameter data (and gradients) are rebound as views into one
        contiguous buffer pair, enabling the fused single-array optimizer
        paths and one-reduction gradient clipping (see
        :mod:`repro.nn.arena`).  Idempotent: calling again returns the
        existing arena while it still covers the parameter tree exactly.
        """
        from .arena import ParameterArena

        existing = getattr(self, "_flat_arena", None)
        seen: set[int] = set()
        unique = []
        for param in self.parameters():
            if id(param) not in seen:       # tied parameters appear once
                seen.add(id(param))
                unique.append(param)
        if existing is not None and existing.covers(unique):
            return existing
        arena = ParameterArena(self.named_parameters())
        object.__setattr__(self, "_flat_arena", arena)
        return arena

    # ------------------------------------------------------------------ #
    # modes / grads
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for mod_name, module in self.named_modules():
            for buf_name, buf in module._buffers.items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own: dict[str, np.ndarray] = {name: p for name, p in self.named_parameters()}
        for name, param in own.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs {param.shape}")
            param.data[...] = value
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if key in state:
                    module._buffers[buf_name][...] = state[key]
                    object.__setattr__(module, buf_name, module._buffers[buf_name])

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._order.append(module)

    def forward(self, x):
        for module in self._order:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._order)

    def __len__(self):
        return len(self._order)


class ModuleList(Module):
    """List container whose entries are registered as child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)
