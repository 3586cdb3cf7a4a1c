"""Training checkpoints: persist model + optimizer state, resume training.

Paper-scale runs (hundreds of epochs on 200+ sensors) need restartability;
a checkpoint bundles the model state dict, the optimizer's mutable
buffers, and arbitrary metadata (epoch counter, best validation score) in
one ``.npz`` archive, written atomically through :mod:`repro.artifacts`
to exactly the given path.

Optimizer state is stored arena-style: each buffer family (Adam moments,
SGD velocity, RMSprop square averages, Adagrad accumulators) is one flat
array, accompanied by a JSON ``spec`` recording every parameter's
name/shape/offset inside it — the same layout
:class:`repro.nn.arena.ParameterArena` uses in memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..artifacts import pack_json, read_archive, unpack_json, write_archive
from .module import Module
from .optim.adam import Adam
from .optim.optimizer import Optimizer
from .optim.rmsprop import Adagrad, RMSprop
from .optim.sgd import SGD

__all__ = ["save_checkpoint", "load_checkpoint", "optimizer_state",
           "load_optimizer_state"]

#: Buffer families persisted per optimizer class: attribute holding the
#: per-parameter arrays -> key in the saved state.
_BUFFER_FIELDS: dict[type, dict[str, str]] = {
    Adam: {"_m": "m", "_v": "v"},                     # covers AdamW too
    SGD: {"_velocity": "velocity"},
    RMSprop: {"_square_avg": "square_avg", "_buffer": "momentum_buffer"},
    Adagrad: {"_accumulator": "accumulator"},
}


def _buffer_fields(optimizer: Optimizer) -> dict[str, str]:
    for cls, fields in _BUFFER_FIELDS.items():
        if isinstance(optimizer, cls):
            return fields
    return {}


def _build_spec(optimizer: Optimizer) -> list[dict]:
    """Per-parameter name/shape/offset placement for the flat buffers."""
    if optimizer.arena is not None:
        return [{"name": s.name, "shape": list(s.shape), "offset": s.offset}
                for s in optimizer.arena.specs]
    spec = []
    offset = 0
    for i, param in enumerate(optimizer.parameters):
        spec.append({"name": f"param{i}", "shape": list(param.shape),
                     "offset": offset})
        offset += param.size
    return spec


def _flatten_buffers(buffers: list[np.ndarray]) -> np.ndarray:
    if not buffers:
        return np.zeros(0)
    return np.concatenate([np.asarray(b).ravel() for b in buffers])


def optimizer_state(optimizer: Optimizer) -> dict[str, np.ndarray]:
    """Extract an optimizer's mutable buffers as a flat dict.

    Every supported optimizer (Adam/AdamW, SGD, RMSprop, Adagrad) stores
    each buffer family as one flat array plus a JSON ``spec`` blob giving
    per-parameter name/shape/offset, so the state survives arena and
    per-parameter representations alike.
    """
    state: dict[str, np.ndarray] = {"lr": np.asarray(optimizer.lr)}
    spec = {"class": type(optimizer).__name__, "params": _build_spec(optimizer)}
    state["spec"] = pack_json(spec)
    if isinstance(optimizer, Adam):
        state["step_count"] = np.asarray(optimizer._step_count)
    for attr, key in _buffer_fields(optimizer).items():
        state[key] = _flatten_buffers(getattr(optimizer, attr))
    return state


def load_optimizer_state(optimizer: Optimizer,
                         state: dict[str, np.ndarray]) -> None:
    """Restore buffers extracted by :func:`optimizer_state` (in place)."""
    optimizer.lr = float(state["lr"])
    spec = unpack_json(state["spec"])
    params = spec.get("params", [])
    if len(params) != len(optimizer.parameters):
        raise ValueError(
            f"optimizer state holds {len(params)} parameters, the "
            f"optimizer has {len(optimizer.parameters)}")
    for entry, param in zip(params, optimizer.parameters):
        if tuple(entry["shape"]) != param.shape:
            raise ValueError(
                f"shape mismatch for {entry['name']!r}: saved "
                f"{tuple(entry['shape'])} vs current {param.shape}")
    if isinstance(optimizer, Adam):
        optimizer._step_count = int(state["step_count"])
    for attr, key in _buffer_fields(optimizer).items():
        if key not in state:
            raise KeyError(f"optimizer state is missing buffer {key!r}")
        flat = np.asarray(state[key]).ravel()
        buffers = getattr(optimizer, attr)
        for entry, buffer in zip(params, buffers):
            offset, size = entry["offset"], buffer.size
            buffer[...] = flat[offset:offset + size].reshape(buffer.shape)


def save_checkpoint(path: str | Path, model: Module,
                    optimizer: Optimizer | None = None,
                    metadata: dict | None = None) -> None:
    """Write model (+ optional optimizer) state and JSON metadata.

    Announces the save as a ``checkpoint_saved`` telemetry event on the
    ambient :class:`repro.obs.EventBus`.
    """
    from ..obs.events import CheckpointSaved, get_bus

    payload: dict[str, np.ndarray] = {}
    for key, value in model.state_dict().items():
        payload[f"model/{key}"] = value
    if optimizer is not None:
        for key, value in optimizer_state(optimizer).items():
            payload[f"optim/{key}"] = value
    write_archive(path, payload, metadata or {})
    get_bus().emit(CheckpointSaved(path=str(path),
                                   num_arrays=len(payload) + 1))  # + meta


def load_checkpoint(path: str | Path, model: Module,
                    optimizer: Optimizer | None = None) -> dict:
    """Restore model (+ optional optimizer); returns the metadata dict."""
    arrays, metadata = read_archive(path)
    model.load_state_dict({key[len("model/"):]: value
                           for key, value in arrays.items()
                           if key.startswith("model/")})
    if optimizer is not None:
        optim_state = {key[len("optim/"):]: value
                       for key, value in arrays.items()
                       if key.startswith("optim/")}
        if not optim_state:
            raise KeyError("checkpoint contains no optimizer state")
        load_optimizer_state(optimizer, optim_state)
    return metadata
