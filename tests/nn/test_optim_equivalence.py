"""Fused arena updates must match the per-parameter reference loop.

Every optimizer carries two paths over the same state buffers: the fused
single-array update (default on an arena) and the original per-parameter
loop behind ``reference_mode("optim")``.  These tests drive both paths with
identical gradients for several steps — weight decay and momentum engaged
— and hold parameters *and* optimizer state to agreement within 1e-12.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import Linear, Module
from repro.nn.optim import (SGD, Adagrad, Adam, AdamW, RMSprop,
                            clip_grad_norm)
from repro.reference import reference_active, reference_mode

ATOL = 1e-12

#: (optimizer class, kwargs, state-buffer attributes to compare)
OPTIMIZERS = [
    pytest.param(Adam, dict(lr=0.01, weight_decay=1e-4), ["_m", "_v"],
                 id="adam-l2"),
    pytest.param(Adam, dict(lr=0.01), ["_m", "_v"], id="adam-plain"),
    pytest.param(AdamW, dict(lr=0.01, weight_decay=1e-2), ["_m", "_v"],
                 id="adamw"),
    pytest.param(SGD, dict(lr=0.05, momentum=0.9, weight_decay=1e-4),
                 ["_velocity"], id="sgd-momentum"),
    pytest.param(SGD, dict(lr=0.05), ["_velocity"], id="sgd-plain"),
    pytest.param(RMSprop, dict(lr=0.01, momentum=0.9, weight_decay=1e-4),
                 ["_square_avg", "_buffer"], id="rmsprop"),
    pytest.param(Adagrad, dict(lr=0.1, weight_decay=1e-4),
                 ["_accumulator"], id="adagrad"),
]


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        gen = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 1, rng=gen)


def run_steps(cls, kwargs, reference, steps=5, grad_clip=None):
    """Train a fixed model on a fixed gradient stream; return model+opt."""
    grads = np.random.default_rng(7)
    model = Net(seed=1)
    arena = model.flatten_parameters()
    optimizer = cls(arena, **kwargs)
    context = (reference_mode("optim") if reference
               else contextlib.nullcontext())
    with context:
        assert reference_active("optim") is reference
        for _ in range(steps):
            arena.grad[:] = grads.normal(size=arena.size) * 10.0
            if grad_clip is not None:
                clip_grad_norm(arena, grad_clip)
            optimizer.step()
    return model, optimizer


@pytest.mark.parametrize("cls, kwargs, buffers", OPTIMIZERS)
class TestFusedMatchesReference:
    def test_parameters_match(self, cls, kwargs, buffers):
        fused, _ = run_steps(cls, kwargs, reference=False)
        loop, _ = run_steps(cls, kwargs, reference=True)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)

    def test_state_buffers_match(self, cls, kwargs, buffers):
        _, fused = run_steps(cls, kwargs, reference=False)
        _, loop = run_steps(cls, kwargs, reference=True)
        for attr in buffers:
            for a, b in zip(getattr(fused, attr), getattr(loop, attr)):
                np.testing.assert_allclose(a, b, rtol=0, atol=ATOL,
                                           err_msg=attr)

    def test_with_clipping(self, cls, kwargs, buffers):
        fused, _ = run_steps(cls, kwargs, reference=False, grad_clip=1.0)
        loop, _ = run_steps(cls, kwargs, reference=True, grad_clip=1.0)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)


class TestPathSwitching:
    def test_paths_share_state_mid_run(self):
        """Alternating paths per step equals staying fused throughout."""
        def run(alternate):
            grads = np.random.default_rng(3)
            model = Net(seed=2)
            arena = model.flatten_parameters()
            optimizer = Adam(arena, lr=0.01, weight_decay=1e-4)
            for step in range(6):
                arena.grad[:] = grads.normal(size=arena.size)
                if alternate and step % 2:
                    with reference_mode("optim"):
                        optimizer.step()
                else:
                    optimizer.step()
            return model

        fused = run(alternate=False)
        mixed = run(alternate=True)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     mixed.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)

    def test_step_count_matches(self):
        _, fused = run_steps(Adam, dict(lr=0.01), reference=False)
        _, loop = run_steps(Adam, dict(lr=0.01), reference=True)
        assert fused._step_count == loop._step_count == 5


class TestClipEquivalence:
    def test_arena_clip_matches_list_clip(self):
        model_a, model_b = Net(seed=4), Net(seed=4)
        arena = model_a.flatten_parameters()
        grads = np.random.default_rng(9)
        flat = grads.normal(size=arena.size) * 10.0
        arena.grad[:] = flat
        offset = 0
        for param in model_b.parameters():
            param.grad = flat[offset:offset + param.size].reshape(param.shape)
            offset += param.size

        norm_arena = clip_grad_norm(arena, 1.0)
        norm_list = clip_grad_norm(model_b.parameters(), 1.0)
        assert norm_arena == pytest.approx(norm_list, rel=1e-12)
        for a, b in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=ATOL)
