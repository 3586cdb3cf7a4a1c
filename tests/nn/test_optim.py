"""Optimizers, schedulers, and gradient clipping."""

import contextlib

import numpy as np
import pytest

from repro.nn import Parameter, Tensor
from repro.nn.arena import ParameterArena
from repro.nn.optim import (SGD, Adam, AdamW, CosineAnnealingLR,
                            ExponentialLR, StepLR, clip_grad_norm)
from repro.reference import reference_mode


def quadratic_loss(param: Parameter) -> Tensor:
    """Convex loss with minimum at 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


def train(optimizer_cls, steps=200, **kwargs) -> Parameter:
    param = Parameter(np.zeros(4))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()
    return param


class TestSGD:
    def test_converges_on_quadratic(self):
        param = train(SGD, lr=0.1)
        np.testing.assert_allclose(param.data, 3.0, atol=1e-4)

    def test_momentum_accelerates(self):
        plain = train(SGD, steps=10, lr=0.01)
        momentum = train(SGD, steps=10, lr=0.01, momentum=0.9)
        loss_plain = float(quadratic_loss(plain).data)
        loss_momentum = float(quadratic_loss(momentum).data)
        assert loss_momentum < loss_plain

    def test_weight_decay_pulls_toward_zero(self):
        param = train(SGD, steps=500, lr=0.05, weight_decay=1.0)
        assert np.all(param.data < 3.0)
        assert np.all(param.data > 0.0)

    def test_skips_params_without_grad(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.ones(2))
        optimizer = SGD([a, b], lr=0.1)
        (a * 2).sum().backward()
        optimizer.step()
        np.testing.assert_array_equal(b.data, np.ones(2))
        assert not np.allclose(a.data, 0.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = train(Adam, steps=400, lr=0.05)
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_first_step_size_equals_lr(self):
        # With bias correction, |Δ| of the very first step ≈ lr.
        param = Parameter(np.zeros(1))
        optimizer = Adam([param], lr=0.1)
        (param * 5.0).sum().backward()
        optimizer.step()
        assert abs(param.data[0]) == pytest.approx(0.1, rel=1e-5)

    def test_adamw_decay_is_decoupled(self):
        # With zero gradient, AdamW still shrinks weights; Adam does not.
        param_adamw = Parameter(np.ones(1))
        param_adam = Parameter(np.ones(1))
        adamw = AdamW([param_adamw], lr=0.1, weight_decay=0.5)
        adam = Adam([param_adam], lr=0.1, weight_decay=0.5)
        param_adamw.grad = np.zeros(1)
        param_adam.grad = np.zeros(1)
        adamw.step()
        adam.step()
        assert param_adamw.data[0] < 1.0
        # Adam folds decay into the gradient and normalises by sqrt(v): the
        # step direction is the same but magnitudes differ.
        assert param_adam.data[0] != param_adamw.data[0]

    def test_adamw_restores_decay_attribute(self):
        param = Parameter(np.ones(1))
        optimizer = AdamW([param], lr=0.1, weight_decay=0.3)
        param.grad = np.ones(1)
        optimizer.step()
        assert optimizer.weight_decay == 0.3


class TestOptimizerValidation:
    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 3.0)            # norm = 6
        returned = clip_grad_norm([param], max_norm=2.0)
        assert returned == pytest.approx(6.0)
        assert np.linalg.norm(param.grad) == pytest.approx(2.0)

    def test_leaves_small_grads_alone(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 0.1)
        norm_before = np.linalg.norm(param.grad)
        clip_grad_norm([param], max_norm=10.0)
        assert np.linalg.norm(param.grad) == pytest.approx(norm_before)

    def test_no_grads_returns_zero(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0

    @pytest.mark.parametrize("path", ["list", "arena", "arena-reference"])
    @pytest.mark.parametrize("max_norm", [0.0, -1.0])
    def test_nonpositive_max_norm_rejected(self, path, max_norm):
        param = Parameter(np.zeros(2))
        arena = ParameterArena([("w", param)])
        param.grad[:] = [3.0, 4.0]
        context = (reference_mode("optim") if path == "arena-reference"
                   else contextlib.nullcontext())
        with context, pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([param] if path == "list" else arena, max_norm)
        np.testing.assert_array_equal(param.grad, [3.0, 4.0])


class TestSchedulers:
    def _optimizer(self):
        return SGD([Parameter(np.zeros(1))], lr=1.0)

    def test_step_lr(self):
        optimizer = self._optimizer()
        scheduler = StepLR(optimizer, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            scheduler.step()
            lrs.append(optimizer.lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_step_lr_validation(self):
        with pytest.raises(ValueError):
            StepLR(self._optimizer(), step_size=0)

    def test_exponential_lr(self):
        optimizer = self._optimizer()
        scheduler = ExponentialLR(optimizer, gamma=0.5)
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.5)
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.25)

    def test_cosine_reaches_eta_min(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.01)
        for _ in range(10):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.01)

    def test_cosine_monotone_decreasing(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, t_max=5)
        previous = optimizer.lr
        for _ in range(5):
            scheduler.step()
            assert optimizer.lr <= previous
            previous = optimizer.lr

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(), t_max=0)
