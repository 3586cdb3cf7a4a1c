"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

These are the ops that do not fit naturally as tensor methods: multi-input
ops (``concat``, ``stack``, ``where``, ``einsum``), view fan-outs
(``split``, ``unbind`` — shared-buffer backward), normalised activations
(``softmax``, ``log_softmax``), convolution kernels (im2col-based, backed
by :mod:`repro.nn.kernels`), and stochastic ops (``dropout``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels as _kernels
# Imported after .tensor so the obs package (whose stats module pulls in
# the profiler, and with it the tensor module) never re-enters a partially
# initialised import; kernels.py itself stays obs-free for the same reason.
from .tensor import Tensor, is_grad_enabled, unbroadcast
from ..obs.spans import span
from ..reference import _REFERENCE

__all__ = [
    "relu", "leaky_relu", "sigmoid", "tanh", "softmax", "log_softmax", "gelu",
    "concat", "stack", "split", "unbind", "where", "einsum", "dropout",
    "conv2d", "conv1d", "unfold2d", "huber",
]


# --------------------------------------------------------------------- #
# thin wrappers so models can use a functional style
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate GELU."""
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward, "log_softmax")


# --------------------------------------------------------------------- #
# multi-input ops
# --------------------------------------------------------------------- #
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            t._accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward, "stack")


def _slice_views(x: Tensor, indices: Sequence[tuple], op: str) -> list[Tensor]:
    """Basic-index views of ``x`` whose gradients share one buffer.

    Naively, N views of one tensor cost N full-size zero allocations on the
    backward pass (one per ``getitem`` node).  Here every view writes its
    gradient slice into a single shared buffer held by an *anchor* node
    that sits between ``x`` and the views; reverse-topological order
    guarantees all views run before the anchor, which then hands the
    buffer to ``x`` in one pass.  In reference-kernel mode the views fall
    back to plain ``getitem`` nodes (the pre-optimisation behaviour).
    """
    if (not x.requires_grad or not is_grad_enabled()
            or "kernels" in _REFERENCE):
        return [x[idx] for idx in indices]

    def anchor_backward(g: np.ndarray) -> None:
        x._accumulate(g)

    anchor = Tensor._make(x.data, (x,), anchor_backward, op)
    shape, dtype = x.shape, x.data.dtype
    views = []
    for idx in indices:
        def view_backward(g: np.ndarray, idx=idx) -> None:
            if anchor.grad is None:
                anchor.grad = np.zeros(shape, dtype=dtype)
            anchor.grad[idx] += g

        views.append(Tensor._make(x.data[idx], (anchor,), view_backward, op))
    return views


def split(x: Tensor, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into ``sections`` equal chunks along ``axis``.

    The chunks' backward passes accumulate through one shared buffer (see
    :func:`_slice_views`), so a split costs a single full-size gradient
    allocation instead of one per chunk — and never hits ``np.add.at``.
    """
    if x.shape[axis] % sections != 0:
        raise ValueError(
            f"axis {axis} of size {x.shape[axis]} is not divisible by {sections}")
    size = x.shape[axis] // sections
    prefix = (slice(None),) * (axis % x.ndim)
    indices = [prefix + (slice(i * size, (i + 1) * size),)
               for i in range(sections)]
    return _slice_views(x, indices, "split")


def unbind(x: Tensor, axis: int = 0) -> list[Tensor]:
    """Unpack ``x`` into views along ``axis`` (like ``torch.unbind``).

    ``unbind(x, 1)[t]`` equals ``x[:, t]``; the recurrent stacks and
    seq2seq codecs use it so that T per-step slices cost one shared
    gradient buffer on the backward pass instead of T full-size scatters.
    """
    axis = range(x.ndim)[axis]          # normalises and bounds-checks
    prefix = (slice(None),) * axis
    indices = [prefix + (i,) for i in range(x.shape[axis])]
    return _slice_views(x, indices, "unbind")


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain bool array."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(unbroadcast(np.where(condition, g, 0.0), a.shape))
        b._accumulate(unbroadcast(np.where(condition, 0.0, g), b.shape))

    return Tensor._make(out_data, (a, b), backward, "where")


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with autograd.

    The gradient w.r.t. each operand is itself an einsum with permuted
    subscripts (``out,other->operand``).  This requires every index of an
    operand to appear in the output or the other operand, and no repeated
    indices within one operand — which holds for all graph-convolution
    contractions used in this package.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if "..." in subscripts:
        raise ValueError("ellipsis subscripts are not supported")
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    a_sub, b_sub = lhs.split(",")
    if len(set(a_sub)) != len(a_sub) or len(set(b_sub)) != len(b_sub):
        raise ValueError("repeated indices within one operand are not supported")
    for idx in a_sub:
        if idx not in out_sub and idx not in b_sub:
            raise ValueError(f"index {idx!r} of first operand is summed alone")
    for idx in b_sub:
        if idx not in out_sub and idx not in a_sub:
            raise ValueError(f"index {idx!r} of second operand is summed alone")

    out_data = np.einsum(subscripts, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data))
        b._accumulate(np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a.data))

    return Tensor._make(out_data, (a, b), backward, "einsum")


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at eval time."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(x.data * mask, (x,), backward, "dropout")


def huber(x: Tensor, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty of ``x`` (used by masked losses)."""
    abs_data = np.abs(x.data)
    quadratic = abs_data <= delta
    out_data = np.where(quadratic, 0.5 * x.data ** 2,
                        delta * (abs_data - 0.5 * delta))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * np.where(quadratic, x.data, delta * np.sign(x.data)))

    return Tensor._make(out_data, (x,), backward, "huber")


# --------------------------------------------------------------------- #
# convolution (im2col — see repro.nn.kernels for the index cache and the
# fast col2im scatter)
# --------------------------------------------------------------------- #
def unfold2d(x_data: np.ndarray, kernel: tuple[int, int],
             stride: tuple[int, int] = (1, 1),
             dilation: tuple[int, int] = (1, 1)):
    """im2col on raw data: (B, C, H, W) -> (B, C*kh*kw, L), plus out shape."""
    return _kernels.im2col(x_data, kernel, stride, dilation)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0),
           dilation: tuple[int, int] = (1, 1)) -> Tensor:
    """2-D convolution.

    ``x``: (B, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.  Padding is symmetric zero padding.

    The im2col index grids are cached per geometry, the three matrix
    contractions run on BLAS (:func:`repro.nn.kernels.conv_forward_contract`
    and friends), and the backward input scatter uses the vectorised
    :func:`repro.nn.kernels.col2im` (strided slice adds / bincount) rather
    than ``np.add.at``.
    """
    stride = (int(stride[0]), int(stride[1]))
    dilation = (int(dilation[0]), int(dilation[1]))
    if padding != (0, 0):
        x = x.pad(((0, 0), (0, 0), (padding[0], padding[0]),
                   (padding[1], padding[1])))
    batch, c_in, height, width = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")

    with span("kernel/conv2d", batch=batch, kernel=(kh, kw)):
        rows, cols, out_h, out_w = _kernels.col_indices(
            height, width, (kh, kw), stride, dilation)
        patches = x.data[:, :, rows, cols]                    # (B, C, K, L)
        cols_mat = patches.reshape(batch, c_in * kh * kw, -1)  # (B, CK, L)
        w_mat = weight.data.reshape(c_out, -1)                # (Cout, CK)
        out_data = _kernels.conv_forward_contract(w_mat, cols_mat)
        if bias is not None:
            out_data = out_data + bias.data[None, :, None]
        out_data = out_data.reshape(batch, c_out, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        with span("kernel/conv2d_backward", batch=batch, kernel=(kh, kw)):
            g_mat = g.reshape(batch, c_out, -1)              # (B, Cout, L)
            # weight grad
            gw = _kernels.conv_weight_grad_contract(g_mat, cols_mat)
            weight._accumulate(gw.reshape(weight.shape))
            if bias is not None:
                bias._accumulate(g_mat.sum(axis=(0, 2)))
            # input grad: scatter columns back
            g_cols = _kernels.conv_col_grad_contract(w_mat, g_mat)
            g_cols = g_cols.reshape(batch, c_in, kh * kw, -1)
            col2im = (_kernels.col2im_reference if "kernels" in _REFERENCE
                      else _kernels.col2im)
            gx = col2im(g_cols, (batch, c_in, height, width), (kh, kw),
                        stride, dilation)
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward, "conv2d")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, dilation: int = 1) -> Tensor:
    """1-D convolution via conv2d.  ``x``: (B, C, L); ``weight``: (Cout, Cin, k)."""
    x4 = x.expand_dims(2)                                 # (B, C, 1, L)
    w4 = weight.expand_dims(2)                            # (Cout, Cin, 1, k)
    out = conv2d(x4, w4, bias, stride=(1, stride),
                 padding=(0, padding), dilation=(1, dilation))
    return out.squeeze(2)
