"""Shared convolution kernel machinery: cached im2col and fast col2im.

Every conv-based model in the zoo (STGCN, Graph-WaveNet, ASTGCN, STSGCN)
funnels through :func:`repro.nn.functional.conv2d`, so the speed of the
im2col gather and — above all — the col2im scatter in the backward pass
sets the floor for every Table III-style cost comparison.  This module
keeps that floor close to the numpy speed-of-light:

- :func:`col_indices` builds the im2col row/column index grids once per
  geometry ``(H, W, kernel, stride, dilation)`` and caches them (the grids
  are read-only so cache hits are safe to share between calls).
- :func:`col2im` scatters column gradients back to the input *without*
  ``np.add.at``: for each of the ``kh*kw`` kernel taps, the output grid
  maps to a strided, overlap-free view of the input, so the scatter is a
  handful of vectorised in-place adds.  The ``(1, k)`` stride-1 temporal
  kernels the TCN models use reduce to ``k`` shifted adds along the time
  axis.  Kernels with very many taps switch to a single flat
  ``np.bincount`` scatter instead.
- :func:`col2im_reference` is the original ``np.add.at`` implementation,
  kept as the ground truth for the equivalence tests and as the baseline
  the kernel benchmarks measure speedups against.
- :func:`conv_forward_contract`, :func:`conv_weight_grad_contract`, and
  :func:`conv_col_grad_contract` route the three conv contractions through
  BLAS (``matmul``/``tensordot``) instead of ``np.einsum``'s generic
  sum-of-products loops; the reference mode keeps the einsum paths.

``reference_mode("kernels")`` (:mod:`repro.reference`) switches the whole
engine (conv scatter, index caching, basic-index gradients,
``unbind``/``split`` views) back to the pre-optimisation reference paths so
a single process can time "before" and "after" honestly — see
``repro bench kernels`` and ``docs/performance.md``.
"""

from __future__ import annotations

import functools

import numpy as np

from ..reference import _REFERENCE

__all__ = [
    "col_indices", "col_indices_cache_info", "clear_col_indices_cache",
    "im2col", "col2im", "col2im_reference",
    "conv_forward_contract", "conv_weight_grad_contract",
    "conv_col_grad_contract",
]

# Taps beyond this count make one flat bincount cheaper than per-tap adds.
_BINCOUNT_TAP_THRESHOLD = 64


# --------------------------------------------------------------------- #
# im2col index grids (cached per geometry)
# --------------------------------------------------------------------- #
def _build_col_indices(height: int, width: int, kh: int, kw: int,
                       stride: tuple[int, int], dilation: tuple[int, int]):
    sh, sw = stride
    dh, dw = dilation
    out_h = (height - dh * (kh - 1) - 1) // sh + 1
    out_w = (width - dw * (kw - 1) - 1) // sw + 1
    i0 = dh * np.repeat(np.arange(kh), kw)
    j0 = dw * np.tile(np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    rows = i0[:, None] + i1[None, :]          # (kh*kw, out_h*out_w)
    cols = j0[:, None] + j1[None, :]
    return rows, cols, out_h, out_w


@functools.lru_cache(maxsize=256)
def _cached_col_indices(height: int, width: int, kh: int, kw: int,
                        stride: tuple[int, int], dilation: tuple[int, int]):
    rows, cols, out_h, out_w = _build_col_indices(
        height, width, kh, kw, stride, dilation)
    # Cache entries are shared between callers; freeze them so an
    # accidental in-place edit cannot corrupt every later convolution.
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, out_h, out_w


def col_indices(height: int, width: int, kernel: tuple[int, int],
                stride: tuple[int, int] = (1, 1),
                dilation: tuple[int, int] = (1, 1)):
    """im2col gather indices for one convolution geometry.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows``/``cols`` are
    ``(kh*kw, out_h*out_w)`` index grids.  Results are cached per geometry
    (and returned read-only); in reference mode the grids are rebuilt on
    every call, matching the pre-optimisation engine.
    """
    kh, kw = kernel
    key = (int(height), int(width), int(kh), int(kw),
           (int(stride[0]), int(stride[1])),
           (int(dilation[0]), int(dilation[1])))
    if "kernels" in _REFERENCE:
        return _build_col_indices(*key)
    return _cached_col_indices(*key)


def col_indices_cache_info():
    """``functools`` cache statistics for the index-grid cache."""
    return _cached_col_indices.cache_info()


def clear_col_indices_cache() -> None:
    """Drop all cached index grids (tests and memory-pressure hooks)."""
    _cached_col_indices.cache_clear()


# --------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------- #
def im2col(x_data: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)):
    """Gather patches: ``(B, C, H, W) -> (B, C*kh*kw, L)`` plus out shape."""
    batch, channels, height, width = x_data.shape
    kh, kw = kernel
    rows, cols, out_h, out_w = col_indices(height, width, kernel,
                                           stride, dilation)
    patches = x_data[:, :, rows, cols]         # (B, C, kh*kw, L)
    return patches.reshape(batch, channels * kh * kw, -1), out_h, out_w


def _out_grid(height: int, width: int, kh: int, kw: int,
              stride: tuple[int, int], dilation: tuple[int, int]):
    sh, sw = stride
    dh, dw = dilation
    out_h = (height - dh * (kh - 1) - 1) // sh + 1
    out_w = (width - dw * (kw - 1) - 1) // sw + 1
    return out_h, out_w


def col2im(g_cols: np.ndarray, shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back onto the input.

    ``g_cols`` is ``(B, C, kh*kw, L)`` with ``L = out_h*out_w``; the result
    has ``shape = (B, C, H, W)``.  For any stride, the ``L`` output
    positions of one kernel tap land on *distinct* input cells, so the
    scatter decomposes into ``kh*kw`` overlap-free strided-slice adds — no
    ``np.add.at``.  Degenerate many-tap kernels fall back to one flat
    :func:`np.bincount` scatter.
    """
    batch, channels, height, width = shape
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    out_h, out_w = _out_grid(height, width, kh, kw, stride, dilation)
    if kh * kw > _BINCOUNT_TAP_THRESHOLD:
        return _col2im_bincount(g_cols, shape, kernel, stride, dilation)
    g = g_cols.reshape(batch, channels, kh, kw, out_h, out_w)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    for ki in range(kh):
        row = dh * ki
        row_slice = slice(row, row + sh * out_h, sh)
        for kj in range(kw):
            col = dw * kj
            gx[:, :, row_slice, col:col + sw * out_w:sw] += g[:, :, ki, kj]
    return gx


def _col2im_bincount(g_cols: np.ndarray, shape: tuple[int, int, int, int],
                     kernel: tuple[int, int], stride: tuple[int, int],
                     dilation: tuple[int, int]) -> np.ndarray:
    """Flat ``np.bincount`` scatter — one pass regardless of tap count."""
    batch, channels, height, width = shape
    rows, cols, _, _ = col_indices(height, width, kernel, stride, dilation)
    plane = height * width
    spatial = (rows * width + cols).ravel()                 # (K*L,)
    flat = g_cols.reshape(batch * channels, -1)
    index = (np.arange(batch * channels)[:, None] * plane
             + spatial[None, :]).ravel()
    summed = np.bincount(index, weights=flat.ravel(),
                         minlength=batch * channels * plane)
    return summed.reshape(shape).astype(g_cols.dtype, copy=False)


def col2im_reference(g_cols: np.ndarray, shape: tuple[int, int, int, int],
                     kernel: tuple[int, int],
                     stride: tuple[int, int] = (1, 1),
                     dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Original ``np.add.at`` scatter — ground truth for equivalence tests
    and the baseline for the kernel benchmarks."""
    batch, channels, height, width = shape
    kh, kw = kernel
    rows, cols, _, _ = col_indices(height, width, kernel, stride, dilation)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    np.add.at(gx, (slice(None), slice(None), rows, cols),
              g_cols.reshape(batch, channels, kh * kw, -1))
    return gx


# --------------------------------------------------------------------- #
# conv contractions — BLAS GEMMs on the fast path, the original
# ``np.einsum`` sum-of-products loops on the reference path.
# --------------------------------------------------------------------- #
def conv_forward_contract(w_mat: np.ndarray,
                          cols_mat: np.ndarray) -> np.ndarray:
    """``(Cout, CK) @ (B, CK, L) -> (B, Cout, L)`` output contraction."""
    if "kernels" in _REFERENCE:
        return np.einsum("ok,bkl->bol", w_mat, cols_mat)
    return np.matmul(w_mat, cols_mat)


def conv_weight_grad_contract(g_mat: np.ndarray,
                              cols_mat: np.ndarray) -> np.ndarray:
    """``(B, Cout, L) x (B, CK, L) -> (Cout, CK)`` weight gradient."""
    if "kernels" in _REFERENCE:
        return np.einsum("bol,bkl->ok", g_mat, cols_mat)
    return np.tensordot(g_mat, cols_mat, axes=([0, 2], [0, 2]))


def conv_col_grad_contract(w_mat: np.ndarray,
                           g_mat: np.ndarray) -> np.ndarray:
    """``(Cout, CK).T @ (B, Cout, L) -> (B, CK, L)`` column gradient."""
    if "kernels" in _REFERENCE:
        return np.einsum("ok,bol->bkl", w_mat, g_mat)
    return np.matmul(w_mat.T, g_mat)
