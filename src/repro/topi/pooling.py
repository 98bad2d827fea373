"""Pooling and spatial reshaping operators.

These layers stay on the CPU in Bifrost (only conv2d/dense are
accelerated), but AlexNet needs them for end-to-end execution: max
pooling, average pooling, adaptive average pooling and flatten.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import LayerError


def _pool_prepare(
    data: np.ndarray,
    pool_size: Tuple[int, int],
    strides: Tuple[int, int],
    padding: Tuple[int, int],
    pad_value: float,
) -> Tuple[np.ndarray, int, int]:
    if data.ndim != 4:
        raise LayerError(f"pooling expects NCHW input, got shape {data.shape}")
    r, s = pool_size
    stride_h, stride_w = strides
    pad_h, pad_w = padding
    if r < 1 or s < 1 or stride_h < 1 or stride_w < 1:
        raise LayerError(
            f"pool_size and strides must be >= 1, got {pool_size}, {strides}"
        )
    h, w = data.shape[2], data.shape[3]
    p = (h + 2 * pad_h - r) // stride_h + 1
    q = (w + 2 * pad_w - s) // stride_w + 1
    if p < 1 or q < 1:
        raise LayerError(
            f"pooling output would be empty: input {h}x{w}, window {r}x{s}"
        )
    if pad_h == pad_w == 0:
        return data, p, q  # only read, so no copy is needed
    padded = np.pad(
        data,
        ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
        mode="constant",
        constant_values=pad_value,
    )
    return padded, p, q


def max_pool2d(
    data: np.ndarray,
    pool_size: Tuple[int, int] = (2, 2),
    strides: Tuple[int, int] = (2, 2),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """NCHW max pooling (padding contributes -inf, never winning)."""
    padded, p, q = _pool_prepare(data, pool_size, strides, padding, -np.inf)
    r, s = pool_size
    stride_h, stride_w = strides
    n, c = data.shape[0], data.shape[1]
    out = np.full((n, c, p, q), -np.inf, dtype=np.float64)
    for ri in range(r):
        for si in range(s):
            window = padded[
                :, :, ri : ri + p * stride_h : stride_h, si : si + q * stride_w : stride_w
            ]
            np.maximum(out, window, out=out)
    return out.astype(np.result_type(data), copy=False)


def avg_pool2d(
    data: np.ndarray,
    pool_size: Tuple[int, int] = (2, 2),
    strides: Tuple[int, int] = (2, 2),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """NCHW average pooling (count includes padding, like PyTorch default)."""
    padded, p, q = _pool_prepare(data, pool_size, strides, padding, 0.0)
    r, s = pool_size
    stride_h, stride_w = strides
    n, c = data.shape[0], data.shape[1]
    out = np.zeros((n, c, p, q), dtype=np.float64)
    for ri in range(r):
        for si in range(s):
            out += padded[
                :, :, ri : ri + p * stride_h : stride_h, si : si + q * stride_w : stride_w
            ]
    out /= r * s
    return out.astype(np.result_type(data), copy=False)


def adaptive_avg_pool2d(data: np.ndarray, output_size: Tuple[int, int]) -> np.ndarray:
    """NCHW adaptive average pooling to a fixed spatial ``output_size``."""
    if data.ndim != 4:
        raise LayerError(f"pooling expects NCHW input, got shape {data.shape}")
    n, c, h, w = data.shape
    out_h, out_w = output_size
    if out_h < 1 or out_w < 1:
        raise LayerError(f"output_size must be >= 1, got {output_size}")
    out = np.empty((n, c, out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        h0 = (i * h) // out_h
        h1 = -(-((i + 1) * h) // out_h)
        for j in range(out_w):
            w0 = (j * w) // out_w
            w1 = -(-((j + 1) * w) // out_w)
            out[:, :, i, j] = data[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    return out.astype(np.result_type(data), copy=False)


def flatten(data: np.ndarray) -> np.ndarray:
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""
    if data.ndim < 2:
        raise LayerError(f"flatten expects >= 2-D input, got shape {data.shape}")
    return data.reshape(data.shape[0], -1)
