"""Normalization operators: batch norm (inference) and AlexNet's LRN."""

from __future__ import annotations

import numpy as np

from repro.errors import LayerError


def batch_norm_inference(
    data: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    epsilon: float = 1e-5,
    axis: int = 1,
) -> np.ndarray:
    """Inference-mode batch normalization along ``axis`` (channel)."""
    channels = data.shape[axis]
    for name, param in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if param.shape != (channels,):
            raise LayerError(
                f"batch_norm {name} shape {param.shape} does not match "
                f"channel count {channels}"
            )
    shape = [1] * data.ndim
    shape[axis] = channels
    scale = gamma / np.sqrt(var + epsilon)
    shift = beta - mean * scale
    return data * scale.reshape(shape) + shift.reshape(shape)


def fold_batch_norm_into_conv(
    weights: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    epsilon: float = 1e-5,
) -> tuple:
    """Fold an inference batch norm into the preceding conv's parameters.

    Returns ``(folded_weights, folded_bias)`` such that
    ``bn(conv(x, W) + b) == conv(x, W') + b'``.  This is the graph-level
    fusion Bifrost inherits from TVM (§IV: "fusion of batch normalization
    layers").
    """
    if weights.ndim != 4:
        raise LayerError(f"conv weights must be KCRS, got shape {weights.shape}")
    k = weights.shape[0]
    if bias.shape != (k,):
        raise LayerError(f"conv bias shape {bias.shape} does not match K={k}")
    scale = gamma / np.sqrt(var + epsilon)
    folded_weights = weights * scale.reshape(k, 1, 1, 1)
    folded_bias = (bias - mean) * scale + beta
    return folded_weights, folded_bias


def lrn(
    data: np.ndarray,
    size: int = 5,
    alpha: float = 1e-4,
    beta: float = 0.75,
    k: float = 2.0,
) -> np.ndarray:
    """Local response normalization across channels (AlexNet's LRN).

    PyTorch semantics: the squared sum over a window of ``size`` channels
    is averaged (divided by ``size``) before scaling.
    """
    if data.ndim != 4:
        raise LayerError(f"lrn expects NCHW input, got shape {data.shape}")
    if size < 1:
        raise LayerError(f"lrn size must be >= 1, got {size}")
    c = data.shape[1]
    squared = data.astype(np.float64) ** 2
    sums = np.zeros_like(squared)
    half = size // 2
    for ch in range(c):
        lo = max(0, ch - half)
        hi = min(c, ch + half + 1)
        sums[:, ch] = squared[:, lo:hi].sum(axis=1)
    denom = (k + alpha * sums / size) ** beta
    return (data / denom).astype(np.result_type(data), copy=False)
