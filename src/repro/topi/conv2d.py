"""Reference conv2d implementations (the CPU "TOPI" operators).

Two algorithmic primitives, as TVM's operator inventory provides:

* :func:`conv2d_direct_nchw` — a straightforward 7-loop convolution,
  trusted as ground truth in the test suite;
* :func:`conv2d_im2col_nchw` — the GEMM-convolution primitive the
  accelerators use (§V-B2), vectorized with NumPy for actual speed.

Both support strides, zero padding, dilation and grouped convolution.
NHWC variants wrap the NCHW ones through the layout helpers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import LayerError
from repro.topi.layout import kcrs_to_rsck, nchw_to_nhwc, nhwc_to_nchw, rsck_to_kcrs


def conv2d_output_shape(
    data_shape: Tuple[int, int, int, int],
    weight_shape: Tuple[int, int, int, int],
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> Tuple[int, int, int, int]:
    """Output shape of an NCHW conv2d; raises on inconsistent shapes."""
    n, c, h, w = data_shape
    k, c_per_g, r, s = weight_shape
    if groups < 1:
        raise LayerError(f"groups must be >= 1, got {groups}")
    if c % groups or k % groups:
        raise LayerError(f"groups={groups} must divide C={c} and K={k}")
    if c_per_g != c // groups:
        raise LayerError(
            f"weight channels {c_per_g} != C/groups = {c // groups}"
        )
    stride_h, stride_w = strides
    pad_h, pad_w = padding
    dil_h, dil_w = dilation
    eff_r = (r - 1) * dil_h + 1
    eff_s = (s - 1) * dil_w + 1
    p = (h + 2 * pad_h - eff_r) // stride_h + 1
    q = (w + 2 * pad_w - eff_s) // stride_w + 1
    if p < 1 or q < 1:
        raise LayerError(
            f"conv2d output would be empty: input {h}x{w}, filter {r}x{s}, "
            f"stride {strides}, pad {padding}, dilation {dilation}"
        )
    return (n, k, p, q)


def conv2d_direct_nchw(
    data: np.ndarray,
    weights: np.ndarray,
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """Direct (naive loop) NCHW convolution; the ground-truth operator."""
    n, k, p, q = conv2d_output_shape(
        data.shape, weights.shape, strides, padding, dilation, groups
    )
    c = data.shape[1]
    _, c_per_g, r, s = weights.shape
    stride_h, stride_w = strides
    pad_h, pad_w = padding
    dil_h, dil_w = dilation
    padded = np.pad(
        data, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), mode="constant"
    )
    out = np.zeros((n, k, p, q), dtype=np.result_type(data, weights))
    k_per_g = k // groups
    for img in range(n):
        for ko in range(k):
            g = ko // k_per_g
            for pi in range(p):
                for qi in range(q):
                    acc = 0.0
                    for ci in range(c_per_g):
                        for ri in range(r):
                            for si in range(s):
                                hi = pi * stride_h + ri * dil_h
                                wi = qi * stride_w + si * dil_w
                                acc += (
                                    padded[img, g * c_per_g + ci, hi, wi]
                                    * weights[ko, ci, ri, si]
                                )
                    out[img, ko, pi, qi] = acc
    return out


def im2col_nchw(
    data: np.ndarray,
    filter_shape: Tuple[int, int],
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Unfold an NCHW tensor into the ``(N, C*R*S, P*Q)`` im2col matrix."""
    n, c, h, w = data.shape
    r, s = filter_shape
    stride_h, stride_w = strides
    pad_h, pad_w = padding
    dil_h, dil_w = dilation
    eff_r = (r - 1) * dil_h + 1
    eff_s = (s - 1) * dil_w + 1
    p = (h + 2 * pad_h - eff_r) // stride_h + 1
    q = (w + 2 * pad_w - eff_s) // stride_w + 1
    if p < 1 or q < 1:
        raise LayerError("im2col would produce an empty output")
    padded = np.pad(
        data, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), mode="constant"
    )
    # Vectorized unfold: sliding_window_view materializes no copies; the
    # dilation/stride subsampling and one transpose+reshape produce the
    # (ci, ri, si)-ordered rows for every batch element at once.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (eff_r, eff_s), axis=(2, 3)
    )
    strided = windows[:, :, ::stride_h, ::stride_w, ::dil_h, ::dil_w]
    # (n, c, p, q, r, s) -> (n, c, r, s, p, q) -> (n, c*r*s, p*q)
    return np.ascontiguousarray(strided.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c * r * s, p * q
    )


def conv2d_im2col_nchw(
    data: np.ndarray,
    weights: np.ndarray,
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """NCHW convolution through the im2col GEMM primitive (fast path)."""
    n, k, p, q = conv2d_output_shape(
        data.shape, weights.shape, strides, padding, dilation, groups
    )
    c = data.shape[1]
    _, c_per_g, r, s = weights.shape
    k_per_g = k // groups
    out = np.empty((n, k, p, q), dtype=np.result_type(data, weights))
    # Each group's GEMM writes straight into its (n, k/G, p*q) view of out.
    out_cols = out.reshape(n, groups, k_per_g, p * q)
    for g in range(groups):
        cols = im2col_nchw(
            data[:, g * c_per_g : (g + 1) * c_per_g],
            (r, s),
            strides,
            padding,
            dilation,
        )
        w_mat = weights[g * k_per_g : (g + 1) * k_per_g].reshape(k_per_g, -1)
        np.matmul(w_mat, cols, out=out_cols[:, g])
    return out


def conv2d_nchw(
    data: np.ndarray,
    weights: np.ndarray,
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """The default NCHW conv2d operator (im2col under the hood)."""
    return conv2d_im2col_nchw(data, weights, strides, padding, dilation, groups)


def conv2d_nhwc(
    data: np.ndarray,
    weights: np.ndarray,
    strides: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """NHWC/RSCK conv2d, implemented by transposing around the NCHW core."""
    out_nchw = conv2d_nchw(
        nhwc_to_nchw(data), rsck_to_kcrs(weights), strides, padding, dilation, groups
    )
    return nchw_to_nhwc(out_nchw)
