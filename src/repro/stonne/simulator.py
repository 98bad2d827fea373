"""The exact functional datapath behind every simulated conv2d.

The datapath is mapping-invariant — a mapping changes *when* each MAC
happens, never its value — so outputs are produced by an exact im2col
GEMM while the cycle/psum accounting (the registered controllers of
:mod:`repro.stonne.controller`) follows the mapping.  The Bifrost API
(:mod:`repro.bifrost.api`) pairs the two for every offloaded layer, and
the test suite verifies its outputs against the :mod:`repro.topi`
reference implementations for every architecture, which is the
correctness check Bifrost performs through TVM.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.stonne.layer import ConvLayer
from repro.topi.conv2d import im2col_nchw


def _im2col(data: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Lower an NCHW input batch to its (N, C*R*S, P*Q) im2col matrices.

    Shape validation against the layer descriptor, then the canonical
    (vectorized) :func:`repro.topi.conv2d.im2col_nchw` unfold.
    """
    n, c, h, w = data.shape
    if (c, h, w) != (layer.C, layer.H, layer.W):
        raise SimulationError(
            f"input shape {data.shape} does not match layer "
            f"(N,{layer.C},{layer.H},{layer.W})"
        )
    return im2col_nchw(
        data,
        (layer.R, layer.S),
        strides=(layer.stride_h, layer.stride_w),
        padding=(layer.pad_h, layer.pad_w),
        dilation=(layer.dil_h, layer.dil_w),
    )


def _conv_via_gemm(
    data: np.ndarray, weights: np.ndarray, layer: ConvLayer
) -> np.ndarray:
    """Exact NCHW convolution through the im2col GEMM primitive.

    ``weights`` is KCRS.  Grouped convolutions slice channel blocks and
    run one GEMM per group, the same decomposition STONNE uses.  Every
    batch element is computed (the GEMM broadcasts over the batch axis),
    even though the simulated architectures only accept ``N == 1``.
    """
    k, c_per_g, r, s = weights.shape
    if (k, c_per_g, r, s) != (layer.K, layer.C // layer.G, layer.R, layer.S):
        raise SimulationError(
            f"weight shape {weights.shape} does not match layer "
            f"({layer.K},{layer.C // layer.G},{layer.R},{layer.S})"
        )
    n = data.shape[0]
    p, q = layer.P, layer.Q
    out = np.empty((n, layer.K, p, q), dtype=np.result_type(data, weights))
    k_per_g = layer.K // layer.G
    for g in range(layer.G):
        sub_layer = ConvLayer(
            name=layer.name,
            C=c_per_g,
            H=layer.H,
            W=layer.W,
            K=k_per_g,
            R=r,
            S=s,
            stride_h=layer.stride_h,
            stride_w=layer.stride_w,
            pad_h=layer.pad_h,
            pad_w=layer.pad_w,
            dil_h=layer.dil_h,
            dil_w=layer.dil_w,
        )
        cols = _im2col(
            data[:, g * c_per_g : (g + 1) * c_per_g], sub_layer
        )
        w_mat = weights[g * k_per_g : (g + 1) * k_per_g].reshape(k_per_g, -1)
        out[:, g * k_per_g : (g + 1) * k_per_g] = (w_mat @ cols).reshape(
            n, k_per_g, p, q
        )
    return out
