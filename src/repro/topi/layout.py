"""Tensor layout transformations (paper §V-B, Figures 7 and 8).

Deep-learning frameworks disagree on memory layout: PyTorch defaults to
``NCHW`` activations with ``KCRS`` kernels, TensorFlow to ``NHWC`` with
``RSCK``.  MAERI only consumes ``NHWC``/``RSCK``, so the STONNE-Bifrost
API transposes on the way in and back on the way out; these helpers are
that conversion layer (executed on the CPU, not counted in cycle totals).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LayerError

#: Supported activation layouts.
DATA_LAYOUTS = ("NCHW", "NHWC")
#: Supported kernel layouts and the data layout each pairs with.
KERNEL_LAYOUTS = {"KCRS": "NCHW", "RSCK": "NHWC"}


def _require_4d(name: str, tensor: np.ndarray) -> None:
    if tensor.ndim != 4:
        raise LayerError(f"{name} must be 4-D, got shape {tensor.shape}")


def nchw_to_nhwc(data: np.ndarray) -> np.ndarray:
    """Transpose activations ``(N, C, H, W) -> (N, H, W, C)``."""
    _require_4d("data", data)
    return np.ascontiguousarray(data.transpose(0, 2, 3, 1))


def nhwc_to_nchw(data: np.ndarray) -> np.ndarray:
    """Transpose activations ``(N, H, W, C) -> (N, C, H, W)``."""
    _require_4d("data", data)
    return np.ascontiguousarray(data.transpose(0, 3, 1, 2))


def kcrs_to_rsck(weights: np.ndarray) -> np.ndarray:
    """Transpose kernels ``(K, C, R, S) -> (R, S, C, K)``."""
    _require_4d("weights", weights)
    return np.ascontiguousarray(weights.transpose(2, 3, 1, 0))


def rsck_to_kcrs(weights: np.ndarray) -> np.ndarray:
    """Transpose kernels ``(R, S, C, K) -> (K, C, R, S)``."""
    _require_4d("weights", weights)
    return np.ascontiguousarray(weights.transpose(3, 2, 0, 1))


def check_layout_pair(data_layout: str, kernel_layout: str) -> None:
    """Validate a (data, kernel) layout combination.

    The API supports exactly the two complementary pairs the paper lists:
    ``NCHW``+``KCRS`` and ``NHWC``+``RSCK``.
    """
    if data_layout not in DATA_LAYOUTS:
        raise LayerError(
            f"unsupported data layout {data_layout!r}; expected one of {DATA_LAYOUTS}"
        )
    expected = KERNEL_LAYOUTS.get(kernel_layout)
    if expected is None:
        raise LayerError(
            f"unsupported kernel layout {kernel_layout!r}; "
            f"expected one of {sorted(KERNEL_LAYOUTS)}"
        )
    if expected != data_layout:
        raise LayerError(
            f"kernel layout {kernel_layout!r} pairs with {expected}, "
            f"not {data_layout}"
        )
