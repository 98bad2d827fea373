"""Operator inventory (TOPI stand-in): NumPy reference implementations.

Operators are reached two ways: directly (tests and ground truth) or via
the strategy registry in :mod:`repro.topi.registry`, which the graph
executor queries per (op, target).
"""

from repro.topi.activations import (
    apply_activation,
    dropout_inference,
    leaky_relu,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.topi.conv2d import (
    conv2d_direct_nchw,
    conv2d_im2col_nchw,
    conv2d_nchw,
    conv2d_nhwc,
    conv2d_output_shape,
    im2col_nchw,
)
from repro.topi.dense import bias_add, dense, matmul
from repro.topi.layout import (
    check_layout_pair,
    kcrs_to_rsck,
    nchw_to_nhwc,
    nhwc_to_nchw,
    rsck_to_kcrs,
)
from repro.topi.normalization import (
    batch_norm_inference,
    fold_batch_norm_into_conv,
    lrn,
)
from repro.topi.pooling import adaptive_avg_pool2d, avg_pool2d, flatten, max_pool2d
from repro.topi.registry import (
    has_op,
    lookup_op,
    register_op,
    registered_ops,
    unregister_op,
)

__all__ = [
    "adaptive_avg_pool2d",
    "apply_activation",
    "avg_pool2d",
    "batch_norm_inference",
    "bias_add",
    "check_layout_pair",
    "conv2d_direct_nchw",
    "conv2d_im2col_nchw",
    "conv2d_nchw",
    "conv2d_nhwc",
    "conv2d_output_shape",
    "dense",
    "dropout_inference",
    "flatten",
    "fold_batch_norm_into_conv",
    "has_op",
    "im2col_nchw",
    "kcrs_to_rsck",
    "leaky_relu",
    "log_softmax",
    "lookup_op",
    "lrn",
    "matmul",
    "max_pool2d",
    "nchw_to_nhwc",
    "nhwc_to_nchw",
    "register_op",
    "registered_ops",
    "relu",
    "rsck_to_kcrs",
    "sigmoid",
    "softmax",
    "tanh",
    "unregister_op",
]
