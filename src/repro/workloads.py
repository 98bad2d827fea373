"""The Figure 10 workload: one small convolution and the multiplier
counts it is swept over, shared by the Fig. 10 bench and its tests."""

from __future__ import annotations

from typing import List

from repro.stonne.layer import ConvLayer


def fig10_conv() -> ConvLayer:
    """The small convolution of Figure 10.

    The paper specifies a 1x2x10x10 NCHW input with random data but not
    the filter shape; this reproduction fixes K=8 filters of 3x3 (stride
    1, no padding), giving an 8x8 output per filter.
    """
    return ConvLayer("fig10", C=2, H=10, W=10, K=8, R=3, S=3)


def multiplier_sweep() -> List[int]:
    """The multiplier counts Figure 10 sweeps."""
    return [8, 16, 32, 64, 128]
