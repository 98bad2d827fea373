"""Layer descriptors: the workload side of a simulation.

The convolution parameters follow the Nvidia taxonomy used by the paper
(Table II): ``N`` batch, ``C`` input channels, ``H``/``W`` input rows/cols,
``K`` output channels, ``R``/``S`` filter rows/cols, ``G`` groups,
``P``/``Q`` output rows/cols, plus padding and strides.  STONNE itself
only executes ``N == 1``; batch-N descriptors are accepted here and
modelled by the controllers as N sequential single-batch simulations
(see :meth:`repro.stonne.stats.SimulationStats.repeated`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import LayerError


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise LayerError(f"{name} must be a positive integer, got {value!r}")


def _check_non_negative(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise LayerError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ConvLayer:
    """A 2D convolution workload (Table II of the paper).

    Output dimensions ``P`` and ``Q`` are derived, not stored:  use the
    :attr:`P` and :attr:`Q` properties.
    """

    name: str
    C: int
    H: int
    W: int
    K: int
    R: int
    S: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    G: int = 1
    N: int = 1
    dil_h: int = 1
    dil_w: int = 1
    layout: str = "NCHW"

    def __post_init__(self) -> None:
        for attr in (
            "C", "H", "W", "K", "R", "S",
            "stride_h", "stride_w", "G", "N", "dil_h", "dil_w",
        ):
            _check_positive(attr, getattr(self, attr))
        for attr in ("pad_h", "pad_w"):
            _check_non_negative(attr, getattr(self, attr))
        if self.layout not in ("NCHW", "NHWC"):
            raise LayerError(
                f"layout must be 'NCHW' or 'NHWC', got {self.layout!r} "
                f"for layer {self.name!r}"
            )
        if self.C % self.G or self.K % self.G:
            raise LayerError(
                f"groups G={self.G} must divide C={self.C} and K={self.K} "
                f"for layer {self.name!r}"
            )
        if (
            self.eff_R > self.H + 2 * self.pad_h
            or self.eff_S > self.W + 2 * self.pad_w
        ):
            raise LayerError(
                f"dilated filter ({self.eff_R}x{self.eff_S}) larger than "
                f"padded input "
                f"({self.H + 2 * self.pad_h}x{self.W + 2 * self.pad_w}) "
                f"for layer {self.name!r}"
            )

    @classmethod
    def from_nchw(
        cls, name: str, data_shape, weight_shape, strides, padding,
        groups: int, dilation,
    ) -> "ConvLayer":
        """The workload of an NCHW-data, KCRS-weight convolution."""
        n, c, h, w = data_shape
        k, _, r, s = weight_shape
        return cls(
            name, C=c, H=h, W=w, K=k, R=r, S=s,
            stride_h=int(strides[0]), stride_w=int(strides[1]),
            pad_h=int(padding[0]), pad_w=int(padding[1]),
            G=groups, N=n,
            dil_h=int(dilation[0]), dil_w=int(dilation[1]),
        )

    @property
    def eff_R(self) -> int:
        """Effective (dilated) filter rows: ``(R-1)*dil_h + 1``."""
        return (self.R - 1) * self.dil_h + 1

    @property
    def eff_S(self) -> int:
        """Effective (dilated) filter columns: ``(S-1)*dil_w + 1``."""
        return (self.S - 1) * self.dil_w + 1

    @property
    def P(self) -> int:
        """Number of output rows."""
        return (self.H + 2 * self.pad_h - self.eff_R) // self.stride_h + 1

    @property
    def Q(self) -> int:
        """Number of output columns."""
        return (self.W + 2 * self.pad_w - self.eff_S) // self.stride_w + 1

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations for the layer."""
        return self.N * self.K * self.P * self.Q * self.R * self.S * (self.C // self.G)

    @property
    def output_elements(self) -> int:
        return self.N * self.K * self.P * self.Q

    @property
    def input_elements(self) -> int:
        return self.N * self.C * self.H * self.W

    @property
    def weight_elements(self) -> int:
        return self.K * (self.C // self.G) * self.R * self.S

    def as_gemm(self) -> "GemmLayer":
        """Lower the convolution to the GEMM an im2col transform produces.

        ``M = K`` (one output row per filter), ``K_dim = C·R·S / G`` (the
        reduction), ``N_dim = P·Q`` (one column per output pixel).  This is
        how SIGMA and the TPU execute convolutions (§V-B2 and §V-B3).
        """
        return GemmLayer(
            name=f"{self.name}.im2col",
            M=self.K,
            K=(self.C // self.G) * self.R * self.S,
            N=self.P * self.Q,
        )

    def describe(self) -> str:
        """Human-readable one-liner used by reports."""
        extras = ""
        if self.dil_h != 1 or self.dil_w != 1:
            extras += f" dil=({self.dil_h},{self.dil_w})"
        if self.G != 1:
            extras += f" G={self.G}"
        if self.layout != "NCHW":
            extras += f" layout={self.layout}"
        return (
            f"{self.name}: conv2d C={self.C} H={self.H} W={self.W} K={self.K} "
            f"R={self.R} S={self.S} stride=({self.stride_h},{self.stride_w}) "
            f"pad=({self.pad_h},{self.pad_w}){extras} -> P={self.P} Q={self.Q} "
            f"({self.macs:,} MACs)"
        )


@dataclass(frozen=True)
class FcLayer:
    """A fully connected (dense) workload.

    ``in_features`` is the reduction dimension (the paper's ``T_K`` tiles
    it), ``out_features`` the number of output neurons (``T_S``), and
    ``batch`` the number of input rows (``T_N``; STONNE executes one at a
    time, so batch-N runs as ``batch`` sequential simulations).
    """

    name: str
    in_features: int
    out_features: int
    batch: int = 1

    @classmethod
    def from_shapes(cls, name: str, data_shape, weight_shape) -> "FcLayer":
        """The workload of a dense layer: ``(batch, in)`` data against
        ``(out, in)`` weights."""
        return cls(
            name, in_features=data_shape[1], out_features=weight_shape[0],
            batch=data_shape[0],
        )

    def __post_init__(self) -> None:
        _check_positive("in_features", self.in_features)
        _check_positive("out_features", self.out_features)
        _check_positive("batch", self.batch)

    @property
    def macs(self) -> int:
        return self.batch * self.in_features * self.out_features

    @property
    def output_elements(self) -> int:
        return self.batch * self.out_features

    def as_gemm(self) -> "GemmLayer":
        """The dense operator is a GEMM: (batch x in) @ (in x out)."""
        return GemmLayer(
            name=f"{self.name}.gemm",
            M=self.out_features,
            K=self.in_features,
            N=self.batch,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: dense in={self.in_features} out={self.out_features} "
            f"batch={self.batch} ({self.macs:,} MACs)"
        )


@dataclass(frozen=True)
class GemmLayer:
    """A general matrix multiplication ``(M x K) @ (K x N)``.

    This is the native workload of SIGMA and the lowered form of both
    convolutions (via im2col) and dense layers.
    """

    name: str
    M: int
    K: int
    N: int

    def __post_init__(self) -> None:
        _check_positive("M", self.M)
        _check_positive("K", self.K)
        _check_positive("N", self.N)

    @property
    def macs(self) -> int:
        return self.M * self.K * self.N

    @property
    def output_elements(self) -> int:
        return self.M * self.N

    def describe(self) -> str:
        return f"{self.name}: gemm M={self.M} K={self.K} N={self.N} ({self.macs:,} MACs)"


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; the basic quantity of tiled execution."""
    if b <= 0:
        raise LayerError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def is_power_of_two(x: int) -> bool:
    """True when ``x`` is a positive power of two (Table III's constraint)."""
    return isinstance(x, int) and not isinstance(x, bool) and x > 0 and (x & (x - 1)) == 0


def next_power_of_two(x: int) -> int:
    """Smallest power of two >= ``x`` (used to round bandwidths up)."""
    if x <= 1:
        return 1
    return 1 << math.ceil(math.log2(x))
