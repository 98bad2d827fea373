"""Modern workloads the paper's experiment matrix lacks.

The paper evaluates classic CNNs and MLPs only; these entries exercise
the cycle models on the layer shapes newer networks are built from.

A transformer encoder block, depthwise-separable and grouped
convolutions, and dilated plus NHWC-layout conv variants — each
registered in the zoo and therefore runnable by name through
``Session.run/tune/sweep`` and the CLI exactly like ``alexnet``.

Everything is expressed with the existing layer descriptors:

* The transformer block lowers to dense (``FcLayer``) scenarios — QKV
  and output projections, per-head attention score/value GEMMs (a
  ``(seq, d_head) @ (d_head, seq)`` GEMM *is* a dense layer with
  ``batch=seq``), and the FFN expand/contract pair.  Dense works on all
  four controllers (MAERI included, which refuses raw ``GemmLayer``).
* The conv variants exercise the layer descriptor's extra axes: ``G``
  (groups / depthwise), ``dil_h``/``dil_w`` (dilation), ``layout``
  (NHWC emulation around the NCHW functional core).
"""

from __future__ import annotations

from typing import List

from repro.stonne.layer import ConvLayer, FcLayer
from repro.zoo import _ensure_builtin_models, register_model

# Importing this module directly (rather than through a zoo lookup)
# must not let the modern entries register ahead of the classics — the
# guard flag makes this a no-op when the registry itself imported us.
_ensure_builtin_models()


def transformer_encoder_layers(
    d_model: int = 256,
    heads: int = 8,
    seq_len: int = 64,
    ffn_dim: int = 1024,
    prefix: str = "enc",
) -> List[FcLayer]:
    """One transformer encoder block as dense scenarios.

    QKV + output projections (``d_model -> d_model`` over ``seq_len``
    tokens), per-head attention score (``Q @ K^T``) and value
    (``A @ V``) GEMMs, and the FFN pair (``d_model -> ffn_dim ->
    d_model``).  Per-head GEMMs are shape-identical across heads; the
    engine's structural dedup collapses them at plan time, so listing
    every head costs nothing but keeps MAC totals honest.
    """
    if d_model % heads:
        raise ValueError(
            f"heads={heads} must divide d_model={d_model}"
        )
    d_head = d_model // heads
    layers: List[FcLayer] = [
        FcLayer(f"{prefix}.q_proj", in_features=d_model, out_features=d_model, batch=seq_len),
        FcLayer(f"{prefix}.k_proj", in_features=d_model, out_features=d_model, batch=seq_len),
        FcLayer(f"{prefix}.v_proj", in_features=d_model, out_features=d_model, batch=seq_len),
    ]
    for h in range(heads):
        # scores: (seq, d_head) @ (d_head, seq) -> (seq, seq)
        layers.append(
            FcLayer(
                f"{prefix}.h{h}.score",
                in_features=d_head,
                out_features=seq_len,
                batch=seq_len,
            )
        )
        # values: (seq, seq) @ (seq, d_head) -> (seq, d_head)
        layers.append(
            FcLayer(
                f"{prefix}.h{h}.value",
                in_features=seq_len,
                out_features=d_head,
                batch=seq_len,
            )
        )
    layers += [
        FcLayer(f"{prefix}.out_proj", in_features=d_model, out_features=d_model, batch=seq_len),
        FcLayer(f"{prefix}.ffn1", in_features=d_model, out_features=ffn_dim, batch=seq_len),
        FcLayer(f"{prefix}.ffn2", in_features=ffn_dim, out_features=d_model, batch=seq_len),
    ]
    return layers


def depthwise_separable_layers(
    channels: int = 32,
    out_channels: int = 64,
    hw: int = 28,
    prefix: str = "dws",
) -> List[ConvLayer]:
    """A MobileNet-style depthwise-separable block: a ``G == C``
    depthwise 3x3 followed by a 1x1 pointwise projection."""
    return [
        ConvLayer(
            f"{prefix}.depthwise",
            C=channels, H=hw, W=hw, K=channels,
            R=3, S=3, pad_h=1, pad_w=1, G=channels,
        ),
        ConvLayer(
            f"{prefix}.pointwise",
            C=channels, H=hw, W=hw, K=out_channels, R=1, S=1,
        ),
    ]


def grouped_conv_layers(
    channels: int = 64,
    groups: int = 4,
    hw: int = 28,
    prefix: str = "grp",
) -> List[ConvLayer]:
    """A ResNeXt-style grouped 3x3 convolution."""
    return [
        ConvLayer(
            f"{prefix}.conv",
            C=channels, H=hw, W=hw, K=channels,
            R=3, S=3, pad_h=1, pad_w=1, G=groups,
        ),
    ]


def dilated_conv_layers(
    channels: int = 32,
    dilation: int = 2,
    hw: int = 28,
    prefix: str = "dil",
) -> List[ConvLayer]:
    """A dilated 3x3 (atrous) convolution; padding keeps H/W fixed."""
    return [
        ConvLayer(
            f"{prefix}.conv",
            C=channels, H=hw, W=hw, K=channels,
            R=3, S=3, pad_h=dilation, pad_w=dilation,
            dil_h=dilation, dil_w=dilation,
        ),
    ]


def nhwc_conv_layers(
    channels: int = 32,
    hw: int = 28,
    prefix: str = "nhwc",
) -> List[ConvLayer]:
    """A 3x3 convolution declared in NHWC/RSCK layout; the functional
    datapath transposes around the NCHW core (paper §V-B, Fig. 7/8)."""
    return [
        ConvLayer(
            f"{prefix}.conv",
            C=channels, H=hw, W=hw, K=channels,
            R=3, S=3, pad_h=1, pad_w=1, layout="NHWC",
        ),
    ]


register_model(
    "transformer",
    transformer_encoder_layers,
    description="Transformer encoder block (QKV/attention/FFN as dense GEMMs)",
    tags=("modern", "transformer"),
)
register_model(
    "depthwise_sep",
    depthwise_separable_layers,
    description="Depthwise-separable conv block (depthwise 3x3 + pointwise 1x1)",
    tags=("modern", "cnn", "conv-variant"),
)
register_model(
    "grouped_conv",
    grouped_conv_layers,
    description="Grouped 3x3 convolution (G=4)",
    tags=("modern", "cnn", "conv-variant"),
)
register_model(
    "dilated_conv",
    dilated_conv_layers,
    description="Dilated (atrous) 3x3 convolution (dil=2)",
    tags=("modern", "cnn", "conv-variant"),
)
register_model(
    "nhwc_conv",
    nhwc_conv_layers,
    description="NHWC-layout 3x3 convolution (layout-emulation path)",
    tags=("modern", "cnn", "conv-variant"),
)


__all__ = [
    "transformer_encoder_layers",
    "depthwise_separable_layers",
    "grouped_conv_layers",
    "dilated_conv_layers",
    "nhwc_conv_layers",
]
