"""A reduced VGG-style network (VGG-11 geometry at 64x64 input).

Used by the design-space-exploration example: deeper than LeNet, cheaper
than AlexNet, all-3x3 convolutions — the regime where mapping choice on
MAERI matters most.
"""

from __future__ import annotations

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph


def vgg_small_builder(num_classes: int = 100) -> GraphBuilder:
    """VGG-11-style network over 64x64 RGB inputs with batch norms,
    unbuilt (no weights drawn)."""
    builder = GraphBuilder("vgg_small", (1, 3, 64, 64))
    channels = [64, 128, 256, 256, 512, 512]
    pools_after = {0, 1, 3, 5}
    for index, ch in enumerate(channels):
        builder.conv2d(ch, (3, 3), padding=(1, 1), name=f"conv{index + 1}")
        builder.batch_norm(name=f"bn{index + 1}")
        builder.relu()
        if index in pools_after:
            builder.max_pool2d((2, 2), (2, 2))
    return (
        builder
        .flatten()
        .dense(1024, name="fc1")
        .relu()
        .dropout()
        .dense(num_classes, name="fc2")
    )


def vgg_small_graph(num_classes: int = 100) -> Graph:
    """VGG-11-style graph over 64x64 RGB inputs with batch norms."""
    return vgg_small_builder(num_classes).build()
