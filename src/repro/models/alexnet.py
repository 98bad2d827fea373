"""AlexNet: the paper's benchmark network.

:func:`alexnet_builder` is the one definition (torchvision's
single-group AlexNet variant).  Built, it is the IR graph Bifrost runs end
to end; unbuilt, its typed graph yields the 5 conv and 3 FC layer
descriptors the paper benchmarks in Figures 9, 11, 12 and Table VI
(``zoo_layers("alexnet")``).

We use the torchvision parameterization (64/192/384/256/256 channels, no
grouped convolutions) rather than the original 1-GPU-split 2012 network;
the FC stack (9216 -> 4096 -> 4096 -> 1000) matches the paper's FC1-FC3
dimensions exactly.
"""

from __future__ import annotations

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph

#: Number of classes in the ImageNet-1k head.
NUM_CLASSES = 1000


def alexnet_builder(num_classes: int = NUM_CLASSES) -> GraphBuilder:
    """AlexNet over 224x224x3 NCHW inputs, unbuilt (no weights drawn)."""
    return (
        GraphBuilder("alexnet", (1, 3, 224, 224))
        .conv2d(64, (11, 11), strides=(4, 4), padding=(2, 2), name="conv1")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .conv2d(192, (5, 5), padding=(2, 2), name="conv2")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .conv2d(384, (3, 3), padding=(1, 1), name="conv3")
        .relu()
        .conv2d(256, (3, 3), padding=(1, 1), name="conv4")
        .relu()
        .conv2d(256, (3, 3), padding=(1, 1), name="conv5")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .flatten()
        .dropout()
        .dense(4096, name="fc1")
        .relu()
        .dropout()
        .dense(4096, name="fc2")
        .relu()
        .dense(num_classes, name="fc3")
    )


def alexnet_graph(num_classes: int = NUM_CLASSES) -> Graph:
    """The full AlexNet IR graph (224x224x3 input, NCHW)."""
    return alexnet_builder(num_classes).build()
