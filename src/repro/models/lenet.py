"""LeNet-5: a small CNN for fast end-to-end tests and examples."""

from __future__ import annotations

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph


def lenet_builder(num_classes: int = 10) -> GraphBuilder:
    """LeNet-5 over 28x28 single-channel inputs (MNIST geometry), unbuilt."""
    return (
        GraphBuilder("lenet5", (1, 1, 28, 28))
        .conv2d(6, (5, 5), padding=(2, 2), name="conv1")
        .relu()
        .avg_pool2d((2, 2), (2, 2))
        .conv2d(16, (5, 5), name="conv2")
        .relu()
        .avg_pool2d((2, 2), (2, 2))
        .flatten()
        .dense(120, name="fc1")
        .relu()
        .dense(84, name="fc2")
        .relu()
        .dense(num_classes, name="fc3")
    )


def lenet_graph(num_classes: int = 10) -> Graph:
    """LeNet-5 over 28x28 single-channel inputs (MNIST geometry)."""
    return lenet_builder(num_classes).build()
