"""A configurable multilayer perceptron (dense-only workloads)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import GraphError
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph


def mlp_builder(
    input_features: int = 784,
    hidden: Sequence[int] = (256, 128),
    num_classes: int = 10,
) -> GraphBuilder:
    """A ReLU MLP ending in softmax, unbuilt (no weights drawn)."""
    if input_features < 1:
        raise GraphError(f"input_features must be >= 1, got {input_features}")
    builder = GraphBuilder("mlp", (1, input_features))
    for index, units in enumerate(hidden):
        builder.dense(units, name=f"fc{index + 1}").relu()
    return builder.dense(num_classes, name=f"fc{len(hidden) + 1}").softmax()


def mlp_graph(
    input_features: int = 784,
    hidden: Sequence[int] = (256, 128),
    num_classes: int = 10,
) -> Graph:
    """A ReLU MLP ending in softmax."""
    return mlp_builder(input_features, hidden, num_classes).build()
