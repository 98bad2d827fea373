"""Model zoo: each paper network defined once, as a graph builder.

Built, a builder is the IR graph Bifrost runs end to end; unbuilt, its
typed graph yields the accelerated-layer descriptors the zoo serves
(:func:`graph_layers`), with no weights drawn.
"""

from typing import List, Union

from repro.ir.graph import Graph
from repro.models.alexnet import alexnet_builder, alexnet_graph
from repro.models.lenet import lenet_builder, lenet_graph
from repro.models.mlp import mlp_builder, mlp_graph
from repro.models.vgg_small import vgg_small_builder, vgg_small_graph
from repro.stonne.layer import ConvLayer, FcLayer


def graph_layers(graph: Graph) -> List[Union[ConvLayer, FcLayer]]:
    """The descriptor of every conv2d/dense node, in graph order, derived
    from the node's input and weight tensor types and its attrs alone
    (:class:`~repro.ir.builder.GraphBuilder` convs are NCHW/KCRS)."""
    layers: List[Union[ConvLayer, FcLayer]] = []
    for node in graph.op_nodes():
        if node.op_name not in ("conv2d", "dense"):
            continue
        data, weight = (graph.nodes[i].ttype.shape for i in node.inputs[:2])
        if node.op_name == "dense":
            layers.append(FcLayer.from_shapes(node.name, data, weight))
            continue
        attrs = node.attrs
        layers.append(ConvLayer.from_nchw(
            node.name, data, weight, attrs["strides"], attrs["padding"],
            attrs["groups"], attrs["dilation"],
        ))
    return layers


__all__ = [
    "alexnet_builder",
    "alexnet_graph",
    "graph_layers",
    "lenet_builder",
    "lenet_graph",
    "mlp_builder",
    "mlp_graph",
    "vgg_small_builder",
    "vgg_small_graph",
]
