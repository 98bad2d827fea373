"""Tests for the model zoo and the reporting helpers."""

import numpy as np
import pytest

from repro.bifrost.reporting import (
    FEATURE_MATRIX,
    LayerComparison,
    comparison_table,
    feature_table,
    stats_table,
    stats_to_json,
)
from repro.models import (
    alexnet_conv_layers,
    alexnet_fc_layers,
    alexnet_graph,
    alexnet_layers,
    lenet_conv_layers,
    lenet_fc_layers,
    lenet_graph,
    mlp_fc_layers,
    mlp_graph,
    vgg_small_conv_layers,
    vgg_small_fc_layers,
    vgg_small_graph,
)
from repro.runtime import compile_graph
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping


def _graph_layers(graph):
    """The ConvLayer/FcLayer of every conv2d/dense node, derived only from
    the node's input and weight tensor types and its attrs."""
    layers = []
    for node in graph.op_nodes():
        if node.op_name not in ("conv2d", "dense"):
            continue
        data, weight = (graph.nodes[i].ttype.shape for i in node.inputs[:2])
        if node.op_name == "dense":
            layers.append(FcLayer(
                node.name, in_features=data[1], out_features=weight[0],
                batch=data[0],
            ))
            continue
        attrs = node.attrs
        assert attrs["data_layout"] == "NCHW"
        assert attrs["kernel_layout"] == "KCRS"
        n, c, h, w = data
        k, _, r, s = weight
        layers.append(ConvLayer(
            node.name, C=c, H=h, W=w, K=k, R=r, S=s,
            stride_h=attrs["strides"][0], stride_w=attrs["strides"][1],
            pad_h=attrs["padding"][0], pad_w=attrs["padding"][1],
            G=attrs["groups"], N=n,
            dil_h=attrs["dilation"][0], dil_w=attrs["dilation"][1],
        ))
    return layers


class TestAlexNet:
    def test_conv_descriptors_match_paper_dimensions(self):
        convs = alexnet_conv_layers()
        assert [c.name for c in convs] == [f"conv{i}" for i in range(1, 6)]
        conv1 = convs[0]
        assert (conv1.P, conv1.Q) == (55, 55)
        # conv chain is spatially consistent: 55 -> pool 27 -> conv2 27, etc.
        assert convs[1].H == 27 and convs[2].H == 13

    def test_fc_descriptors_match_paper(self):
        fcs = alexnet_fc_layers()
        assert [(f.in_features, f.out_features) for f in fcs] == [
            (9216, 4096), (4096, 4096), (4096, 1000),
        ]

    def test_layers_order(self):
        layers = alexnet_layers()
        assert len(layers) == 8
        assert layers[0].name == "conv1" and layers[-1].name == "fc3"

    def test_graph_shapes_consistent_with_descriptors(self):
        graph = alexnet_graph()
        conv_nodes = graph.op_nodes("conv2d")
        assert len(conv_nodes) == 5
        fc_nodes = graph.op_nodes("dense")
        assert len(fc_nodes) == 3
        out = graph.nodes[graph.output_ids[0]]
        assert out.ttype.shape == (1, 1000)
        # Geometry, names included: each hand-written descriptor list is
        # exactly what its graph's conv2d/dense nodes describe.
        for model_graph, descriptors in (
            (graph, alexnet_layers()),
            (lenet_graph(), lenet_conv_layers() + lenet_fc_layers()),
            (vgg_small_graph(), vgg_small_conv_layers() + vgg_small_fc_layers()),
            (mlp_graph(16, (8, 4), 3), mlp_fc_layers(16, (8, 4), 3)),
        ):
            assert _graph_layers(model_graph) == descriptors

    @pytest.mark.slow
    def test_graph_executes(self, rng):
        out = compile_graph(alexnet_graph(), apply_passes=False)(
            rng.normal(size=(1, 3, 224, 224))
        )
        assert out.shape == (1, 1000)
        assert np.isfinite(out).all()


class TestOtherModels:
    def test_lenet_descriptors_and_graph(self, rng):
        graph = lenet_graph()
        out = compile_graph(graph, apply_passes=False)(rng.normal(size=(1, 1, 28, 28)))
        assert out.shape == (1, 10)
        assert len(lenet_conv_layers()) == 2
        assert lenet_fc_layers()[0].in_features == 400

    def test_vgg_small_descriptors_consistent(self):
        graph = vgg_small_graph()
        assert len(graph.op_nodes("conv2d")) == len(vgg_small_conv_layers())
        assert len(graph.op_nodes("dense")) == len(vgg_small_fc_layers())

    def test_vgg_small_executes_with_bn_folding(self, rng):
        graph = vgg_small_graph(num_classes=10)
        data = rng.normal(size=(1, 3, 64, 64))
        raw = compile_graph(vgg_small_graph(num_classes=10), apply_passes=False)(data)
        optimized = compile_graph(graph)(data)
        assert not graph.op_nodes("batch_norm")
        np.testing.assert_allclose(optimized, raw, rtol=1e-8)

    def test_mlp(self, rng):
        graph = mlp_graph(16, (8, 4), 3)
        out = compile_graph(graph, apply_passes=False)(rng.normal(size=(1, 16)))
        assert out.shape == (1, 3)
        layers = mlp_fc_layers(16, (8, 4), 3)
        assert [(l.in_features, l.out_features) for l in layers] == [
            (16, 8), (8, 4), (4, 3),
        ]


class TestReporting:
    def test_feature_table_matches_paper_claims(self):
        assert all(FEATURE_MATRIX["Bifrost"].values())
        assert not FEATURE_MATRIX["STONNE"]["model_support"]
        assert not FEATURE_MATRIX["VTA"]["cycle_accurate"]
        table = feature_table()
        assert "Bifrost" in table and "Cycle-accurate" in table

    def test_comparison_table_renders(self):
        rows = [
            LayerComparison("fc1", {"basic": 100, "tuned": 10}),
            LayerComparison("fc2", {"basic": 200, "tuned": 40}),
        ]
        text = comparison_table(rows, ["basic", "tuned"])
        assert "fc1" in text and "100" in text
        assert rows[0].speedup("basic", "tuned") == 10.0

    def test_stats_table_and_json(self):
        controller = MaeriController(maeri_config())
        stats = controller.run_conv(
            ConvLayer("c", C=4, H=8, W=8, K=8, R=3, S=3),
            ConvMapping(T_R=3, T_S=3, T_C=4),
        )
        table = stats_table([stats])
        assert "total" in table and "c" in table
        blob = stats_to_json([stats])
        assert '"cycles"' in blob
