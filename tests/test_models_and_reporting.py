"""Tests for the model zoo and the reporting helpers."""

import hashlib
import tracemalloc

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
    alexnet_builder,
    alexnet_graph,
    graph_layers,
    lenet_graph,
    mlp_builder,
    mlp_graph,
    vgg_small_graph,
)
from repro.runtime import compile_graph
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping
from repro.zoo import zoo_layers


def _split(model):
    """A zoo model's conv and FC descriptors, each in graph order."""
    layers = zoo_layers(model)
    return (
        [l for l in layers if isinstance(l, ConvLayer)],
        [l for l in layers if isinstance(l, FcLayer)],
    )


#: The hand-written descriptor lists the classic zoo entries served before
#: they were derived from the model graphs, frozen as literals.
FROZEN_DESCRIPTORS = {
    "alexnet": [
        ConvLayer("conv1", C=3, H=224, W=224, K=64, R=11, S=11,
                  stride_h=4, stride_w=4, pad_h=2, pad_w=2),
        ConvLayer("conv2", C=64, H=27, W=27, K=192, R=5, S=5,
                  pad_h=2, pad_w=2),
        ConvLayer("conv3", C=192, H=13, W=13, K=384, R=3, S=3,
                  pad_h=1, pad_w=1),
        ConvLayer("conv4", C=384, H=13, W=13, K=256, R=3, S=3,
                  pad_h=1, pad_w=1),
        ConvLayer("conv5", C=256, H=13, W=13, K=256, R=3, S=3,
                  pad_h=1, pad_w=1),
        FcLayer("fc1", in_features=9216, out_features=4096),
        FcLayer("fc2", in_features=4096, out_features=4096),
        FcLayer("fc3", in_features=4096, out_features=1000),
    ],
    "lenet": [
        ConvLayer("conv1", C=1, H=28, W=28, K=6, R=5, S=5, pad_h=2, pad_w=2),
        ConvLayer("conv2", C=6, H=14, W=14, K=16, R=5, S=5),
        FcLayer("fc1", in_features=400, out_features=120),
        FcLayer("fc2", in_features=120, out_features=84),
        FcLayer("fc3", in_features=84, out_features=10),
    ],
    "vgg_small": [
        ConvLayer(name, C=c, H=hw, W=hw, K=k, R=3, S=3, pad_h=1, pad_w=1)
        for name, c, hw, k in (
            ("conv1", 3, 64, 64),
            ("conv2", 64, 32, 128),
            ("conv3", 128, 16, 256),
            ("conv4", 256, 16, 256),
            ("conv5", 256, 8, 512),
            ("conv6", 512, 8, 512),
        )
    ] + [
        FcLayer("fc1", in_features=512 * 4 * 4, out_features=1024),
        FcLayer("fc2", in_features=1024, out_features=100),
    ],
    "mlp": [
        FcLayer("fc1", in_features=784, out_features=256),
        FcLayer("fc2", in_features=256, out_features=128),
        FcLayer("fc3", in_features=128, out_features=10),
    ],
}


class TestAlexNet:
    def test_conv_descriptors_match_paper_dimensions(self):
        convs, _ = _split("alexnet")
        assert [c.name for c in convs] == [f"conv{i}" for i in range(1, 6)]
        conv1 = convs[0]
        assert (conv1.P, conv1.Q) == (55, 55)
        # conv chain is spatially consistent: 55 -> pool 27 -> conv2 27, etc.
        assert convs[1].H == 27 and convs[2].H == 13

    def test_fc_descriptors_match_paper(self):
        _, fcs = _split("alexnet")
        assert [(f.in_features, f.out_features) for f in fcs] == [
            (9216, 4096), (4096, 4096), (4096, 1000),
        ]

    def test_layers_order(self):
        layers = zoo_layers("alexnet")
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
        # Geometry, names included: each classic's descriptors, derived
        # from its graph, equal the frozen hand-written lists.
        for name, descriptors in FROZEN_DESCRIPTORS.items():
            assert zoo_layers(name) == descriptors, name
        assert graph_layers(mlp_builder(16, (8, 4), 3).graph) == [
            FcLayer("fc1", in_features=16, out_features=8),
            FcLayer("fc2", in_features=8, out_features=4),
            FcLayer("fc3", in_features=4, out_features=3),
        ]

    @pytest.mark.slow
    def test_graph_executes(self, rng):
        out = compile_graph(alexnet_graph(), apply_passes=False)(
            rng.normal(size=(1, 3, 224, 224))
        )
        assert out.shape == (1, 1000)
        assert np.isfinite(out).all()


def _params_digest(graph):
    """sha256 over every parameter (name, shape, dtype, bytes) in node-id
    order, then the graph dump; first 16 hex digits."""
    digest = hashlib.sha256()
    for node_id in sorted(graph.params):
        value = graph.params[node_id]
        digest.update(graph.nodes[node_id].name.encode())
        digest.update(str(value.shape).encode())
        digest.update(str(value.dtype).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    digest.update(graph.describe().encode())
    return digest.hexdigest()[:16]


class TestDeferredDraws:
    """The builder draws weights only in ``build()``, in declaration order,
    so built graphs keep the weights drawn when each layer was added."""

    @pytest.mark.parametrize("make_graph, expected", [
        (lenet_graph, "3713965899f3e1e6"),
        (vgg_small_graph, "9aa551069b94bac4"),
        (mlp_graph, "54f9d926690db8ba"),
    ])
    def test_built_params_unchanged(self, make_graph, expected):
        assert _params_digest(make_graph()) == expected

    @pytest.mark.slow
    def test_alexnet_params_unchanged(self):
        assert _params_digest(alexnet_graph()) == "281cd95d485be787"

    def test_descriptors_draw_no_weights(self):
        # Drawing AlexNet's float64 weights allocates about 500 MB.
        tracemalloc.start()
        try:
            layers = graph_layers(alexnet_builder().graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(layers) == 8
        assert peak < 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestOtherModels:
    def test_lenet_descriptors_and_graph(self, rng):
        graph = lenet_graph()
        out = compile_graph(graph, apply_passes=False)(rng.normal(size=(1, 1, 28, 28)))
        assert out.shape == (1, 10)
        convs, fcs = _split("lenet")
        assert len(convs) == 2
        assert fcs[0].in_features == 400

    def test_vgg_small_descriptors_consistent(self):
        graph = vgg_small_graph()
        convs, fcs = _split("vgg_small")
        assert len(graph.op_nodes("conv2d")) == len(convs)
        assert len(graph.op_nodes("dense")) == len(fcs)

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
        layers = graph_layers(mlp_builder(16, (8, 4), 3).graph)
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
