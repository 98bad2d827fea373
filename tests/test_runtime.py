"""Tests for the graph executor and offload policies."""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.errors import GraphError
from repro.ir import Graph, GraphBuilder, TensorType
from repro.runtime import (
    CompiledModule,
    GraphExecutor,
    compile_graph,
    cpu_only_policy,
    make_offload_policy,
)
from repro.topi import activations
from repro.topi.registry import lookup_op, register_op, unregister_op


@pytest.fixture
def simple_graph():
    return (
        GraphBuilder("m", (1, 4))
        .dense(3, name="fc")
        .relu()
        .build()
    )


class TestExecutor:
    def test_runs_and_profiles(self, rng, simple_graph):
        executor = GraphExecutor(simple_graph)
        out = executor.run({"data": rng.normal(size=(1, 4))})
        assert out[0].shape == (1, 3)
        report = executor.last_report
        assert report is not None
        assert report.by_target() == {"cpu": 3}  # dense, bias_add, relu
        assert all(p.wall_time_s >= 0 for p in report.profiles)

    def test_missing_feed(self, simple_graph):
        with pytest.raises(GraphError, match="missing feed"):
            GraphExecutor(simple_graph).run({})

    def test_unknown_feed(self, rng, simple_graph):
        with pytest.raises(GraphError, match="unknown feeds"):
            GraphExecutor(simple_graph).run(
                {"data": rng.normal(size=(1, 4)), "bogus": np.ones(2)}
            )

    def test_wrong_feed_shape(self, simple_graph):
        with pytest.raises(GraphError, match="shape"):
            GraphExecutor(simple_graph).run({"data": np.ones((2, 4))})

    def test_multi_output_graph(self, rng):
        g = Graph("multi")
        x = g.add_input("x", TensorType((1, 4)))
        r = g.add_op("relu", [x])
        t = g.add_op("tanh", [x])
        g.set_outputs([r, t])
        g.finalize()
        outs = GraphExecutor(g).run({"x": rng.normal(size=(1, 4))})
        assert len(outs) == 2


def _traced_peak(fn) -> int:
    """Peak traced bytes allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run_tracking_liveness(graph, feeds):
    """Run ``graph`` with every op wrapped to note which earlier op
    outputs are still alive (weakly referenced) when each op starts."""
    made = {}
    alive_at = {}
    running = []
    op_names = {node.op_name for node in graph.op_nodes()}

    def policy(node):
        running.append(node.name)
        return "liveness-probe"

    def wrap(op_name):
        def impl(attrs, inputs):
            name = running[-1]
            alive_at[name] = {n for n, ref in made.items() if ref() is not None}
            out = lookup_op(op_name, "cpu")(attrs, inputs)
            made[name] = weakref.ref(out)
            return out

        return impl

    for op_name in op_names:
        register_op(op_name, "liveness-probe")(wrap(op_name))
    try:
        outs = GraphExecutor(graph, policy).run(feeds)
    finally:
        for op_name in op_names:
            unregister_op(op_name, "liveness-probe")
    return outs, alive_at


class TestLiveness:
    """Each intermediate is released after its last reader has run."""

    def test_chain_holds_its_live_set_only(self):
        size = 2**20
        g = Graph("chain")
        ref = g.add_input("x", TensorType((1, size)))
        for index in range(8):
            ref = g.add_op("relu" if index % 2 else "tanh", [ref])
        g.set_outputs([ref])
        g.finalize()
        executor = GraphExecutor(g)
        x = np.random.default_rng(0).normal(size=(1, size))
        executor.run({"x": x})
        # One input and one output at a time (plus bookkeeping); holding
        # every intermediate until the run returns costs 8 tensors.
        assert _traced_peak(lambda: executor.run({"x": x})) <= 3 * x.nbytes

    def test_value_survives_until_its_second_reader(self, rng):
        g = Graph("two-readers")
        x = g.add_input("x", TensorType((2, 3)))
        a = g.add_op("relu", [x], name="a")
        b = g.add_op("tanh", [a], name="b")
        c = g.add_op("tanh", [b], name="c")
        d = g.add_op("add", [a, c], name="d")
        g.add_op("tanh", [c], name="unread")
        e = g.add_op("relu", [d], name="e")
        g.set_outputs([e])
        g.finalize()
        data = rng.normal(size=(2, 3))
        outs, alive_at = _run_tracking_liveness(g, {"x": data})
        assert alive_at["c"] == {"a", "b"}
        assert alive_at["d"] == {"a", "c"}
        assert alive_at["e"] == {"d"}  # "unread" was dropped when made
        relu_x = np.maximum(data, 0.0)
        np.testing.assert_array_equal(
            outs[0], np.maximum(relu_x + np.tanh(np.tanh(relu_x)), 0.0)
        )

    def test_output_read_later_is_returned_intact(self, rng):
        g = Graph("output-and-input")
        x = g.add_input("x", TensorType((2, 3)))
        a = g.add_op("relu", [x], name="a")
        b = g.add_op("tanh", [a], name="b")
        c = g.add_op("tanh", [b], name="c")
        g.set_outputs([a, c])
        g.finalize()
        data = rng.normal(size=(2, 3))
        outs, alive_at = _run_tracking_liveness(g, {"x": data})
        assert alive_at["c"] == {"a", "b"}
        np.testing.assert_array_equal(outs[0], np.maximum(data, 0.0))
        np.testing.assert_array_equal(
            outs[1], np.tanh(np.tanh(np.maximum(data, 0.0)))
        )

    def test_diamond_and_repeated_input(self, rng):
        g = Graph("diamond")
        x = g.add_input("x", TensorType((2, 5)))
        a = g.add_op("relu", [x])
        left = g.add_op("tanh", [a])
        right = g.add_op("sigmoid", [a])
        joined = g.add_op("add", [left, right])
        doubled = g.add_op("add", [joined, joined])
        squared = g.add_op("multiply", [x, x])
        g.set_outputs([doubled, squared])
        g.finalize()
        data = rng.normal(size=(2, 5))
        relu_x = np.maximum(data, 0.0)
        joined_ref = np.tanh(relu_x) + activations.sigmoid(relu_x)
        outs = GraphExecutor(g).run({"x": data})
        np.testing.assert_array_equal(outs[0], joined_ref + joined_ref)
        np.testing.assert_array_equal(outs[1], data * data)

    def test_feeds_are_never_modified(self, rng):
        g = Graph("feeds")
        x = g.add_input("x", TensorType((2, 3)))
        y = g.add_input("y", TensorType((2, 3)))
        summed = g.add_op("add", [x, y])
        g.set_outputs([g.add_op("relu", [g.add_op("multiply", [summed, x])])])
        g.finalize()
        feeds = {"x": rng.normal(size=(2, 3)), "y": rng.normal(size=(2, 3))}
        before = {name: value.copy() for name, value in feeds.items()}
        executor = GraphExecutor(g)
        first = executor.run(feeds)[0]
        second = executor.run(feeds)[0]
        for name, value in feeds.items():
            np.testing.assert_array_equal(value, before[name])
        np.testing.assert_array_equal(first, second)

    def test_vgg_small_run_peak_stays_small(self, rng):
        from repro.models import vgg_small_graph

        graph = vgg_small_graph()
        module = compile_graph(graph, apply_passes=False)
        data = rng.normal(size=(1, 3, 64, 64))
        module(data)
        # Holding every intermediate until the run returns peaks at 20.8 MiB.
        assert _traced_peak(lambda: module(data)) <= 8 * 2**20


class TestOffloadPolicy:
    def test_policy_falls_back_when_target_missing(self, simple_graph):
        policy = make_offload_policy("phantom-target")
        node = simple_graph.op_nodes("dense")[0]
        assert policy(node) == "cpu"

    def test_policy_routes_when_registered(self, rng, simple_graph):
        @register_op("dense", "fake-accel")
        def _dense_fake(attrs, inputs):
            return np.zeros((inputs[0].shape[0], inputs[1].shape[0]))

        try:
            executor = GraphExecutor(
                simple_graph, make_offload_policy("fake-accel")
            )
            executor.run({"data": rng.normal(size=(1, 4))})
            report = executor.last_report
            assert report.by_target() == {"fake-accel": 1, "cpu": 2}
            assert report.offloaded("fake-accel")[0].op_name == "dense"
        finally:
            unregister_op("dense", "fake-accel")

    def test_cpu_only_policy(self, simple_graph):
        assert cpu_only_policy(simple_graph.op_nodes("dense")[0]) == "cpu"


class TestCompiledModule:
    def test_call_uses_first_input(self, rng, simple_graph):
        module = CompiledModule(simple_graph)
        out = module(rng.normal(size=(1, 4)))
        assert out.shape == (1, 3)
        assert module.report is not None

    def test_compile_graph_applies_passes(self, rng):
        graph = (
            GraphBuilder("m", (1, 3, 8, 8))
            .conv2d(4, (3, 3), name="conv")
            .batch_norm()
            .relu()
            .build()
        )
        module = compile_graph(graph)
        assert not graph.op_nodes("batch_norm")  # folded
        assert module(rng.normal(size=(1, 3, 8, 8))).shape == (1, 4, 6, 6)

    def test_summary_mentions_targets(self, rng, simple_graph):
        module = CompiledModule(simple_graph)
        module(rng.normal(size=(1, 4)))
        assert "cpu" in module.report.summary()
