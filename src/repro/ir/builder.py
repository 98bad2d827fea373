"""Fluent sequential-model builder over the graph IR.

Most DNNs in the paper's evaluation are simple feed-forward stacks;
:class:`GraphBuilder` keeps a "current" node and appends layers to it,
which is how the model zoo (:mod:`repro.models`) defines networks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.ir.graph import Graph
from repro.ir.tensor_type import TensorType


class GraphBuilder:
    """Builds a single-input, single-output feed-forward graph.

    Nodes are typed as they are added, but parameter values are drawn
    only in :meth:`build`; until then each const holds a zero-stride
    placeholder, so the unbuilt :attr:`graph` allocates no weights.
    """

    def __init__(self, name: str, input_shape: Tuple[int, ...]) -> None:
        self.graph = Graph(name)
        self._draws: List[tuple] = []  # (node id, placeholder, dist, args)
        self._current = self.graph.add_input("data", TensorType(input_shape))
        self._layer_index = 0

    # ------------------------------------------------------------------
    @property
    def current(self) -> int:
        """Node id the next layer will consume."""
        return self._current

    def _param(
        self, name: str, shape: Tuple[int, ...], dist: str = "normal",
        args: Tuple[float, float] = (0.0, 0.05),
    ) -> int:
        """A parameter const that :meth:`build` fills with
        ``rng.<dist>(*args)`` from the seeded builder RNG."""
        node_id = self.graph.add_const(name, np.broadcast_to(0.0, shape))
        self._draws.append((node_id, self.graph.params[node_id], dist, args))
        return node_id

    def _advance(self, node_id: int) -> "GraphBuilder":
        self._current = node_id
        self._layer_index += 1
        return self

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def conv2d(
        self,
        channels: int,
        kernel_size: Tuple[int, int],
        strides: Tuple[int, int] = (1, 1),
        padding: Tuple[int, int] = (0, 0),
        groups: int = 1,
        bias: bool = True,
        name: Optional[str] = None,
    ) -> "GraphBuilder":
        """Append an NCHW conv2d (+ optional bias_add) layer."""
        in_type = self.graph.nodes[self._current].ttype
        assert in_type is not None
        if in_type.rank != 4:
            raise GraphError(f"conv2d needs a 4-D input, current is {in_type}")
        c_in = in_type.shape[1]
        if c_in % groups:
            raise GraphError(f"groups={groups} does not divide channels {c_in}")
        layer = name or f"conv{self._layer_index}"
        weight = self._param(
            f"{layer}.weight", (channels, c_in // groups, *kernel_size)
        )
        node = self.graph.add_op(
            "conv2d",
            [self._current, weight],
            attrs={
                "strides": strides,
                "padding": padding,
                "dilation": (1, 1),
                "groups": groups,
                "data_layout": "NCHW",
                "kernel_layout": "KCRS",
            },
            name=layer,
        )
        if bias:
            b = self._param(f"{layer}.bias", (channels,))
            node = self.graph.add_op(
                "bias_add", [node, b], attrs={"axis": 1}, name=f"{layer}.bias_add"
            )
        return self._advance(node)

    def dense(
        self, units: int, bias: bool = True, name: Optional[str] = None
    ) -> "GraphBuilder":
        """Append a dense (+ optional bias_add) layer."""
        in_type = self.graph.nodes[self._current].ttype
        assert in_type is not None
        if in_type.rank != 2:
            raise GraphError(f"dense needs a 2-D input, current is {in_type}")
        layer = name or f"fc{self._layer_index}"
        weight = self._param(f"{layer}.weight", (units, in_type.shape[1]))
        node = self.graph.add_op("dense", [self._current, weight], name=layer)
        if bias:
            b = self._param(f"{layer}.bias", (units,))
            node = self.graph.add_op(
                "bias_add", [node, b], attrs={"axis": -1}, name=f"{layer}.bias_add"
            )
        return self._advance(node)

    def batch_norm(self, name: Optional[str] = None) -> "GraphBuilder":
        """Append inference-mode batch normalization on the channel axis."""
        in_type = self.graph.nodes[self._current].ttype
        assert in_type is not None
        channels = in_type.shape[1]
        layer = name or f"bn{self._layer_index}"
        shape = (channels,)
        gamma = self._param(f"{layer}.gamma", shape, "uniform", (0.5, 1.5))
        beta = self._param(f"{layer}.beta", shape, "normal", (0.0, 0.1))
        mean = self._param(f"{layer}.mean", shape, "normal", (0.0, 0.1))
        var = self._param(f"{layer}.var", shape, "uniform", (0.5, 1.5))
        node = self.graph.add_op(
            "batch_norm",
            [self._current, gamma, beta, mean, var],
            attrs={"axis": 1, "epsilon": 1e-5},
            name=layer,
        )
        return self._advance(node)

    def _unary(self, op_name: str, attrs: Optional[dict] = None) -> "GraphBuilder":
        node = self.graph.add_op(
            op_name, [self._current], attrs=attrs or {},
            name=f"{op_name}{self._layer_index}",
        )
        return self._advance(node)

    def relu(self) -> "GraphBuilder":
        return self._unary("relu")

    def lrn(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75,
            k: float = 2.0) -> "GraphBuilder":
        return self._unary("lrn", {"size": size, "alpha": alpha, "beta": beta, "k": k})

    def dropout(self) -> "GraphBuilder":
        return self._unary("dropout")

    def softmax(self) -> "GraphBuilder":
        return self._unary("softmax", {"axis": -1})

    def max_pool2d(
        self,
        pool_size: Tuple[int, int] = (2, 2),
        strides: Tuple[int, int] = (2, 2),
        padding: Tuple[int, int] = (0, 0),
    ) -> "GraphBuilder":
        return self._unary(
            "max_pool2d",
            {"pool_size": pool_size, "strides": strides, "padding": padding},
        )

    def avg_pool2d(
        self,
        pool_size: Tuple[int, int] = (2, 2),
        strides: Tuple[int, int] = (2, 2),
        padding: Tuple[int, int] = (0, 0),
    ) -> "GraphBuilder":
        return self._unary(
            "avg_pool2d",
            {"pool_size": pool_size, "strides": strides, "padding": padding},
        )

    def adaptive_avg_pool2d(self, output_size: Tuple[int, int]) -> "GraphBuilder":
        return self._unary("adaptive_avg_pool2d", {"output_size": output_size})

    def flatten(self) -> "GraphBuilder":
        return self._unary("flatten")

    # ------------------------------------------------------------------
    def build(self) -> Graph:
        """Draw the parameters in declaration order, then finalize and
        return the graph (validates + infers shapes).  A placeholder the
        caller replaced keeps the caller's value, but its draw is still
        taken, so every other parameter's value stays the same."""
        rng = np.random.default_rng(0)
        for node_id, placeholder, dist, args in self._draws:
            value = getattr(rng, dist)(*args, size=placeholder.shape)
            if self.graph.params[node_id] is placeholder:
                self.graph.params[node_id] = value
        self._draws.clear()
        self.graph.set_outputs([self._current])
        return self.graph.finalize()
