"""Graph executor: runs an IR graph with per-node target selection.

The executor walks the DAG in topological order, resolves each op through
the strategy registry for its assigned target, and records a per-node
profile.  Heterogeneous execution — the heart of Bifrost's end-to-end
story — is expressed by an *offload policy*: a callable deciding, per op
node, which target runs it.  Layers the accelerator cannot run stay on
the CPU, "which allows end-to-end evaluation and easy verification of
correctness" (§I).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import GraphError
from repro.ir.graph import Graph, Node
from repro.topi.registry import has_op, lookup_op

#: Decides the target ("cpu", "stonne", ...) for an op node.
OffloadPolicy = Callable[[Node], str]


def cpu_only_policy(node: Node) -> str:
    """Run everything on the CPU (pure TVM-style execution)."""
    return "cpu"


def make_offload_policy(
    target: str, op_names: tuple = ("conv2d", "dense")
) -> OffloadPolicy:
    """Offload ``op_names`` to ``target`` when an implementation exists.

    Falling back to the CPU when the external library lacks an op mirrors
    how TVM treats external libraries.
    """

    def policy(node: Node) -> str:
        assert node.op_name is not None
        if node.op_name in op_names and has_op(node.op_name, target):
            return target
        return "cpu"

    return policy


@dataclass
class NodeProfile:
    """Execution record for one op node."""

    node_id: int
    name: str
    op_name: str
    target: str
    wall_time_s: float
    output_shape: tuple


@dataclass
class ExecutionReport:
    """Whole-graph execution profile."""

    graph_name: str
    profiles: List[NodeProfile] = field(default_factory=list)

    def by_target(self) -> Dict[str, int]:
        """Node counts per target."""
        counts: Dict[str, int] = {}
        for profile in self.profiles:
            counts[profile.target] = counts.get(profile.target, 0) + 1
        return counts

    def offloaded(self, target: str = "stonne") -> List[NodeProfile]:
        return [p for p in self.profiles if p.target == target]

    def summary(self) -> str:
        counts = ", ".join(f"{t}: {n}" for t, n in sorted(self.by_target().items()))
        return f"{self.graph_name}: {len(self.profiles)} op nodes ({counts})"


class GraphExecutor:
    """Executes a finalized graph.

    Each run releases an intermediate as soon as its last reader has run
    (TVM's graph executor reuses that storage the same way), so a run
    holds only its live set.  An op must therefore not assume the
    executor keeps its inputs alive after it returns; graph outputs are
    never released.

    Args:
        graph: A finalized :class:`~repro.ir.graph.Graph`.
        policy: Offload policy; defaults to CPU-only.
    """

    def __init__(self, graph: Graph, policy: Optional[OffloadPolicy] = None) -> None:
        if not graph.output_ids:
            raise GraphError("executor needs a graph with outputs")
        self.graph = graph
        self.policy = policy or cpu_only_policy
        self.last_report: Optional[ExecutionReport] = None

    def run(self, feeds: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """Execute the graph; returns the output tensors in order.

        ``feeds`` maps input names to tensors; every declared input must be
        provided with its declared shape.
        """
        values: Dict[int, np.ndarray] = {}
        for node_id in self.graph.input_ids:
            node = self.graph.nodes[node_id]
            if node.name not in feeds:
                raise GraphError(f"missing feed for input {node.name!r}")
            value = np.asarray(feeds[node.name], dtype=np.float64)
            assert node.ttype is not None
            if tuple(value.shape) != node.ttype.shape:
                raise GraphError(
                    f"feed {node.name!r} has shape {value.shape}, "
                    f"declared {node.ttype.shape}"
                )
            values[node_id] = value

        unknown = set(feeds) - {
            self.graph.nodes[i].name for i in self.graph.input_ids
        }
        if unknown:
            raise GraphError(f"unknown feeds: {sorted(unknown)}")

        # Liveness: each value is dropped right after its last reader runs;
        # one nothing reads is dropped as soon as it is made.  Outputs stay.
        order = self.graph.topological_order()
        last_reader = {ref: node.node_id for node in order for ref in node.inputs}
        outputs = set(self.graph.output_ids)
        release: Dict[int, List[int]] = {}
        for node in order:
            if node.node_id not in outputs:
                reader = last_reader.get(node.node_id, node.node_id)
                release.setdefault(reader, []).append(node.node_id)

        report = ExecutionReport(graph_name=self.graph.name)
        for node in order:
            if node.kind == "const":
                values[node.node_id] = self.graph.params[node.node_id]
            elif node.kind == "op":
                assert node.op_name is not None
                target = self.policy(node)
                impl = lookup_op(node.op_name, target)
                start = time.perf_counter()
                values[node.node_id] = impl(
                    node.attrs, [values[ref] for ref in node.inputs]
                )
                elapsed = time.perf_counter() - start
                report.profiles.append(
                    NodeProfile(
                        node_id=node.node_id,
                        name=node.name,
                        op_name=node.op_name,
                        target=target,
                        wall_time_s=elapsed,
                        output_shape=tuple(values[node.node_id].shape),
                    )
                )
            for ref in release.get(node.node_id, ()):
                del values[ref]
        self.last_report = report
        return [values[node_id] for node_id in self.graph.output_ids]
