"""End-to-end runners: the ``run_torch_stonne``-style entry points.

This is the surface Listing 1 shows: hand Bifrost a model and an input,
get the model output back, with conv2d/dense layers transparently executed
on the simulated accelerator and everything else on the CPU.

Sessions are owned by :class:`repro.session.Session`; the ``run_*``
helpers accept either a :class:`Session` or its
:class:`~repro.bifrost.api.StonneBifrostApi` endpoint.  Typical use::

    with Session.from_file("repro.toml") as s:
        report = s.run(model, input_batch)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bifrost.api import StonneBifrostApi
from repro.bifrost.strategies import install_session, uninstall_session
from repro.ir.graph import Graph
from repro.runtime.executor import GraphExecutor, make_offload_policy
from repro.stonne.stats import SimulationStats, combine_stats


@dataclass
class BifrostRunResult:
    """Model output plus the per-layer simulation statistics."""

    outputs: List[np.ndarray]
    layer_stats: List[SimulationStats]

    @property
    def output(self) -> np.ndarray:
        return self.outputs[0]

    @property
    def total_cycles(self) -> int:
        return sum(s.cycles for s in self.layer_stats)

    @property
    def total_psums(self) -> int:
        return sum(s.psums for s in self.layer_stats)

    def combined(self, name: str = "model") -> SimulationStats:
        return combine_stats(name, self.layer_stats)


def _as_api(session) -> StonneBifrostApi:
    """Accept a :class:`repro.session.Session` or a bare API endpoint."""
    return session.api if hasattr(session, "api") else session


def _annotate_layer_names(graph: Graph) -> None:
    """Give offloaded nodes their IR names so stats are attributable."""
    for node in graph.op_nodes():
        if node.op_name in ("conv2d", "dense"):
            node.attrs.setdefault("layer_name", node.name)


def run_graph(
    graph: Graph,
    feeds: Dict[str, np.ndarray],
    session: StonneBifrostApi,
) -> BifrostRunResult:
    """Execute ``graph`` with conv2d/dense offloaded to ``session``.

    The session (a :class:`repro.session.Session` or its API endpoint)
    is installed as the "stonne" target for the duration of the call and
    uninstalled afterwards, so parallel CPU-only execution elsewhere is
    unaffected.
    """
    session = _as_api(session)
    _annotate_layer_names(graph)
    session.reset_stats()
    install_session(session)
    try:
        graph_executor = GraphExecutor(graph, make_offload_policy("stonne"))
        outputs = graph_executor.run(feeds)
    finally:
        uninstall_session()
    return BifrostRunResult(outputs=outputs, layer_stats=list(session.stats))


def run_torch_stonne(
    model,
    input_batch: np.ndarray,
    session: StonneBifrostApi,
    input_shape: Optional[Tuple[int, ...]] = None,
) -> BifrostRunResult:
    """Listing 1's entry point: run a torch-like model on STONNE.

    ``model`` is a :mod:`repro.frontends.torchlike` module tree; the
    input batch's shape is used unless ``input_shape`` overrides it.
    """
    from repro.frontends.torchlike import from_torchlike

    shape = tuple(input_shape or np.asarray(input_batch).shape)
    graph = from_torchlike(model, shape)
    first_input = graph.nodes[graph.input_ids[0]].name
    return run_graph(graph, {first_input: np.asarray(input_batch)}, session)


def run_layers(layers, session: StonneBifrostApi) -> List[SimulationStats]:
    """Simulate bare layer descriptors (no tensors), for benchmarking.

    Accepts :class:`~repro.stonne.layer.ConvLayer` /
    :class:`~repro.stonne.layer.FcLayer` descriptors and returns one
    stats record per layer, honouring the session's mapping strategy.
    The whole batch is submitted to the session engine's
    :meth:`~repro.engine.EvaluationEngine.evaluate_many` — repeated
    shapes are served from the stats cache instead of re-simulated.
    """
    from repro.engine import EvalRequest
    from repro.stonne.layer import ConvLayer, FcLayer

    session = _as_api(session)
    engine = session.engine
    requests: List[EvalRequest] = []
    for layer in layers:
        if not isinstance(layer, (ConvLayer, FcLayer)):
            raise TypeError(
                f"run_layers expects ConvLayer/FcLayer, got {type(layer).__name__}"
            )
        mapping = (
            session.mappings.mapping_for(layer) if engine.requires_mapping else None
        )
        requests.append(EvalRequest(layer=layer, mapping=mapping))
    results = engine.evaluate_many(requests)
    session.stats.extend(results)
    return results
