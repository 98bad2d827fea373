"""Bifrost: end-to-end evaluation and optimization of reconfigurable DNN
accelerators (the paper's core contribution).

Typical use, mirroring Listing 1 through the unified Session API::

    from repro.session import Session

    with Session(arch="maeri", ms_size=128, mapping="tuned") as s:
        result = s.run(model, input_batch)
        print(result.total_cycles)

The runners below (``run_graph``, ``run_layers``, ``run_torch_stonne``)
take either a :class:`~repro.session.Session` or its
:class:`StonneBifrostApi` endpoint.
"""

from repro.bifrost.api import (
    StonneBifrostApi,
    get_packed_func,
    register_packed_funcs,
    registered_packed_funcs,
)
from repro.bifrost.architecture import Architecture, architecture
from repro.bifrost.configurator import SimulatorConfigurator
from repro.bifrost.mapping_config import MappingConfigurator, MappingStrategy
from repro.bifrost.reporting import (
    FEATURE_MATRIX,
    LayerComparison,
    comparison_table,
    feature_table,
    stats_table,
    stats_to_json,
)
from repro.bifrost.runner import (
    BifrostRunResult,
    run_graph,
    run_layers,
    run_torch_stonne,
)
from repro.bifrost.strategies import (
    active_session,
    install_session,
    uninstall_session,
)

__all__ = [
    "Architecture",
    "BifrostRunResult",
    "FEATURE_MATRIX",
    "LayerComparison",
    "MappingConfigurator",
    "MappingStrategy",
    "SimulatorConfigurator",
    "StonneBifrostApi",
    "active_session",
    "architecture",
    "comparison_table",
    "feature_table",
    "get_packed_func",
    "install_session",
    "register_packed_funcs",
    "registered_packed_funcs",
    "run_graph",
    "run_layers",
    "run_torch_stonne",
    "stats_table",
    "stats_to_json",
    "uninstall_session",
]
