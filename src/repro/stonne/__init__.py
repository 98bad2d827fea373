"""Cycle-level simulator for reconfigurable DNN accelerators (STONNE stand-in).

Public surface:

* configuration — :class:`SimulatorConfig` and the :func:`maeri_config`,
  :func:`sigma_config`, :func:`tpu_config` helpers (paper Table III);
* workloads — :class:`ConvLayer`, :class:`FcLayer`, :class:`GemmLayer`
  (paper Table II);
* mappings — :class:`ConvMapping`, :class:`FcMapping` (paper Tables IV/V);
* execution — :func:`make_controller` resolving a config to its
  registered :class:`AcceleratorController`, whose ``run_conv`` /
  ``run_fc`` / ``run_gemm`` return :class:`SimulationStats`.
"""

from repro.stonne.config import (
    ControllerType,
    MsNetworkType,
    ReduceNetworkType,
    SimulatorConfig,
    maeri_config,
    magma_config,
    sigma_config,
    tpu_config,
)
from repro.stonne.controller import (
    AcceleratorController,
    controller_class,
    make_controller,
    register_controller,
    registered_controller_types,
    unregister_controller,
)
from repro.stonne.magma import MagmaController
from repro.stonne.energy import (
    DEFAULT_ENERGY_TABLE,
    EnergyBreakdown,
    EnergyTable,
    attach_energy,
    estimate_energy,
)
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer, ceil_div
from repro.stonne.mapping import (
    ConvMapping,
    FcMapping,
    enumerate_conv_mappings,
    enumerate_fc_mappings,
)
from repro.stonne.maeri import MaeriController
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.sigma import SigmaController
from repro.stonne.sparsity import prune_to_sparsity
from repro.stonne.stats import SimulationStats, TrafficBreakdown, combine_stats
from repro.stonne.tpu import TpuController

__all__ = [
    "AcceleratorController",
    "controller_class",
    "make_controller",
    "register_controller",
    "registered_controller_types",
    "unregister_controller",
    "DEFAULT_ENERGY_TABLE",
    "EnergyBreakdown",
    "EnergyTable",
    "attach_energy",
    "estimate_energy",
    "ControllerType",
    "ConvLayer",
    "ConvMapping",
    "CycleModelParams",
    "DEFAULT_PARAMS",
    "FcLayer",
    "FcMapping",
    "GemmLayer",
    "MaeriController",
    "MagmaController",
    "magma_config",
    "MsNetworkType",
    "ReduceNetworkType",
    "SigmaController",
    "SimulationStats",
    "SimulatorConfig",
    "TpuController",
    "TrafficBreakdown",
    "ceil_div",
    "combine_stats",
    "enumerate_conv_mappings",
    "enumerate_fc_mappings",
    "maeri_config",
    "prune_to_sparsity",
    "sigma_config",
    "tpu_config",
]
