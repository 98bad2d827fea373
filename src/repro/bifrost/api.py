"""The STONNE-Bifrost API (§V): packed functions that offload layers.

Each entry point follows the seven-step execution workflow the paper
lists:

1. parse layer information;
2. transform layer information and input data into a STONNE-compatible
   format;
3. create a new STONNE instance;
4. configure it with the architecture and dataflow mapping;
5. load the layer and run;
6. transform the output back into the caller's format;
7. record the simulated cycle count and/or partial sums.

Real STONNE MAERI consumes only NHWC/RSCK (§V-B1), so Bifrost transposes
NCHW/KCRS tensors on the CPU in step 2 and the output back in step 6,
work that is *not* counted in the cycle totals.  Here the cycle models
read layer descriptors, not tensors, and the functional datapath
(TOPI's im2col conv2d) computes in NCHW whatever the architecture, so those
transposes are not emulated: they would be uncounted CPU work undone at
once.  Step 2 reduces to a float64 conversion of the inputs and step 6
to nothing; only :meth:`StonneBifrostApi.conv2d_nhwc` transposes, for
NHWC callers.

The functions are registered in a global registry under TVM-style names
(``tvm.contrib.stonne.conv2d.nchw`` etc.), which is how the TOPI
strategies reach them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bifrost.mapping_config import MappingConfigurator
from repro.engine import EvaluationEngine
from repro.errors import LayerError, SimulationError
from repro.stonne.config import SimulatorConfig
from repro.stonne.controller import controller_class
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.sparsity import prune_to_sparsity
from repro.stonne.stats import SimulationStats
from repro.topi.conv2d import conv2d_nchw
from repro.topi.layout import nchw_to_nhwc, nhwc_to_nchw, rsck_to_kcrs


@dataclass
class StonneBifrostApi:
    """A configured offload endpoint: architecture + mappings + stats.

    One instance per Bifrost session; every offloaded layer appends its
    :class:`~repro.stonne.stats.SimulationStats` to :attr:`stats`.

    Stats lookups route through the session's evaluation engine, so a
    repeated shape in one graph skips the cycle model — the functional
    datapath (the im2col GEMM that produces real outputs) still executes
    for every call.  A :class:`repro.session.Session` passes its engine
    as ``_engine``; without one the endpoint builds a serial engine over
    a private stats cache.
    """

    config: SimulatorConfig
    mappings: MappingConfigurator
    params: CycleModelParams = DEFAULT_PARAMS
    stats: List[SimulationStats] = field(default_factory=list)
    _layer_counter: Dict[str, int] = field(default_factory=dict)
    _engine: Optional[EvaluationEngine] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # One engine per session, shared with the mapping configurator so
        # tuner simulations and run_layers populate the same stats cache.
        if self._engine is None:
            self._engine = EvaluationEngine(self.config, self.params)
        if self.mappings.engine is None:
            self.mappings.engine = self._engine

    # ------------------------------------------------------------------
    @property
    def engine(self) -> EvaluationEngine:
        """The session's evaluation engine (cache shared across every run
        of the session and with mapping tuning)."""
        assert self._engine is not None
        return self._engine

    def close(self) -> None:
        """Release the engine's executor pools (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "StonneBifrostApi":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _controller_cls(self):
        return controller_class(self.config.controller_type)

    def reset_stats(self) -> None:
        """Clear recorded per-layer stats (the engine cache persists —
        cached simulations stay valid across runs)."""
        self.stats.clear()
        self._layer_counter.clear()

    def total_cycles(self) -> int:
        """Simulated cycles across every offloaded layer so far."""
        return sum(s.cycles for s in self.stats)

    def _layer_name(self, base: str) -> str:
        count = self._layer_counter.get(base, 0)
        self._layer_counter[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _maybe_prune(self, weights: np.ndarray) -> np.ndarray:
        """Apply the configured sparsity to weights (sparse architectures)."""
        if self._controller_cls().consumes_sparsity and self.config.sparsity_ratio:
            return prune_to_sparsity(weights, self.config.sparsity_ratio)
        return weights

    def _evaluate(self, layer) -> SimulationStats:
        """The layer's cycle model through the session engine (cached for
        repeated shapes), mapped when the controller requires a mapping.
        Callers still run the functional datapath for every call."""
        mapping = (
            self.mappings.mapping_for(layer)
            if self._controller_cls().requires_mapping
            else None
        )
        return self.engine.evaluate(layer, mapping)

    # ------------------------------------------------------------------
    # conv2d
    # ------------------------------------------------------------------
    def conv2d_nchw(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        strides=(1, 1),
        padding=(0, 0),
        groups: int = 1,
        layer_name: str = "conv2d",
    ) -> np.ndarray:
        """Execute an NCHW/KCRS convolution on the simulated accelerator.

        One path for every architecture: the mapping is resolved when the
        controller requires one (MAERI), the session engine serves the
        cycle model, and TOPI's NCHW conv2d produces the output.
        MAERI's NHWC/RSCK staging (§V-B1) is uncounted CPU work that the
        layout-independent datapath would undo at once, so it is not
        emulated; the output is bit-identical either way.
        """
        if data.ndim != 4 or weights.ndim != 4:
            raise LayerError(
                f"conv2d expects 4-D tensors, got {data.shape} and {weights.shape}"
            )
        layer = ConvLayer.from_nchw(
            self._layer_name(layer_name), data.shape, weights.shape,
            strides, padding, groups, dilation=(1, 1),
        )
        if weights.shape[1] != layer.C // groups:
            raise LayerError(
                f"weight channels {weights.shape[1]} != C/groups = "
                f"{layer.C // groups}"
            )
        weights = self._maybe_prune(weights)
        stats = self._evaluate(layer)
        output = conv2d_nchw(
            np.asarray(data, dtype=np.float64),
            np.asarray(weights, dtype=np.float64),
            strides, padding, groups=groups,
        )
        self.stats.append(stats)
        return output

    def conv2d_nhwc(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        strides=(1, 1),
        padding=(0, 0),
        groups: int = 1,
        layer_name: str = "conv2d",
    ) -> np.ndarray:
        """Execute an NHWC/RSCK convolution (MAERI's native layout)."""
        if data.ndim != 4 or weights.ndim != 4:
            raise LayerError(
                f"conv2d expects 4-D tensors, got {data.shape} and {weights.shape}"
            )
        nchw = nhwc_to_nchw(np.asarray(data, dtype=np.float64))
        kcrs = rsck_to_kcrs(np.asarray(weights, dtype=np.float64))
        out_nchw = self.conv2d_nchw(
            nchw, kcrs, strides=strides, padding=padding, groups=groups,
            layer_name=layer_name,
        )
        return nchw_to_nhwc(out_nchw)

    # ------------------------------------------------------------------
    # dense
    # ------------------------------------------------------------------
    def dense(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        layer_name: str = "dense",
    ) -> np.ndarray:
        """Execute a dense layer (GEMM on every architecture, §V-A)."""
        if data.ndim != 2 or weights.ndim != 2:
            raise LayerError(
                f"dense expects 2-D tensors, got {data.shape} and {weights.shape}"
            )
        if weights.shape[1] != data.shape[1]:
            raise SimulationError(
                f"dense weight shape {weights.shape} does not match input "
                f"features {data.shape[1]}"
            )
        layer = FcLayer.from_shapes(
            self._layer_name(layer_name), data.shape, weights.shape
        )
        weights = self._maybe_prune(np.asarray(weights, dtype=np.float64))
        stats = self._evaluate(layer)
        output = np.asarray(data, dtype=np.float64) @ weights.T
        self.stats.append(stats)
        return output


# ----------------------------------------------------------------------
# TVM-style global function registry
# ----------------------------------------------------------------------
_GLOBAL_FUNCS: Dict[str, Callable] = {}


def register_packed_funcs(api: StonneBifrostApi) -> None:
    """Expose an API instance under TVM's global function names."""
    _GLOBAL_FUNCS["tvm.contrib.stonne.conv2d.nchw"] = api.conv2d_nchw
    _GLOBAL_FUNCS["tvm.contrib.stonne.conv2d.nhwc"] = api.conv2d_nhwc
    _GLOBAL_FUNCS["tvm.contrib.stonne.dense"] = api.dense


def get_packed_func(name: str) -> Callable:
    """Look up a registered packed function by its TVM-style name."""
    try:
        return _GLOBAL_FUNCS[name]
    except KeyError:
        raise SimulationError(
            f"packed function {name!r} is not registered; call "
            "register_packed_funcs first"
        ) from None


def registered_packed_funcs() -> List[str]:
    return sorted(_GLOBAL_FUNCS)
