"""mRNA's analytical MAERI performance model.

mRNA [Zhao et al., ISPASS'19] finds dataflow mappings for MAERI *without
running a simulator*: it encodes the architecture — virtual-neuron
partitioning, distribution/reduction bandwidth, accumulation behaviour —
as closed-form expressions and scores candidate mappings directly, which
is why it "takes minutes rather than hours" (§VIII-B).

This module is that encoding for our MAERI model: steady-state initiation
interval times iteration count.  It intentionally ignores second-order
terms the simulator charges (configuration loads, pipeline fill), exactly
the kind of abstraction a specialized analytical tool makes; tests verify
its estimates track simulated cycles within a few percent on realistic
layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stonne.config import SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import (
    TileProfile,
    conv_profile,
    fc_profile,
    fits_int64,
    steady_state,
)
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS


@dataclass(frozen=True)
class MaeriAnalyticalModel:
    """Closed-form cycle estimates for MAERI mappings.

    The estimate is the steady-state term of the MAERI model — the same
    tile profile (:func:`~repro.stonne.maeri.conv_profile` /
    :func:`~repro.stonne.maeri.fc_profile`) and interval arithmetic
    (:func:`~repro.stonne.maeri.steady_state`) — without pipeline fill
    and with the buffer's plain RAW latency as the hazard stall.  Like
    those functions it takes one mapping's tiles as Python ints or a
    candidate grid's tiles as int64 columns.
    """

    config: SimulatorConfig
    params: CycleModelParams = DEFAULT_PARAMS

    def profile_cycles(self, profile: TileProfile):
        """Estimated cycles of a tile profile (an int or an int64 column)."""
        return steady_state(
            profile,
            self.config.dn_bw,
            self.config.rn_bw,
            self.params.rmw_occupancy,
            self.params.acc_raw_latency,
        )[2]

    def fits_int64(self, layer) -> bool:
        """Whether int64 columns score every valid mapping of ``layer`` exactly."""
        return fits_int64(
            layer, self.config.ms_size, self.params.rmw_occupancy,
            self.params.acc_raw_latency,
        )

    def conv_cycles(self, layer: ConvLayer, mapping: ConvMapping) -> int:
        """Estimated cycles for a conv mapping."""
        return self.profile_cycles(conv_profile(layer, mapping.as_tuple()))

    def fc_cycles(self, layer: FcLayer, mapping: FcMapping) -> int:
        """Estimated cycles for an FC mapping."""
        return self.profile_cycles(fc_profile(layer, mapping.as_tuple()))

    # ------------------------------------------------------------------
    def conv_utilization(self, layer: ConvLayer, mapping: ConvMapping) -> float:
        """Fraction of the multiplier array the mapping occupies."""
        return mapping.multipliers_used / self.config.ms_size

    def fc_utilization(self, layer: FcLayer, mapping: FcMapping) -> float:
        return mapping.multipliers_used / self.config.ms_size
