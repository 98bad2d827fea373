"""TPU controller: a rigid output-stationary systolic mesh.

The TPU architecture in STONNE is a fixed-dataflow baseline: a
``rows x cols`` output-stationary mesh (``OS_MESH``) with a weight-
stationary schedule inside each tile, a ``TEMPORALRN`` reduction network
(all accumulation is temporal, in place at each PE) and a mandatory
accumulation buffer.  There are no mapping knobs: "since the TPU has a
fixed dataflow architecture, the tiling can not be changed" (§V-A).

Convolutions are lowered to GEMM exactly like SIGMA (§V-B3).  Each output
tile of ``rows x cols`` results costs the classic systolic schedule:
``K + (rows + cols - 2) * fill_drain + 1`` cycles for a reduction of
length ``K``.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.controller import (
    AcceleratorController,
    _lowered_gemm_batch,
    register_controller,
)
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer, ceil_div
from repro.stonne.multiplier import OSMeshNetwork
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.stats import SimulationStats, TrafficBreakdown


@register_controller(ControllerType.TPU_OS_DENSE)
class TpuController(AcceleratorController):
    """Simulates GEMM workloads (and lowered conv/dense) on the TPU mesh."""

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.TPU_OS_DENSE:
            raise ConfigError(
                f"TpuController requires a TPU config, got "
                f"{config.controller_type.value}"
            )
        self.config = config
        self.params = params
        self.mesh = OSMeshNetwork(rows=config.ms_rows, cols=config.ms_cols)

    def run_gemm(self, gemm: GemmLayer) -> SimulationStats:
        """Simulate ``(M x K) @ (K x N)`` on the output-stationary mesh."""
        rows, cols = self.mesh.rows, self.mesh.cols
        row_tiles = ceil_div(gemm.M, rows)
        col_tiles = ceil_div(gemm.N, cols)
        tiles = row_tiles * col_tiles

        per_tile = self.mesh.tile_cycles(
            gemm.K, fill_drain_factor=self.params.tpu_fill_drain_factor
        )
        cycles = self.params.config_cycles + tiles * per_tile

        # Temporal reduction: every MAC deposits a psum into its PE's
        # accumulator; the counter reports the per-output accumulations.
        psums = gemm.output_elements * gemm.K

        traffic = TrafficBreakdown(
            weights_distributed=tiles * rows * gemm.K,
            inputs_distributed=tiles * cols * gemm.K,
            psums_reduced=psums,
            outputs_written=gemm.output_elements,
        )
        return SimulationStats(
            layer_name=gemm.name,
            controller=self.config.controller_type.value,
            cycles=cycles,
            psums=psums,
            macs=gemm.macs,
            iterations=tiles,
            multipliers_used=self.mesh.size,
            array_size=self.mesh.size,
            traffic=traffic,
            phase_cycles={"tiles": tiles * per_tile},
        )

    def run_conv(self, layer: ConvLayer, mapping=None) -> SimulationStats:
        """Convolution lowered to GEMM (im2col), as §V-B3 describes.

        ``mapping`` is accepted for surface uniformity and ignored: the
        TPU's dataflow is fixed (§V-A)."""
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    def run_fc(self, layer: FcLayer, mapping=None) -> SimulationStats:
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    # ------------------------------------------------------------------
    # batch kernels (see AcceleratorController contract)
    # ------------------------------------------------------------------
    def run_conv_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)

    def run_fc_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)
