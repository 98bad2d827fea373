"""SIGMA controller: cycle-level model of the sparse GEMM fabric.

SIGMA [Qin et al., HPCA'20] is a sparse-and-irregular GEMM accelerator:
non-zero weights are held stationary across a flexible (Benes-routed)
multiplier array, inputs stream through, and a forwarding adder network
(FAN) reduces irregular groups.  Crucially, *the memory controller tiles
the matrix automatically depending on the level of sparsity* (§V-A of the
Bifrost paper) — there is no user-provided mapping.

Model structure (DESIGN.md §3):

* the reduction dimension ``K`` is tiled into *position folds* of
  ``ms_size`` K-positions each — fold boundaries are positional, so the
  fold count (and hence psum accumulation traffic) does not shrink with
  sparsity;
* compute retires ``(1 - sparsity)`` of the MACs at one MAC per PE per
  cycle (zero operands are skipped entirely);
* weight streaming moves only the non-zeros through the distribution
  network, but at high bitmap density the Benes routing heuristics
  congest: effective bandwidth is derated by
  ``1 - dense_routing_loss * density**4`` (dense GEMMs sustain ~82 % of
  peak, nearly-sparse ones the full bandwidth);
* psum writebacks pay the accumulation read-modify-write occupancy at the
  reduction port, identically to MAERI;
* every fold pays a bitmap-decode overhead, and the layer pays a fixed
  warm-up/flush.

These ingredients reproduce Figure 9's asymmetry: FC layers (weight-bound,
``N = 1``) save *more* than the sparsity fraction (~54 % at 50 %), while
convolutions (compute-bound after im2col, with a dense input matrix that
sparsity cannot shrink) save less (~44 %).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.controller import (
    AcceleratorController,
    _lowered_gemm_batch,
    register_controller,
)
from repro.stonne.distribution import DistributionNetwork
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer, ceil_div
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.reduction import make_reduction_network
from repro.stonne.stats import SimulationStats, TrafficBreakdown

#: Fraction of distribution bandwidth lost to Benes routing congestion on a
#: fully dense bitmap (see module docstring).
DENSE_ROUTING_LOSS = 0.18


@register_controller(ControllerType.SIGMA_SPARSE_GEMM)
class SigmaController(AcceleratorController):
    """Simulates GEMM workloads (and im2col-lowered conv/dense) on SIGMA."""

    consumes_sparsity = True

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.SIGMA_SPARSE_GEMM:
            raise ConfigError(
                f"SigmaController requires a SIGMA config, got "
                f"{config.controller_type.value}"
            )
        self.config = config
        self.params = params
        self.distribution = DistributionNetwork(
            bandwidth=config.dn_bw, fanout=config.ms_size
        )
        self.reduction = make_reduction_network(
            config.reduce_network_type.value,
            bandwidth=config.rn_bw,
            rmw_occupancy=params.rmw_occupancy,
        )

    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        """Fraction of non-zero weights, from the configured sparsity."""
        return 1.0 - self.config.sparsity_ratio / 100.0

    def _effective_dn_bandwidth(self) -> float:
        """Distribution bandwidth after Benes routing derate."""
        derate = 1.0 - DENSE_ROUTING_LOSS * self.density ** 4
        return self.config.dn_bw * derate

    def position_folds(self, reduction_length: int) -> int:
        """K-dimension folds; positional, hence sparsity-invariant."""
        return ceil_div(reduction_length, self.config.ms_size)

    # ------------------------------------------------------------------
    def run_gemm(self, gemm: GemmLayer) -> SimulationStats:
        """Simulate ``(M x K) @ (K x N)`` at the configured sparsity."""
        density = self.density
        ms = self.config.ms_size
        params = self.params

        total_macs = gemm.macs
        effective_macs = int(round(total_macs * density))
        nnz_weights = int(round(gemm.M * gemm.K * density))
        folds = self.position_folds(gemm.K)
        outputs = gemm.output_elements
        psum_writes = outputs * folds

        compute_cycles = ceil_div(max(effective_macs, 1), ms)
        weight_cycles = int(round(nnz_weights / self._effective_dn_bandwidth())) + 1
        input_cycles = self.distribution.cycles_to_distribute(gemm.K * gemm.N)
        # Weight streaming overlaps with compute; inputs stream alongside
        # whichever of the two dominates.
        stream_cycles = max(compute_cycles, weight_cycles) + input_cycles

        psum_cycles = self.reduction.cycles_to_collect(psum_writes, partial=True)
        decode_cycles = params.sigma_bitmap_decode * folds
        fixed = params.sigma_fixed_overhead

        cycles = stream_cycles + psum_cycles + decode_cycles + fixed

        traffic = TrafficBreakdown(
            weights_distributed=nnz_weights,
            inputs_distributed=gemm.K * gemm.N,
            psums_reduced=psum_writes,
            outputs_written=outputs,
        )
        return SimulationStats(
            layer_name=gemm.name,
            controller=self.config.controller_type.value,
            cycles=cycles,
            psums=psum_writes,
            macs=effective_macs,
            iterations=folds * gemm.M,
            multipliers_used=min(ms, nnz_weights) if nnz_weights else 1,
            array_size=ms,
            traffic=traffic,
            phase_cycles={
                "stream": stream_cycles,
                "psum": psum_cycles,
                "decode": decode_cycles,
                "fixed": fixed,
            },
        )

    def run_conv(self, layer: ConvLayer, mapping=None) -> SimulationStats:
        """Convolution via the GEMM-convolution primitive (§V-B2).

        ``mapping`` is accepted for surface uniformity and ignored: the
        memory controller tiles the matrix automatically (§V-A).

        SIGMA has no native conv support; Bifrost lowers the layer with
        im2col and multiplies ``weight x data`` (NCHW) — the input matrix
        is dense regardless of weight sparsity, which is why conv savings
        trail the sparsity fraction.
        """
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    def run_fc(self, layer: FcLayer, mapping=None) -> SimulationStats:
        """Dense layer as a native sparse GEMM (``mapping`` ignored)."""
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    # ------------------------------------------------------------------
    # batch kernels (see AcceleratorController contract)
    # ------------------------------------------------------------------
    def run_conv_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)

    def run_fc_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)
