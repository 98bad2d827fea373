"""MAGMA controller: sparse-dense GEMM (the paper's §IX extension).

The paper's future work names "support for more operators such as
sparse-dense matrix multiplication, which would allow other accelerator
designs like MAGMA to be evaluated".  This controller models such a
design: a linear multiplier array executing ``A_sparse @ B_dense`` where
the *stationary* operand ``A`` is compressed (CSR-style, only non-zeros
are fetched and multiplied) and the streaming operand ``B`` is dense.

Differences from SIGMA that the model captures:

* **operand asymmetry** — only ``A``'s traffic and MACs shrink with
  sparsity; ``B`` streams in full once per stationary fold;
* **row-packed scheduling** — non-zero rows are packed onto the array,
  so fold count scales with ``nnz`` rather than positions (MAGMA does
  not pay SIGMA's position-fold psum invariance: its psum traffic
  *does* shrink with sparsity);
* **gather overhead** — each fold pays a column-index gather cost for
  routing dense-operand elements to the non-zero positions.

Cycle counts are deterministic functions of (layer, config), like every
other controller.
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

#: Cycles per fold spent resolving the gather of dense-operand columns.
GATHER_CYCLES_PER_FOLD = 1


@register_controller(ControllerType.MAGMA_SPARSE_DENSE)
class MagmaController(AcceleratorController):
    """Simulates sparse-dense GEMM workloads on a MAGMA-style array."""

    consumes_sparsity = True

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.MAGMA_SPARSE_DENSE:
            raise ConfigError(
                f"MagmaController requires a MAGMA config, got "
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

    @property
    def density(self) -> float:
        """Fraction of non-zeros in the sparse (stationary) operand."""
        return 1.0 - self.config.sparsity_ratio / 100.0

    def run_gemm(self, gemm: GemmLayer) -> SimulationStats:
        """Simulate ``A_sparse(M x K) @ B_dense(K x N)``."""
        ms = self.config.ms_size
        density = self.density
        nnz = max(1, int(round(gemm.M * gemm.K * density)))
        effective_macs = nnz * gemm.N

        # Row-packed folds: the array holds `ms` non-zeros at a time.
        folds = ceil_div(nnz, ms)

        # Stationary operand: each non-zero loaded once.
        a_cycles = self.distribution.cycles_to_distribute(nnz)
        # Streaming operand: per fold, the N dense columns stream through;
        # each fold touches at most `ms` distinct K-rows per column.
        rows_per_fold = min(gemm.K, ms)
        b_cycles = folds * gemm.N * ceil_div(
            rows_per_fold, self.config.dn_bw
        )
        compute_cycles = ceil_div(effective_macs, ms)
        # Partial sums: each output row is accumulated once per fold *of
        # that row's non-zeros* — row packing makes psum traffic shrink
        # with sparsity, unlike SIGMA's position-tiled folds.
        nnz_per_row = max(1, ceil_div(nnz, gemm.M))
        row_folds = ceil_div(nnz_per_row, ms)
        psum_writes = gemm.M * gemm.N * row_folds
        psum_cycles = self.reduction.cycles_to_collect(psum_writes, partial=True)
        gather_cycles = GATHER_CYCLES_PER_FOLD * folds
        fixed = self.params.sigma_fixed_overhead

        cycles = (
            max(compute_cycles, b_cycles)
            + a_cycles
            + psum_cycles
            + gather_cycles
            + fixed
        )
        traffic = TrafficBreakdown(
            weights_distributed=nnz,
            inputs_distributed=folds * rows_per_fold * gemm.N,
            psums_reduced=psum_writes,
            outputs_written=gemm.output_elements,
        )
        return SimulationStats(
            layer_name=gemm.name,
            controller=self.config.controller_type.value,
            cycles=cycles,
            psums=psum_writes,
            macs=effective_macs,
            iterations=folds,
            multipliers_used=min(ms, nnz),
            array_size=ms,
            traffic=traffic,
            phase_cycles={
                "stream": max(compute_cycles, b_cycles),
                "stationary_load": a_cycles,
                "psum": psum_cycles,
                "gather": gather_cycles,
                "fixed": fixed,
            },
        )

    def run_fc(self, layer: FcLayer, mapping=None) -> SimulationStats:
        """Dense layer with sparse weights (``mapping`` ignored)."""
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    def run_conv(self, layer: ConvLayer, mapping=None) -> SimulationStats:
        """Convolution via im2col, sparse filters x dense input matrix."""
        return self.run_gemm(layer.as_gemm()).renamed(layer.name)

    # ------------------------------------------------------------------
    # batch kernels (see AcceleratorController contract)
    # ------------------------------------------------------------------
    def run_conv_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)

    def run_fc_batch(self, layer, mappings):
        return _lowered_gemm_batch(self, layer, mappings)
