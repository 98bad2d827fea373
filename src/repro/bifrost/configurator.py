"""Simulator configurator: validated, auto-corrected hardware configs.

Bifrost's simulator configurator (§VI) "ensures that only valid hardware
configurations for simulation are specified" and, for the TPU, "will
correct improperly configured distribution and reduction networks".
:class:`SimulatorConfigurator` is that layer: a mutable staging object
whose :meth:`build` emits an immutable, fully validated
:class:`~repro.stonne.config.SimulatorConfig` — fixing what can be fixed
(TPU bandwidths, bandwidth rounding) and raising
:class:`~repro.errors.ConfigError` for what cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError
from repro.stonne.config import (
    ControllerType,
    MsNetworkType,
    ReduceNetworkType,
    SimulatorConfig,
)
from repro.stonne.layer import is_power_of_two, next_power_of_two
from repro.stonne.params import DEFAULT_DN_BW, DEFAULT_MS_SIZE, DEFAULT_RN_BW


@dataclass
class SimulatorConfigurator:
    """Staging area for a hardware configuration.

    Attributes mirror Table III.  ``corrections`` records every fix the
    configurator applied, so users can see what Bifrost changed.
    """

    controller_type: ControllerType = ControllerType.MAERI_DENSE_WORKLOAD
    ms_size: int = DEFAULT_MS_SIZE
    ms_rows: int = 16
    ms_cols: int = 16
    dn_bw: int = DEFAULT_DN_BW
    rn_bw: int = DEFAULT_RN_BW
    reduce_network_type: Optional[ReduceNetworkType] = None
    sparsity_ratio: int = 0
    accumulation_buffer: bool = True
    corrections: List[str] = field(default_factory=list)

    def _correct(self, message: str) -> None:
        self.corrections.append(message)

    # ------------------------------------------------------------------
    def build(self) -> SimulatorConfig:
        """Emit a validated config, auto-correcting where Bifrost does."""
        ct = ControllerType(self.controller_type)
        self.corrections = []

        if ct is ControllerType.TPU_OS_DENSE:
            return self._build_tpu()
        return self._build_linear(ct)

    def _build_linear(self, ct: ControllerType) -> SimulatorConfig:
        ms_size = self.ms_size
        if ms_size < 8:
            raise ConfigError(
                f"ms_size must be >= 8 for {ct.value}, got {ms_size}"
            )
        if not is_power_of_two(ms_size):
            fixed = next_power_of_two(ms_size)
            self._correct(f"ms_size {ms_size} rounded up to power of two {fixed}")
            ms_size = fixed

        dn_bw = self.dn_bw
        if not is_power_of_two(dn_bw):
            fixed = next_power_of_two(dn_bw)
            self._correct(f"dn_bw {dn_bw} rounded up to power of two {fixed}")
            dn_bw = fixed
        rn_bw = self.rn_bw
        if not is_power_of_two(rn_bw):
            fixed = next_power_of_two(rn_bw)
            self._correct(f"rn_bw {rn_bw} rounded up to power of two {fixed}")
            rn_bw = fixed

        sparse_controllers = (
            ControllerType.SIGMA_SPARSE_GEMM,
            ControllerType.MAGMA_SPARSE_DENSE,
        )
        if ct in sparse_controllers:
            reduce_net = self.reduce_network_type or ReduceNetworkType.FENETWORK
            sparsity = self.sparsity_ratio
        else:
            reduce_net = self.reduce_network_type or ReduceNetworkType.ASNETWORK
            if self.sparsity_ratio:
                raise ConfigError(
                    f"sparsity_ratio={self.sparsity_ratio} is only supported "
                    "by SIGMA and MAGMA; MAERI runs dense workloads"
                )
            sparsity = 0
        if reduce_net is ReduceNetworkType.TEMPORALRN:
            raise ConfigError(f"{ct.value} cannot use TEMPORALRN")

        return SimulatorConfig(
            controller_type=ct,
            ms_network_type=MsNetworkType.LINEAR,
            ms_size=ms_size,
            dn_bw=dn_bw,
            rn_bw=rn_bw,
            reduce_network_type=reduce_net,
            sparsity_ratio=sparsity,
            accumulation_buffer=self.accumulation_buffer,
        )

    def _build_tpu(self) -> SimulatorConfig:
        rows, cols = self.ms_rows, self.ms_cols
        if not is_power_of_two(rows):
            fixed = next_power_of_two(rows)
            self._correct(f"ms_rows {rows} rounded up to power of two {fixed}")
            rows = fixed
        if not is_power_of_two(cols):
            fixed = next_power_of_two(cols)
            self._correct(f"ms_cols {cols} rounded up to power of two {fixed}")
            cols = fixed

        expected_dn = rows + cols
        expected_rn = rows * cols
        if self.dn_bw != expected_dn:
            self._correct(
                f"TPU dn_bw corrected from {self.dn_bw} to ms_rows + ms_cols "
                f"= {expected_dn}"
            )
        if self.rn_bw != expected_rn:
            self._correct(
                f"TPU rn_bw corrected from {self.rn_bw} to ms_rows * ms_cols "
                f"= {expected_rn}"
            )
        if not self.accumulation_buffer:
            self._correct("TPU requires an accumulation buffer; enabled it")
        if self.reduce_network_type not in (None, ReduceNetworkType.TEMPORALRN):
            self._correct(
                f"TPU reduce network corrected from "
                f"{self.reduce_network_type.value} to TEMPORALRN"
            )
        if self.sparsity_ratio:
            raise ConfigError(
                f"sparsity_ratio={self.sparsity_ratio} is only supported by "
                "SIGMA and MAGMA; the TPU runs dense workloads"
            )

        return SimulatorConfig(
            controller_type=ControllerType.TPU_OS_DENSE,
            ms_network_type=MsNetworkType.OS_MESH,
            ms_rows=rows,
            ms_cols=cols,
            dn_bw=expected_dn,
            rn_bw=expected_rn,
            reduce_network_type=ReduceNetworkType.TEMPORALRN,
            accumulation_buffer=True,
        )
