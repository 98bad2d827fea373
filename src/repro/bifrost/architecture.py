"""The user-facing architecture object (Listing 1 of the paper).

Bifrost exposes simulator configuration as plain attribute assignment::

    from repro.bifrost import architecture
    architecture.maeri()
    architecture.ms_size = 128
    config = architecture.create_config_file()

``architecture`` is a module-level singleton, mirroring the paper's
``bifrost.simulator.architecture``; :meth:`Architecture.create_config_file`
runs the simulator configurator and caches the validated config the
runner will use.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bifrost.configurator import SimulatorConfigurator
from repro.errors import ConfigError
from repro.stonne.config import ControllerType, ReduceNetworkType, SimulatorConfig
from repro.stonne.params import DEFAULT_DN_BW, DEFAULT_MS_SIZE, DEFAULT_RN_BW


class Architecture:
    """Mutable architecture settings with a ``create_config_file`` step."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Back to the defaults (MAERI, 128 multipliers)."""
        self.controller_type: ControllerType = ControllerType.MAERI_DENSE_WORKLOAD
        self.ms_size: int = DEFAULT_MS_SIZE
        self.ms_rows: int = 16
        self.ms_cols: int = 16
        self.dn_bw: int = DEFAULT_DN_BW
        self.rn_bw: int = DEFAULT_RN_BW
        self.reduce_network_type: Optional[ReduceNetworkType] = None
        self.sparsity_ratio: int = 0
        self.accumulation_buffer: bool = True
        self._config: Optional[SimulatorConfig] = None
        self._corrections: List[str] = []

    # ------------------------------------------------------------------
    # architecture presets
    # ------------------------------------------------------------------
    def maeri(self) -> "Architecture":
        """Select the MAERI architecture (dense: clears any sparsity)."""
        self.controller_type = ControllerType.MAERI_DENSE_WORKLOAD
        self.sparsity_ratio = 0
        self._config = None
        return self

    def sigma(self, sparsity_ratio: int = 0) -> "Architecture":
        """Select the SIGMA architecture at the given weight sparsity,
        an int *percent* (50, not 0.5), as :class:`SimulatorConfig`
        takes it."""
        self.controller_type = ControllerType.SIGMA_SPARSE_GEMM
        self.sparsity_ratio = sparsity_ratio
        self._config = None
        return self

    def magma(self, sparsity_ratio: int = 0) -> "Architecture":
        """Select the MAGMA (sparse-dense GEMM) architecture (§IX) at
        the given weight sparsity, an int percent like :meth:`sigma`'s."""
        self.controller_type = ControllerType.MAGMA_SPARSE_DENSE
        self.sparsity_ratio = sparsity_ratio
        self._config = None
        return self

    def tpu(self, ms_rows: int = 16, ms_cols: int = 16) -> "Architecture":
        """Select the TPU architecture (dense: clears any sparsity)."""
        self.controller_type = ControllerType.TPU_OS_DENSE
        self.ms_rows = ms_rows
        self.ms_cols = ms_cols
        self.sparsity_ratio = 0
        self._config = None
        return self

    # ------------------------------------------------------------------
    def create_config_file(self) -> SimulatorConfig:
        """Validate the current settings into a simulator config.

        The name mirrors STONNE's workflow step ("create hardware config
        files") that Bifrost automates; no file is written unless
        :meth:`save` is called.
        """
        configurator = SimulatorConfigurator(
            controller_type=self.controller_type,
            ms_size=self.ms_size,
            ms_rows=self.ms_rows,
            ms_cols=self.ms_cols,
            dn_bw=self.dn_bw,
            rn_bw=self.rn_bw,
            reduce_network_type=self.reduce_network_type,
            sparsity_ratio=self.sparsity_ratio,
            accumulation_buffer=self.accumulation_buffer,
        )
        self._config = configurator.build()
        self._corrections = list(configurator.corrections)
        return self._config

    @property
    def config(self) -> SimulatorConfig:
        """The validated config; builds one on first access."""
        if self._config is None:
            return self.create_config_file()
        return self._config

    @property
    def corrections(self) -> List[str]:
        """Auto-corrections applied by the last ``create_config_file``."""
        return list(self._corrections)

    def save(self, path) -> None:
        """Write the validated config as JSON (STONNE's config-file form)."""
        from pathlib import Path

        Path(path).write_text(self.config.to_json() + "\n")


#: The module-level singleton of Listing 1.
architecture = Architecture()
