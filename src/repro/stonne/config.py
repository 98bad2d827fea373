"""Hardware configuration of the simulated accelerators (paper Table III).

:class:`SimulatorConfig` is a *validated* value object: constructing one
with an invalid combination raises :class:`~repro.errors.ConfigError`.  The
validation rules are exactly the ones Bifrost enforces on top of STONNE
(§VI of the paper), which "eliminates undefined behaviour from occurring in
STONNE":

* ``ms_size`` must be a power of two and at least 8 (``LINEAR`` networks);
* ``ms_rows``/``ms_cols`` must be powers of two (``OS_MESH`` networks);
* ``dn_bw`` and ``rn_bw`` must be powers of two;
* MAERI and SIGMA must use the ``LINEAR`` multiplier network, the TPU must
  use ``OS_MESH``;
* the TPU must use the ``TEMPORALRN`` reduction network, an accumulation
  buffer, and has its distribution/reduction bandwidths fixed to
  ``rows + cols`` and ``rows * cols`` respectively;
* ``sparsity_ratio`` is an int *percent* in [0, 100] (STONNE's unit,
  whatever the name says) and only meaningful for SIGMA and MAGMA.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.stonne.layer import is_power_of_two
from repro.stonne.params import DEFAULT_DN_BW, DEFAULT_MS_SIZE, DEFAULT_RN_BW


class ControllerType(str, Enum):
    """The simulated accelerator architecture (Table III).

    ``MAGMA_SPARSE_DENSE`` is the future-work extension of §IX (sparse-
    dense matrix multiplication, enabling MAGMA-style designs); the other
    three are the architectures the paper evaluates.
    """

    MAERI_DENSE_WORKLOAD = "MAERI_DENSE_WORKLOAD"
    SIGMA_SPARSE_GEMM = "SIGMA_SPARSE_GEMM"
    TPU_OS_DENSE = "TPU_OS_DENSE"
    MAGMA_SPARSE_DENSE = "MAGMA_SPARSE_DENSE"


class MsNetworkType(str, Enum):
    """Topology of the multiplier switch network."""

    LINEAR = "LINEAR"
    OS_MESH = "OS_MESH"


class ReduceNetworkType(str, Enum):
    """Reduction network implementations available in STONNE.

    ``ASNETWORK`` is MAERI's ART (augmented reduction tree), ``FENETWORK``
    is the STIFT/FEN spatio-temporal fabric, and ``TEMPORALRN`` is the
    temporal reduction used by rigid architectures such as the TPU.
    """

    ASNETWORK = "ASNETWORK"
    FENETWORK = "FENETWORK"
    TEMPORALRN = "TEMPORALRN"


#: Architectures whose multiplier network must be LINEAR.
_LINEAR_CONTROLLERS = (
    ControllerType.MAERI_DENSE_WORKLOAD,
    ControllerType.SIGMA_SPARSE_GEMM,
    ControllerType.MAGMA_SPARSE_DENSE,
)

#: Architectures that consume a sparsity ratio.
_SPARSE_CONTROLLERS = (
    ControllerType.SIGMA_SPARSE_GEMM,
    ControllerType.MAGMA_SPARSE_DENSE,
)


@dataclass(frozen=True)
class SimulatorConfig:
    """A complete, validated STONNE hardware configuration.

    Use keyword construction or the :func:`maeri_config` /
    :func:`sigma_config` / :func:`tpu_config` helpers.  Instances are
    immutable; derive variants with :meth:`with_updates`.

    ``sparsity_ratio`` is an int *percent* (50 where the session's
    :attr:`~repro.session.ArchitectureConfig.sparsity_ratio` says 0.5).
    """

    controller_type: ControllerType = ControllerType.MAERI_DENSE_WORKLOAD
    ms_network_type: MsNetworkType = MsNetworkType.LINEAR
    ms_size: int = DEFAULT_MS_SIZE
    ms_rows: int = 16
    ms_cols: int = 16
    dn_bw: int = DEFAULT_DN_BW
    rn_bw: int = DEFAULT_RN_BW
    reduce_network_type: ReduceNetworkType = ReduceNetworkType.ASNETWORK
    sparsity_ratio: int = 0
    accumulation_buffer: bool = True

    def __post_init__(self) -> None:
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        ct = ControllerType(self.controller_type)
        nt = MsNetworkType(self.ms_network_type)
        rt = ReduceNetworkType(self.reduce_network_type)
        object.__setattr__(self, "controller_type", ct)
        object.__setattr__(self, "ms_network_type", nt)
        object.__setattr__(self, "reduce_network_type", rt)

        if ct in _LINEAR_CONTROLLERS:
            if nt is not MsNetworkType.LINEAR:
                raise ConfigError(
                    f"{ct.value} requires ms_network_type=LINEAR, got {nt.value}"
                )
            if not is_power_of_two(self.ms_size) or self.ms_size < 8:
                raise ConfigError(
                    f"ms_size must be a power of two >= 8, got {self.ms_size}"
                )
        else:  # TPU
            if nt is not MsNetworkType.OS_MESH:
                raise ConfigError(
                    f"{ct.value} requires ms_network_type=OS_MESH, got {nt.value}"
                )
            if not is_power_of_two(self.ms_rows):
                raise ConfigError(f"ms_rows must be a power of two, got {self.ms_rows}")
            if not is_power_of_two(self.ms_cols):
                raise ConfigError(f"ms_cols must be a power of two, got {self.ms_cols}")
            if rt is not ReduceNetworkType.TEMPORALRN:
                raise ConfigError(
                    f"TPU requires reduce_network_type=TEMPORALRN, got {rt.value}"
                )
            if not self.accumulation_buffer:
                raise ConfigError("TPU requires accumulation_buffer=True")
            expected_dn = self.ms_rows + self.ms_cols
            expected_rn = self.ms_rows * self.ms_cols
            if self.dn_bw != expected_dn or self.rn_bw != expected_rn:
                raise ConfigError(
                    "TPU requires dn_bw = ms_rows + ms_cols = "
                    f"{expected_dn} and rn_bw = ms_rows * ms_cols = {expected_rn}; "
                    f"got dn_bw={self.dn_bw}, rn_bw={self.rn_bw}. "
                    "Use bifrost.SimulatorConfigurator, which corrects these "
                    "automatically."
                )

        if ct is ControllerType.TPU_OS_DENSE:
            pass  # TPU bandwidths validated above (not power-of-two constrained)
        else:
            if not is_power_of_two(self.dn_bw):
                raise ConfigError(f"dn_bw must be a power of two, got {self.dn_bw}")
            if not is_power_of_two(self.rn_bw):
                raise ConfigError(f"rn_bw must be a power of two, got {self.rn_bw}")

        if rt is ReduceNetworkType.TEMPORALRN and ct in _LINEAR_CONTROLLERS:
            raise ConfigError(
                f"{ct.value} cannot use the TEMPORALRN reduction network"
            )

        if not isinstance(self.sparsity_ratio, int) or isinstance(self.sparsity_ratio, bool):
            raise ConfigError(
                f"sparsity_ratio must be an integer percentage, got {self.sparsity_ratio!r}"
            )
        if not 0 <= self.sparsity_ratio <= 100:
            raise ConfigError(
                f"sparsity_ratio must be in [0, 100], got {self.sparsity_ratio}"
            )
        if self.sparsity_ratio and ct not in _SPARSE_CONTROLLERS:
            raise ConfigError(
                f"sparsity_ratio is only supported by SIGMA and MAGMA, got "
                f"sparsity_ratio={self.sparsity_ratio} for {ct.value}"
            )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def num_multipliers(self) -> int:
        """Total PEs, regardless of network topology."""
        if self.ms_network_type is MsNetworkType.OS_MESH:
            return self.ms_rows * self.ms_cols
        return self.ms_size

    def with_updates(self, **kwargs: Any) -> "SimulatorConfig":
        """Return a validated copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to plain types (enums become their string values)."""
        data = asdict(self)
        data["controller_type"] = self.controller_type.value
        data["ms_network_type"] = self.ms_network_type.value
        data["reduce_network_type"] = self.reduce_network_type.value
        return data

    def to_json(self) -> str:
        """Config-file form, mirroring STONNE's on-disk configuration."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulatorConfig":
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SimulatorConfig":
        return cls.from_dict(json.loads(text))


def maeri_config(
    ms_size: int = DEFAULT_MS_SIZE,
    dn_bw: int = DEFAULT_DN_BW,
    rn_bw: int = DEFAULT_RN_BW,
    reduce_network_type: ReduceNetworkType = ReduceNetworkType.ASNETWORK,
    accumulation_buffer: bool = True,
) -> SimulatorConfig:
    """A validated MAERI configuration."""
    return SimulatorConfig(
        controller_type=ControllerType.MAERI_DENSE_WORKLOAD,
        ms_network_type=MsNetworkType.LINEAR,
        ms_size=ms_size,
        dn_bw=dn_bw,
        rn_bw=rn_bw,
        reduce_network_type=reduce_network_type,
        accumulation_buffer=accumulation_buffer,
    )


def sigma_config(
    ms_size: int = DEFAULT_MS_SIZE,
    dn_bw: int = DEFAULT_DN_BW,
    rn_bw: int = DEFAULT_RN_BW,
    sparsity_ratio: int = 0,
) -> SimulatorConfig:
    """A validated SIGMA configuration.

    SIGMA uses the FENETWORK (forwarding adder network) reduction fabric.
    """
    return SimulatorConfig(
        controller_type=ControllerType.SIGMA_SPARSE_GEMM,
        ms_network_type=MsNetworkType.LINEAR,
        ms_size=ms_size,
        dn_bw=dn_bw,
        rn_bw=rn_bw,
        reduce_network_type=ReduceNetworkType.FENETWORK,
        sparsity_ratio=sparsity_ratio,
    )


def magma_config(
    ms_size: int = DEFAULT_MS_SIZE,
    dn_bw: int = DEFAULT_DN_BW,
    rn_bw: int = DEFAULT_RN_BW,
    sparsity_ratio: int = 0,
) -> SimulatorConfig:
    """A validated MAGMA (sparse-dense GEMM) configuration.

    Like SIGMA it uses a linear multiplier array with a forwarding
    reduction fabric; unlike SIGMA its front end consumes one sparse and
    one dense operand (sparse-dense matrix multiplication).
    """
    return SimulatorConfig(
        controller_type=ControllerType.MAGMA_SPARSE_DENSE,
        ms_network_type=MsNetworkType.LINEAR,
        ms_size=ms_size,
        dn_bw=dn_bw,
        rn_bw=rn_bw,
        reduce_network_type=ReduceNetworkType.FENETWORK,
        sparsity_ratio=sparsity_ratio,
    )


def tpu_config(ms_rows: int = 16, ms_cols: int = 16) -> SimulatorConfig:
    """A validated TPU (output-stationary mesh) configuration.

    Distribution and reduction bandwidths are derived from the mesh shape as
    the paper mandates (``dn_bw = rows + cols``, ``rn_bw = rows * cols``).
    """
    return SimulatorConfig(
        controller_type=ControllerType.TPU_OS_DENSE,
        ms_network_type=MsNetworkType.OS_MESH,
        ms_rows=ms_rows,
        ms_cols=ms_cols,
        dn_bw=ms_rows + ms_cols,
        rn_bw=ms_rows * ms_cols,
        reduce_network_type=ReduceNetworkType.TEMPORALRN,
        accumulation_buffer=True,
    )
