"""Multiplier network model of the TPU.

:class:`OSMeshNetwork` (STONNE's ``OS_MESH``, Table III) is the TPU's 2-D
output-stationary mesh of ``rows x cols`` PEs executing the classic
systolic schedule.  MAERI's and SIGMA's linear arrays (``LINEAR``) need
no object: every occupied multiplier retires one MAC per cycle, which
their cycle models fold into each tile iteration's interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class OSMeshNetwork:
    """An output-stationary ``rows x cols`` systolic mesh (the TPU)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise SimulationError(
                f"mesh dimensions must be >= 1, got {self.rows}x{self.cols}"
            )

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def tile_cycles(self, reduction_length: int, fill_drain_factor: int = 1) -> int:
        """Cycles for one output tile of ``rows x cols`` results.

        The classic systolic formula: operands skew in across the mesh
        diagonals (fill), ``reduction_length`` MACs stream through every
        PE, then results drain.  Fill + drain together cost
        ``(rows + cols - 2) * fill_drain_factor`` extra cycles.
        """
        if reduction_length < 1:
            raise SimulationError(
                f"reduction length must be >= 1, got {reduction_length}"
            )
        fill_drain = (self.rows + self.cols - 2) * fill_drain_factor
        return reduction_length + fill_drain + 1
