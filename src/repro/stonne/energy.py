"""Energy model (the paper's declared extension point).

At publication time STONNE's energy/area support was under development
and the paper states Bifrost "will support [energy and area] when they
are available" and names energy efficiency as a future tuning target
(§IX).  This module implements that extension: an event-count energy
model in the Eyeriss/Timeloop tradition — every MAC, network hop and
buffer access has a fixed energy cost, and a simulation's energy is the
dot product of its event counts with the cost table.

The default costs are relative units normalized to one MAC (= 1.0),
with ratios taken from the published 45 nm numbers the community uses
(SRAM access an order of magnitude above a MAC, on-chip hops in
between).  Absolute joules are out of scope; *relative* energy between
configurations and mappings is the quantity Bifrost would tune on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SimulationError
from repro.stonne.stats import SimulationStats


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energy costs, in units of one MAC operation.

    Attributes:
        mac: One multiply-accumulate in a PE.
        dn_transfer: Moving one element through the distribution network.
        rn_transfer: Moving one partial sum through the reduction network.
        buffer_read: One global-buffer read (weights/inputs sourced).
        buffer_write: One global-buffer write (outputs sunk).
        accumulator_rmw: One accumulation-buffer read-modify-write.
        leakage_per_cycle_per_pe: Static energy per cycle per PE; couples
            energy to both array size and execution time, which is what
            makes small-but-slow vs big-but-fast a real trade-off.
    """

    mac: float = 1.0
    dn_transfer: float = 2.0
    rn_transfer: float = 2.0
    buffer_read: float = 6.0
    buffer_write: float = 6.0
    accumulator_rmw: float = 2.5
    leakage_per_cycle_per_pe: float = 0.05

    def __post_init__(self) -> None:
        for field_name in (
            "mac", "dn_transfer", "rn_transfer", "buffer_read",
            "buffer_write", "accumulator_rmw", "leakage_per_cycle_per_pe",
        ):
            if getattr(self, field_name) < 0:
                raise SimulationError(
                    f"energy cost {field_name} must be >= 0"
                )


DEFAULT_ENERGY_TABLE = EnergyTable()


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in MAC-units."""

    compute: float
    distribution: float
    reduction: float
    buffers: float
    accumulation: float
    leakage: float

    @property
    def total(self) -> float:
        return (
            self.compute + self.distribution + self.reduction
            + self.buffers + self.accumulation + self.leakage
        )

    def summary(self) -> str:
        parts = [
            ("compute", self.compute),
            ("distribution", self.distribution),
            ("reduction", self.reduction),
            ("buffers", self.buffers),
            ("accumulation", self.accumulation),
            ("leakage", self.leakage),
        ]
        total = self.total
        cells = ", ".join(
            f"{name} {value / total:.0%}" for name, value in parts if total
        )
        return f"{total:,.0f} MAC-units ({cells})"


def estimate_energy(
    stats: SimulationStats,
    table: EnergyTable = DEFAULT_ENERGY_TABLE,
) -> EnergyBreakdown:
    """Energy of a simulated execution from its event counts.

    Works for any controller: the traffic breakdown and cycle count in
    :class:`SimulationStats` are the complete event record the model
    needs.  Partial-sum traffic is charged once through the reduction
    network and once as an accumulator read-modify-write; final outputs
    are buffer writes.
    """
    traffic = stats.traffic
    compute = table.mac * stats.macs
    distribution = table.dn_transfer * traffic.distribution_total
    reduction = table.rn_transfer * traffic.psums_reduced
    buffers = table.buffer_read * traffic.distribution_total + (
        table.buffer_write * traffic.outputs_written
    )
    accumulation = table.accumulator_rmw * max(
        0, traffic.psums_reduced - traffic.outputs_written
    )
    leakage = table.leakage_per_cycle_per_pe * stats.cycles * stats.array_size
    return EnergyBreakdown(
        compute=compute,
        distribution=distribution,
        reduction=reduction,
        buffers=buffers,
        accumulation=accumulation,
        leakage=leakage,
    )


def attach_energy(
    stats: SimulationStats,
    table: EnergyTable = DEFAULT_ENERGY_TABLE,
) -> SimulationStats:
    """A copy of ``stats`` with ``energy`` filled in (records are frozen)."""
    return replace(stats, energy=estimate_energy(stats, table).total)
