"""Simulation statistics reported by the cycle-level models.

:class:`SimulationStats` is the record every controller returns; the two
headline metrics are ``cycles`` (the paper's primary optimization target)
and ``psums`` (the cheap tuning proxy of §VII-B).

psum accounting
---------------
STONNE's psum counter is workload-specific and we mirror that asymmetry
(see DESIGN.md §2.6):

* for **GEMM/FC** workloads, ``psums`` counts partial sums generated inside
  the reduction network — the outputs of the spatial adders, i.e.
  ``(vn_size - 1)`` per virtual neuron per iteration — plus one
  configuration flush per iteration.  Minimizing it drives ``T_K`` to 1 and
  ``T_S`` as large as possible, the exact behaviour Table VI reports.
* for **conv** workloads, ``psums`` counts partial writebacks to the
  accumulation buffer: each output element is written once per temporal
  reduction fold.  Minimizing it maximizes spatial reduction
  (``T_R·T_S·T_C``), which is why psum-guided conv tuning still finds
  strong mappings (§VIII-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional


@dataclass
class TrafficBreakdown:
    """Element counts moved through each fabric during a simulation."""

    weights_distributed: int = 0
    inputs_distributed: int = 0
    psums_reduced: int = 0
    outputs_written: int = 0

    @property
    def distribution_total(self) -> int:
        return self.weights_distributed + self.inputs_distributed

    def merged_with(self, other: "TrafficBreakdown") -> "TrafficBreakdown":
        return TrafficBreakdown(
            weights_distributed=self.weights_distributed + other.weights_distributed,
            inputs_distributed=self.inputs_distributed + other.inputs_distributed,
            psums_reduced=self.psums_reduced + other.psums_reduced,
            outputs_written=self.outputs_written + other.outputs_written,
        )


@dataclass
class SimulationStats:
    """The result of simulating one layer on one accelerator configuration.

    Attributes:
        layer_name: Name of the simulated workload.
        controller: Architecture that executed it (config value string).
        cycles: Total simulated clock cycles (deterministic).
        psums: The workload-specific partial-sum count (see module docs).
        macs: Useful multiply-accumulates performed.
        iterations: Tile iterations executed.
        multipliers_used: PEs occupied by the mapping (<= array size).
        utilization: ``macs / (cycles * array_size)`` — fraction of peak.
        traffic: Element counts per fabric.
        phase_cycles: Cycle breakdown by phase name (fill/steady/drain...).
        energy: Reserved; STONNE's energy model was future work at
            publication time, so this is always ``None`` for now.
        area: Reserved, same as ``energy``.
    """

    layer_name: str
    controller: str
    cycles: int
    psums: int
    macs: int
    iterations: int
    multipliers_used: int
    array_size: int
    traffic: TrafficBreakdown = field(default_factory=TrafficBreakdown)
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    energy: Optional[float] = None
    area: Optional[float] = None

    @property
    def utilization(self) -> float:
        """Achieved fraction of the array's peak MAC throughput."""
        if self.cycles <= 0 or self.array_size <= 0:
            return 0.0
        return self.macs / (self.cycles * self.array_size)

    @property
    def macs_per_cycle(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.macs / self.cycles

    def speedup_over(self, baseline: "SimulationStats") -> float:
        """How many times fewer cycles than ``baseline`` this run took."""
        if self.cycles <= 0:
            return float("inf")
        return baseline.cycles / self.cycles

    def clone(self, layer_name: Optional[str] = None) -> "SimulationStats":
        """An independent copy (nested records included), optionally renamed.

        The engine cache copies on every get and put, so this copies
        ``__dict__`` directly instead of going through ``__init__`` (as
        :func:`dataclasses.replace` does, at about three times the
        cost).  Fields added later, subclass fields included, are still
        copied without this method needing to know about them; only the
        two mutable members get fresh objects.
        """
        copy = object.__new__(self.__class__)
        state = copy.__dict__
        state.update(self.__dict__)
        traffic = object.__new__(self.traffic.__class__)
        traffic.__dict__.update(self.traffic.__dict__)
        state["traffic"] = traffic
        state["phase_cycles"] = dict(self.phase_cycles)
        if layer_name is not None:
            state["layer_name"] = layer_name
        return copy

    def repeated(self, count: int, layer_name: Optional[str] = None) -> "SimulationStats":
        """Stats for ``count`` back-to-back runs of this exact simulation.

        This is how batch-N workloads are modelled: STONNE executes one
        batch element at a time, and the cycle models are deterministic,
        so N sequential simulations are N identical copies.  Additive
        quantities (cycles, psums, MACs, iterations, traffic, per-phase
        cycles, energy) sum; occupancy quantities (multipliers used,
        array size) take the maximum — which for identical runs is the
        single-run value.
        """
        if count < 1:
            raise ValueError(f"repeat count must be >= 1, got {count}")
        name = self.layer_name if layer_name is None else layer_name
        if count == 1:
            return self.clone(layer_name=name)
        return replace(
            self,
            layer_name=name,
            cycles=self.cycles * count,
            psums=self.psums * count,
            macs=self.macs * count,
            iterations=self.iterations * count,
            traffic=TrafficBreakdown(
                weights_distributed=self.traffic.weights_distributed * count,
                inputs_distributed=self.traffic.inputs_distributed * count,
                psums_reduced=self.traffic.psums_reduced * count,
                outputs_written=self.traffic.outputs_written * count,
            ),
            phase_cycles={k: v * count for k, v in self.phase_cycles.items()},
            energy=None if self.energy is None else self.energy * count,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer_name": self.layer_name,
            "controller": self.controller,
            "cycles": self.cycles,
            "psums": self.psums,
            "macs": self.macs,
            "iterations": self.iterations,
            "multipliers_used": self.multipliers_used,
            "array_size": self.array_size,
            "utilization": self.utilization,
            "traffic": {
                "weights_distributed": self.traffic.weights_distributed,
                "inputs_distributed": self.traffic.inputs_distributed,
                "psums_reduced": self.traffic.psums_reduced,
                "outputs_written": self.traffic.outputs_written,
            },
            "phase_cycles": dict(self.phase_cycles),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationStats":
        """Rebuild a record from :meth:`to_dict` output (persistence).

        Derived fields (``utilization``) and unknown keys are ignored, so
        records written by older/newer versions still load.
        """
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        traffic = payload.get("traffic")
        if isinstance(traffic, dict):
            payload["traffic"] = TrafficBreakdown(**traffic)
        return cls(**payload)

    def summary(self) -> str:
        return (
            f"{self.layer_name} on {self.controller}: {self.cycles:,} cycles, "
            f"{self.psums:,} psums, {self.macs:,} MACs, "
            f"utilization {self.utilization:.1%}"
        )


def combine_stats(name: str, parts: list) -> SimulationStats:
    """Aggregate per-layer stats into a whole-model record.

    Cycles, psums, MACs, iterations and traffic add; the array size and
    controller are taken from the first part (they must all match).
    """
    if not parts:
        raise ValueError("combine_stats needs at least one SimulationStats")
    first = parts[0]
    traffic = TrafficBreakdown()
    phase: Dict[str, int] = {}
    cycles = psums = macs = iterations = 0
    used = 0
    for part in parts:
        if part.controller != first.controller:
            raise ValueError(
                f"cannot combine stats across controllers "
                f"({part.controller} != {first.controller})"
            )
        cycles += part.cycles
        psums += part.psums
        macs += part.macs
        iterations += part.iterations
        used = max(used, part.multipliers_used)
        traffic = traffic.merged_with(part.traffic)
        for key, value in part.phase_cycles.items():
            phase[key] = phase.get(key, 0) + value
    return SimulationStats(
        layer_name=name,
        controller=first.controller,
        cycles=cycles,
        psums=psums,
        macs=macs,
        iterations=iterations,
        multipliers_used=used,
        array_size=first.array_size,
        traffic=traffic,
        phase_cycles=phase,
    )
