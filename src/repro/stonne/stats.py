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

Immutability
------------
Both records are frozen, slotted dataclasses: every cache tier, plan and
report shares one object per result instead of copying it.  Changing a
record means building a new one (:meth:`SimulationStats.renamed`,
:func:`dataclasses.replace`).  ``phase_cycles`` stays a plain dict so
records pickle across worker processes; nothing writes to it.

A frozen ``__init__`` stores each field through ``object.__setattr__``,
about four times the cost of a plain one, and the batch kernels build one
record per mapping.  :func:`build_stats` and :func:`build_traffic` take
the constructors' arguments and return the same records at a plain
``__init__``'s cost; the kernels, :meth:`SimulationStats.renamed`,
unpickling and :meth:`SimulationStats.from_dict` build through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from operator import attrgetter
from typing import Dict, Optional, Tuple


@lru_cache(maxsize=None)
def field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass's field names, in order, computed once per class.

    ``dataclasses.fields`` builds a fresh tuple of Field objects on every
    call; every SQLite cache read and report rebuild decodes each record
    through :meth:`SimulationStats.from_dict`, and tuner batches key
    thousands of layers.
    """
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True, slots=True)
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

    def __reduce__(self):
        # Pickle (process and fleet workers return records this way)
        # rebuilds through the builder instead of the frozen __init__.
        return _rebuild(self)


@dataclass(frozen=True, slots=True)
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

    def renamed(self, layer_name: str) -> "SimulationStats":
        """This record attributed to ``layer_name``: ``self`` when the name
        already matches, otherwise a copy sharing every other member.

        The engine renames every cache hit, so a plain record is rebuilt
        through :func:`build_stats` (:func:`dataclasses.replace` goes
        through the frozen ``__init__``, at about four times the cost);
        a subclass, whose fields the builder does not know, through
        :func:`dataclasses.replace`.
        """
        if layer_name == self.layer_name:
            return self
        if type(self) is not SimulationStats:
            return replace(self, layer_name=layer_name)
        return build_stats(layer_name, *_STATS_TAIL(self))

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
            return self.renamed(name)
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
        payload = {k: data[k] for k in field_names(cls) if k in data}
        traffic = payload.get("traffic")
        if isinstance(traffic, dict):
            payload["traffic"] = build_traffic(**traffic)
        return (build_stats if cls is SimulationStats else cls)(**payload)

    def __reduce__(self):
        return _rebuild(self)

    def summary(self) -> str:
        return (
            f"{self.layer_name} on {self.controller}: {self.cycles:,} cycles, "
            f"{self.psums:,} psums, {self.macs:,} MACs, "
            f"utilization {self.utilization:.1%}"
        )


# ----------------------------------------------------------------------
# builders: the records at a plain __init__'s cost
# ----------------------------------------------------------------------
# Each builder is a mutable twin with its record's slots.  Its __init__
# stores every field straight into its slot, then reassigns the new
# instance's __class__ to the record, which CPython allows between
# classes with the same slots; calling it therefore returns a frozen
# record.  Its parameters mirror the record's fields (tests check that).
_DEFAULT = object()


class build_traffic:
    """``TrafficBreakdown(...)``, built without the frozen ``__init__``."""

    __slots__ = TrafficBreakdown.__slots__

    def __init__(self, weights_distributed=0, inputs_distributed=0,
                 psums_reduced=0, outputs_written=0):
        self.weights_distributed = weights_distributed
        self.inputs_distributed = inputs_distributed
        self.psums_reduced = psums_reduced
        self.outputs_written = outputs_written
        self.__class__ = TrafficBreakdown


class build_stats:
    """``SimulationStats(...)``, built without the frozen ``__init__``."""

    __slots__ = SimulationStats.__slots__

    def __init__(self, layer_name, controller, cycles, psums, macs,
                 iterations, multipliers_used, array_size,
                 traffic=_DEFAULT, phase_cycles=_DEFAULT,
                 energy=None, area=None):
        self.layer_name = layer_name
        self.controller = controller
        self.cycles = cycles
        self.psums = psums
        self.macs = macs
        self.iterations = iterations
        self.multipliers_used = multipliers_used
        self.array_size = array_size
        self.traffic = build_traffic() if traffic is _DEFAULT else traffic
        self.phase_cycles = {} if phase_cycles is _DEFAULT else phase_cycles
        self.energy = energy
        self.area = area
        self.__class__ = SimulationStats


#: Every field after ``layer_name`` (the first), in constructor order.
_STATS_TAIL = attrgetter(*field_names(SimulationStats)[1:])
_BUILDERS = {TrafficBreakdown: build_traffic, SimulationStats: build_stats}


def _rebuild(record) -> tuple:
    """``__reduce__`` for both records: their builder (or, for a
    subclass, its own constructor) and every field value in order."""
    cls = type(record)
    values = tuple(getattr(record, name) for name in field_names(cls))
    return _BUILDERS.get(cls, cls), values


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
