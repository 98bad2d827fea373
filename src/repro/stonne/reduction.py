"""Reduction network models.

Two spatial fabrics from STONNE (Table III):

* :class:`ARTNetwork` (``ASNETWORK``) — MAERI's Augmented Reduction Tree: a
  fat tree of adder switches that can be partitioned into independent
  sub-trees, one per virtual neuron.  Spatial reduction of a VN of size
  ``v`` is pipelined with depth ``ceil(log2(v))``.
* :class:`FENetwork` (``FENETWORK``) — the STIFT-style forwarding fabric
  SIGMA uses; functionally equivalent for our purposes but with a
  forwarding-adder latency of 1 regardless of VN size (spatio-temporal
  reduction), at the cost of one extra psum forward per level.

``TEMPORALRN`` (no spatial adders) is a valid config value only for the
TPU, whose systolic mesh accumulates in place and builds no reduction
network object at all.

Both fabrics expose the same interface so the engine is fabric-agnostic:
``cycles_to_collect`` (port bandwidth) and ``reduction_latency`` (pipeline
fill).  ``reduction_latency`` takes a Python int or an int64 numpy array
of VN sizes, so the MAERI cycle model evaluates it either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.stonne.layer import ceil_div


@dataclass(frozen=True)
class ReductionNetworkBase:
    """Shared behaviour: a bandwidth-limited collection port.

    Args:
        bandwidth: Output elements accepted per cycle (``rn_bw``).
        rmw_occupancy: Port slots a *partial* output occupies (the
            accumulation-buffer read-modify-write round trip).
    """

    bandwidth: int
    rmw_occupancy: int = 3

    def __post_init__(self) -> None:
        if self.bandwidth < 1:
            raise SimulationError(f"rn bandwidth must be >= 1, got {self.bandwidth}")
        if self.rmw_occupancy < 1:
            raise SimulationError(
                f"rmw occupancy must be >= 1, got {self.rmw_occupancy}"
            )

    def cycles_to_collect(self, outputs: int, partial: bool) -> int:
        """Steady-state cycles to drain ``outputs`` results.

        Partial outputs (``partial=True``) cost ``rmw_occupancy`` slots each
        because they must be read from, added to and written back into the
        accumulation buffer; final outputs stream straight to the buffer.
        """
        if outputs < 0:
            raise SimulationError(f"cannot collect a negative output count: {outputs}")
        if outputs == 0:
            return 0
        occupancy = self.rmw_occupancy if partial else 1
        return ceil_div(outputs * occupancy, self.bandwidth)

    def reduction_latency(self, vn_size):
        raise NotImplementedError


def _ceil_log2(vn_size):
    """Exact ``ceil(log2(v))`` of an int or an int64 array, ``v >= 1``.

    ``ceil(log2(v)) == bit_length(v - 1)``.  For arrays the binary
    exponent ``frexp`` returns is that bit length, exact for any value a
    float64 holds — unlike a float ``ceil(log2(...))`` round trip.
    """
    if isinstance(vn_size, int):
        if vn_size < 1:
            raise SimulationError(f"vn_size must be >= 1, got {vn_size}")
        return (vn_size - 1).bit_length()
    import numpy as np

    if vn_size.size and int(vn_size.min()) < 1:
        raise SimulationError(f"vn_size must be >= 1, got {int(vn_size.min())}")
    return np.frexp((vn_size - 1).astype(np.float64))[1].astype(np.int64)


@dataclass(frozen=True)
class ARTNetwork(ReductionNetworkBase):
    """MAERI's augmented reduction tree (``ASNETWORK``)."""

    def reduction_latency(self, vn_size):
        """Adder-tree depth for one virtual neuron (pipeline fill)."""
        return _ceil_log2(vn_size)


@dataclass(frozen=True)
class FENetwork(ReductionNetworkBase):
    """STIFT-style forwarding adder network (``FENETWORK``).

    Reduction happens by forwarding psums between neighbouring adders, so
    the latency is linear in the VN size but each hop is a single cheap
    forward; we model latency as ``vn_size - 1`` capped by the tree depth
    the fabric falls back to.
    """

    def reduction_latency(self, vn_size):
        depth = 2 * _ceil_log2(vn_size)
        if isinstance(vn_size, int):
            return min(vn_size - 1, depth)
        import numpy as np

        return np.minimum(vn_size - 1, depth)


def make_reduction_network(kind: str, bandwidth: int, rmw_occupancy: int = 3):
    """Factory keyed by the Table III option string."""
    networks = {"ASNETWORK": ARTNetwork, "FENETWORK": FENetwork}
    try:
        cls = networks[kind]
    except KeyError:
        raise SimulationError(
            f"unknown reduction network {kind!r}; expected one of {sorted(networks)}"
        ) from None
    return cls(bandwidth=bandwidth, rmw_occupancy=rmw_occupancy)
