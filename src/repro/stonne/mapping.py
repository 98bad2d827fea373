"""Dataflow mappings (tile configurations) for reconfigurable accelerators.

A *mapping* is a specific instance of a dataflow (§II of the paper):

* :class:`ConvMapping` carries the eight conv tiles of Table IV
  (``T_R, T_S, T_C, T_K, T_G, T_N, T_X, T_Y``);
* :class:`FcMapping` carries the three fully connected tiles of Table V
  (``T_S, T_K, T_N``).

The *virtual neuron* (VN) is the group of multipliers that spatially
reduces one output: its size is ``T_R*T_S*T_C`` for convolutions and
``T_K`` for dense layers.  A mapping is valid for a given accelerator when
``vn_size * num_vns`` fits in the multiplier array and every tile divides
into (i.e. does not exceed) the corresponding layer dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import MappingError
from repro.stonne.layer import ConvLayer, FcLayer, ceil_div


def _check_tile(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MappingError(f"tile {name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ConvMapping:
    """Tile configuration for a convolution on MAERI (Table IV)."""

    T_R: int = 1
    T_S: int = 1
    T_C: int = 1
    T_K: int = 1
    T_G: int = 1
    T_N: int = 1
    T_X: int = 1
    T_Y: int = 1

    def __post_init__(self) -> None:
        for name in ("T_R", "T_S", "T_C", "T_K", "T_G", "T_N", "T_X", "T_Y"):
            _check_tile(name, getattr(self, name))
        if self.T_N != 1:
            raise MappingError(f"STONNE supports only T_N=1, got T_N={self.T_N}")

    @property
    def vn_size(self) -> int:
        """Multipliers per virtual neuron (spatial reduction width)."""
        return self.T_R * self.T_S * self.T_C

    @property
    def num_vns(self) -> int:
        """Virtual neurons mapped simultaneously (output parallelism)."""
        return self.T_K * self.T_G * self.T_N * self.T_X * self.T_Y

    @property
    def multipliers_used(self) -> int:
        return self.vn_size * self.num_vns

    def validate_for(self, layer: ConvLayer, ms_size: int) -> None:
        """Raise :class:`MappingError` unless this mapping fits layer+array."""
        used = self.multipliers_used
        if used > ms_size:
            raise MappingError(
                f"mapping needs {used} multipliers but the array has {ms_size} "
                f"(vn_size={self.vn_size}, num_vns={self.num_vns})"
            )
        bounds = {
            "T_R": layer.R,
            "T_S": layer.S,
            "T_C": layer.C // layer.G,
            "T_K": layer.K // layer.G,
            "T_G": layer.G,
            "T_N": layer.N,
            "T_X": layer.P,
            "T_Y": layer.Q,
        }
        for name, bound in bounds.items():
            value = getattr(self, name)
            if value > bound:
                raise MappingError(
                    f"tile {name}={value} exceeds layer dimension {bound} "
                    f"for layer {layer.name!r}"
                )

    def fold_counts(self, layer: ConvLayer) -> Dict[str, int]:
        """Temporal iteration counts along every tiled dimension."""
        return {
            "R": ceil_div(layer.R, self.T_R),
            "S": ceil_div(layer.S, self.T_S),
            "C": ceil_div(layer.C // layer.G, self.T_C),
            "K": ceil_div(layer.K // layer.G, self.T_K),
            "G": ceil_div(layer.G, self.T_G),
            "N": ceil_div(layer.N, self.T_N),
            "X": ceil_div(layer.P, self.T_X),
            "Y": ceil_div(layer.Q, self.T_Y),
        }

    def iterations(self, layer: ConvLayer) -> int:
        """Total tile iterations needed to cover the layer."""
        total = 1
        for count in self.fold_counts(layer).values():
            total *= count
        return total

    def reduction_folds(self, layer: ConvLayer) -> int:
        """Temporal folds along the *reduction* dimensions (R, S, C).

        Each fold beyond the first means every output is accumulated
        read-modify-write through the accumulation buffer.
        """
        folds = self.fold_counts(layer)
        return folds["R"] * folds["S"] * folds["C"]

    def as_tuple(self) -> Tuple[int, ...]:
        return (
            self.T_R, self.T_S, self.T_C, self.T_K,
            self.T_G, self.T_N, self.T_X, self.T_Y,
        )

    def with_updates(self, **kwargs: int) -> "ConvMapping":
        return replace(self, **kwargs)

    @classmethod
    def basic(cls) -> "ConvMapping":
        """The unoptimized default mapping Bifrost generates (all tiles 1)."""
        return cls()


@dataclass(frozen=True)
class FcMapping:
    """Tile configuration for a dense layer on MAERI (Table V).

    ``T_S`` output neurons and ``T_N`` batches are mapped in parallel
    (``num_vns = T_S * T_N``); ``T_K`` input neurons are reduced spatially
    inside each virtual neuron (``vn_size = T_K``).
    """

    T_S: int = 1
    T_K: int = 1
    T_N: int = 1

    def __post_init__(self) -> None:
        for name in ("T_S", "T_K", "T_N"):
            _check_tile(name, getattr(self, name))

    @property
    def vn_size(self) -> int:
        return self.T_K

    @property
    def num_vns(self) -> int:
        return self.T_S * self.T_N

    @property
    def multipliers_used(self) -> int:
        return self.vn_size * self.num_vns

    def validate_for(self, layer: FcLayer, ms_size: int) -> None:
        used = self.multipliers_used
        if used > ms_size:
            raise MappingError(
                f"mapping needs {used} multipliers but the array has {ms_size} "
                f"(T_S={self.T_S}, T_K={self.T_K}, T_N={self.T_N})"
            )
        if self.T_S > layer.out_features:
            raise MappingError(
                f"T_S={self.T_S} exceeds out_features={layer.out_features} "
                f"for layer {layer.name!r}"
            )
        if self.T_K > layer.in_features:
            raise MappingError(
                f"T_K={self.T_K} exceeds in_features={layer.in_features} "
                f"for layer {layer.name!r}"
            )
        if self.T_N > layer.batch:
            raise MappingError(
                f"T_N={self.T_N} exceeds batch={layer.batch} "
                f"for layer {layer.name!r}"
            )

    def fold_counts(self, layer: FcLayer) -> Dict[str, int]:
        return {
            "S": ceil_div(layer.out_features, self.T_S),
            "K": ceil_div(layer.in_features, self.T_K),
            "N": ceil_div(layer.batch, self.T_N),
        }

    def iterations(self, layer: FcLayer) -> int:
        folds = self.fold_counts(layer)
        return folds["S"] * folds["K"] * folds["N"]

    def reduction_folds(self, layer: FcLayer) -> int:
        """Temporal folds along the reduction (input-neuron) dimension."""
        return ceil_div(layer.in_features, self.T_K)

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.T_S, self.T_K, self.T_N)

    def with_updates(self, **kwargs: int) -> "FcMapping":
        return replace(self, **kwargs)

    @classmethod
    def basic(cls) -> "FcMapping":
        """The unoptimized default mapping (1, 1, 1)."""
        return cls()


# ----------------------------------------------------------------------
# batch-kernel helpers (vectorized packing and validation)
# ----------------------------------------------------------------------
def conv_tile_bounds(layer: ConvLayer) -> Tuple[int, ...]:
    """The layer dimension each conv tile folds, in ``as_tuple`` order."""
    return (
        layer.R, layer.S, layer.C // layer.G, layer.K // layer.G,
        layer.G, layer.N, layer.P, layer.Q,
    )


def fc_tile_bounds(layer: FcLayer) -> Tuple[int, int, int]:
    """The layer dimension each FC tile folds, in ``as_tuple`` order."""
    return (layer.out_features, layer.in_features, layer.batch)


def _pack(mappings, width: int):
    import numpy as np

    rows = [m.as_tuple() for m in mappings]
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(rows), np.int64, len(rows) * width
        )
    except OverflowError:
        # A tile beyond int64 exceeds any array and any layer the int64
        # kernels accept, so clamping it keeps its row flagged invalid.
        flat = np.array(
            [min(tile, 2 ** 62) for row in rows for tile in row], np.int64
        )
    return flat.reshape(len(rows), width)


def pack_conv_mappings(mappings: Sequence[ConvMapping]):
    """Pack conv mappings into an ``(N, 8)`` int64 array (as_tuple order)."""
    return _pack(mappings, 8)


def pack_fc_mappings(mappings: Sequence[FcMapping]):
    """Pack FC mappings into an ``(N, 3)`` int64 array (as_tuple order)."""
    return _pack(mappings, 3)


def conv_batch_invalid(layer: ConvLayer, tiles, ms_size: int):
    """Vectorized :meth:`ConvMapping.validate_for`: True where invalid.

    ``tiles`` is an ``(N, 8)`` array from :func:`pack_conv_mappings`.
    The mask marks exactly the rows whose scalar validation would raise
    (capacity first, then per-tile layer bounds); callers report each
    flagged row through the scalar path so messages stay identical.
    """
    import numpy as np

    # Capacity in float64: products of eight int64 columns can wrap, and
    # the comparison is exact anyway (any product above 2**53 dwarfs any
    # real ms_size; below that float64 is exact).
    used = tiles.astype(np.float64).prod(axis=1)
    bad = used > ms_size
    for column, bound in zip(tiles.T, conv_tile_bounds(layer)):
        bad = bad | (column > bound)
    return bad


def fc_batch_invalid(layer: FcLayer, tiles, ms_size: int):
    """Vectorized :meth:`FcMapping.validate_for`: True where invalid.

    ``tiles`` is an ``(N, 3)`` array from :func:`pack_fc_mappings`.
    """
    import numpy as np

    t_s, t_k, t_n = tiles.T
    used = tiles.astype(np.float64).prod(axis=1)
    return (
        (used > ms_size)
        | (t_s > layer.out_features)
        | (t_k > layer.in_features)
        | (t_n > layer.batch)
    )


def enumerate_conv_mappings(
    layer: ConvLayer, ms_size: int, max_tile_options: int = 0
) -> Iterator[ConvMapping]:
    """Yield every valid conv mapping for ``layer`` on an array of ``ms_size``.

    The space enumerates each tile from 1 up to its layer bound, pruned by
    the multiplier capacity as soon as partial products exceed it.  When
    ``max_tile_options`` is positive, each dimension is subsampled to at
    most that many values (the paper's "each tile has 10 options"), which
    keeps exhaustive searches tractable.
    """

    def options(bound: int) -> list:
        values = list(range(1, bound + 1))
        if max_tile_options and len(values) > max_tile_options:
            step = len(values) / max_tile_options
            picked = sorted({values[int(i * step)] for i in range(max_tile_options)})
            if bound not in picked:
                picked.append(bound)
            values = picked
        return values

    r_opts = options(layer.R)
    s_opts = options(layer.S)
    c_opts = options(layer.C // layer.G)
    k_opts = options(layer.K // layer.G)
    x_opts = options(layer.P)
    y_opts = options(layer.Q)

    for t_r in r_opts:
        if t_r > ms_size:
            break
        for t_s in s_opts:
            if t_r * t_s > ms_size:
                break
            for t_c in c_opts:
                vn = t_r * t_s * t_c
                if vn > ms_size:
                    break
                for t_k in k_opts:
                    if vn * t_k > ms_size:
                        break
                    for t_x in x_opts:
                        if vn * t_k * t_x > ms_size:
                            break
                        for t_y in y_opts:
                            if vn * t_k * t_x * t_y > ms_size:
                                break
                            yield ConvMapping(
                                T_R=t_r, T_S=t_s, T_C=t_c, T_K=t_k,
                                T_X=t_x, T_Y=t_y,
                            )


def enumerate_fc_mappings(layer: FcLayer, ms_size: int) -> Iterator[FcMapping]:
    """Yield every valid FC mapping for ``layer`` on an array of ``ms_size``."""
    s_bound = min(layer.out_features, ms_size)
    for t_s in range(1, s_bound + 1):
        k_bound = min(layer.in_features, ms_size // t_s)
        for t_k in range(1, k_bound + 1):
            yield FcMapping(T_S=t_s, T_K=t_k, T_N=1)
