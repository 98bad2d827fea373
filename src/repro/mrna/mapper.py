"""The mRNA mapper: analytical mapping generation for MAERI.

For each layer the mapper enumerates *structured* candidates — tiles drawn
from the divisors of each dimension (perfect tilings waste no multiplier
slots on ragged edges, a rule mRNA derives from MAERI's VN packing) plus
the dimension bound itself — prunes by array capacity, prices every
survivor with the MAERI controller's own steady term
(:meth:`~repro.stonne.maeri.MaeriController.steady_cycles`), and returns
the argmin.  No simulation runs, so mapping a whole network takes
milliseconds; the resulting mappings vary per layer (Table VI), unlike
psum-guided tuning.

The objective is steady-state cycles: ``partial_iters * ii_partial +
final_iters * ii_final``, with each interval the max of the distribution,
reduction, compute and RAW-stall terms.  Like mRNA's closed form it
leaves out the pipeline fill the simulator adds
(``reduction_latency(vn_size)`` differs between candidates), so the pick
has the fewest steady cycles among the candidates but not always the
fewest total cycles.  Over every alexnet, vgg_small, lenet and mlp layer
at ``ms_size`` 8-512 and ``dn_bw = rn_bw`` 4-128 with the accumulation
buffer, the pick costs at most 3.1% more total cycles than the best
candidate.

Capacity enumerates and bandwidth prices.  The candidate set and the
profile columns the cost reads depend only on the layer's shape and
``ms_size``; only the pricing reads ``dn_bw``/``rn_bw`` and the RAW
stall (doubled without an accumulation buffer).  So
:func:`_conv_candidates` / :func:`_fc_candidates` enumerate once per
key — the layer with its name blanked, and ``ms_size`` — into a
module-level LRU memo of :data:`MEMO_ENTRIES` entries, and every call
only prices the memoised columns at its own bandwidths and takes the
argmin.  An entry holds
read-only arrays in the narrowest dtype of each column, one row per
distinct cost tuple.  Measured on the 21 distinct layers of alexnet,
vgg_small and transformer at the 9 power-of-two ``ms_size`` values from
8 to 2048, the largest entry's arrays take 22,110 bytes (vgg_small conv4
at 2048) and all 189 entries 570,008 bytes, so each memo stays under
5.7 MB for layers of that size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MappingError, TuningError
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import (
    MaeriController,
    TileProfile,
    conv_profile,
    fc_profile,
)
from repro.stonne.mapping import (
    ConvMapping,
    FcMapping,
    conv_batch_invalid,
    fc_batch_invalid,
)
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS

#: Bound of each candidate memo (conv and FC): (nameless layer, ms_size) keys.
MEMO_ENTRIES = 256


@functools.lru_cache(maxsize=1024)
def _divisors(bound: int):
    """All divisors of ``bound``, ascending, as a read-only int64 array."""
    import numpy as np

    small = [d for d in range(1, math.isqrt(bound) + 1) if bound % d == 0]
    large = [bound // d for d in reversed(small) if d * d != bound]
    divisors = np.array(small + large, dtype=np.int64)
    divisors.setflags(write=False)
    return divisors


def _tile_grid(levels: Sequence[int], ms: int):
    """Every structured tile row over ``levels``: an ``(n, len(levels))`` int64 array.

    Row order is the nested-loop order the argmin tie-break depends on:
    level by level, every prefix row expands to the divisors of that
    level's bound up to ``limit = min(bound, ms // prefix_product)``,
    ascending, followed by ``limit`` itself when it is not a divisor.
    """
    import numpy as np

    grid = np.ones((1, 0), dtype=np.int64)
    products = np.ones(1, dtype=np.int64)
    for bound in levels:
        divisors = _divisors(bound)
        limit = np.minimum(bound, ms // products)
        # One row of options per prefix: every divisor, then the limit;
        # row-major selection keeps prefixes in order, options ascending.
        options = np.empty((len(grid), len(divisors) + 1), dtype=np.int64)
        options[:, :-1] = divisors
        options[:, -1] = limit
        keep = options <= limit[:, None]
        keep[:, -1] = bound % limit != 0
        prefix = np.nonzero(keep)[0]
        values = options[keep]
        grid = np.concatenate((grid[prefix], values[:, None]), axis=1)
        products = products[prefix] * values
    return grid


def _conv_levels(layer: ConvLayer) -> Tuple[int, ...]:
    """The bounds of the tiles the mapper varies: T_R, T_S, T_C, T_K, T_X, T_Y."""
    return (layer.R, layer.S, layer.C // layer.G, layer.K // layer.G, layer.P, layer.Q)


def _fc_levels(layer: FcLayer) -> Tuple[int, int]:
    """The bounds of the tiles the mapper varies: T_S, T_K."""
    return (layer.out_features, layer.in_features)


class _Candidates(NamedTuple):
    """A layer's valid candidates at one ``ms_size``, without bandwidth.

    ``tiles`` holds the varying tiles (grid order, ``T_G = T_N = 1``
    implied); the other fields are the profile columns the steady term
    reads, with ``traffic = unique_weights + unique_inputs``.  One row
    per distinct cost tuple, at its first grid occurrence; every array
    is read-only and narrow.
    """

    tiles: object
    iterations: object
    red_folds: object
    num_vns: object
    traffic: object

    def price(self, controller: MaeriController) -> Tuple[List[int], int]:
        """The first cheapest row's tiles and steady cycles on ``controller``."""
        import numpy as np

        wide = [column.astype(np.int64) for column in self[1:]]
        # The steady term reads only the traffic sum, never vn_size or psums.
        cycles = controller.steady_cycles(
            TileProfile(
                iterations=wide[0], red_folds=wide[1], vn_size=None,
                num_vns=wide[2], unique_weights=wide[3], unique_inputs=0,
                psums=None,
            )
        )
        pos = int(np.argmin(cycles))
        return self.tiles[pos].tolist(), int(cycles[pos])


def _compact(tiles, profile: TileProfile) -> Optional[_Candidates]:
    """Memo form of scored candidates; ``None`` when there are none.

    Rows whose cost columns are equal cost the same at every bandwidth,
    so keeping only each tuple's first occurrence (in grid order) leaves
    argmin's first-minimum choice unchanged.
    """
    import numpy as np

    if not len(tiles):
        return None
    columns = np.stack((
        profile.iterations, profile.red_folds, profile.num_vns,
        profile.unique_weights + profile.unique_inputs,
    ))
    order = np.lexsort(columns[::-1])  # stable: equal tuples stay in grid order
    ordered = columns[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    keep = np.sort(order[first])
    narrow = []
    for array in (tiles[keep], *columns[:, keep]):
        array = array.astype(np.min_scalar_type(array.max()))
        array.setflags(write=False)
        narrow.append(array)
    return _Candidates(*narrow)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _conv_candidates(layer: ConvLayer, ms: int) -> Optional[_Candidates]:
    """The memoised conv candidates of a nameless ``layer`` at ``ms``."""
    import numpy as np

    grid = _tile_grid(_conv_levels(layer), ms)
    tiles = np.ones((len(grid), 8), dtype=np.int64)
    tiles[:, (0, 1, 2, 3, 6, 7)] = grid
    valid = ~conv_batch_invalid(layer, tiles, ms)
    return _compact(grid[valid], conv_profile(layer, tuple(tiles[valid].T)))


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _fc_candidates(layer: FcLayer, ms: int) -> Optional[_Candidates]:
    """The memoised FC candidates of a nameless ``layer`` at ``ms``."""
    import numpy as np

    grid = _tile_grid(_fc_levels(layer), ms)
    tiles = np.ones((len(grid), 3), dtype=np.int64)
    tiles[:, :2] = grid
    valid = ~fc_batch_invalid(layer, tiles, ms)
    return _compact(grid[valid], fc_profile(layer, tuple(tiles[valid].T)))


@dataclass
class MappingChoice:
    """A scored candidate mapping and its steady-state cycles."""

    mapping: object
    estimated_cycles: int


class MrnaMapper:
    """Generates optimized MAERI mappings analytically (mRNA stand-in)."""

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.MAERI_DENSE_WORKLOAD:
            raise TuningError(
                f"mRNA targets MAERI only, got {config.controller_type.value}"
            )
        self.config = config
        self.controller = MaeriController(config, params)

    # ------------------------------------------------------------------
    def conv_candidates(self, layer: ConvLayer) -> List[ConvMapping]:
        """Structured conv candidates pruned by array capacity."""
        grid = _tile_grid(_conv_levels(layer), self.config.ms_size)
        return [
            ConvMapping(T_R=t_r, T_S=t_s, T_C=t_c, T_K=t_k, T_X=t_x, T_Y=t_y)
            for t_r, t_s, t_c, t_k, t_x, t_y in grid.tolist()
        ]

    def fc_candidates(self, layer: FcLayer) -> List[FcMapping]:
        """Structured FC candidates pruned by array capacity."""
        grid = _tile_grid(_fc_levels(layer), self.config.ms_size)
        return [FcMapping(T_S=t_s, T_K=t_k, T_N=1) for t_s, t_k in grid.tolist()]

    # ------------------------------------------------------------------
    def map_conv(self, layer: ConvLayer) -> ConvMapping:
        """The analytically optimal conv mapping for ``layer``."""
        best = self.score_conv(layer)
        return best.mapping  # type: ignore[return-value]

    def map_fc(self, layer: FcLayer) -> FcMapping:
        """The analytically optimal FC mapping for ``layer``."""
        best = self.score_fc(layer)
        return best.mapping  # type: ignore[return-value]

    def score_conv(self, layer: ConvLayer) -> MappingChoice:
        """Best candidate with its estimated cycle count.

        Capacity enumerates, bandwidth prices: the valid tile grid
        (:func:`_tile_grid`, in the scalar scan's order) and its cost
        columns come from the memo keyed by (``layer`` without its name,
        ``ms_size``); this call only prices them at the config's
        ``dn_bw``/``rn_bw`` and keeps the first minimum, so only the
        winner becomes a :class:`ConvMapping`.  Layers beyond the
        controller's int64 bound run the scalar scan on Python ints.
        """
        if not self.controller.fits_int64(layer):
            return self._score_conv_scalar(layer)
        return self._score_conv_batch(layer)

    def score_fc(self, layer: FcLayer) -> MappingChoice:
        if not self.controller.fits_int64(layer):
            return self._score_fc_scalar(layer)
        return self._score_fc_batch(layer)

    # ------------------------------------------------------------------
    def _score_conv_batch(self, layer: ConvLayer) -> MappingChoice:
        candidates = _conv_candidates(replace(layer, name=""), self.config.ms_size)
        if candidates is None:
            raise TuningError(f"no valid conv mapping for layer {layer.name!r}")
        (t_r, t_s, t_c, t_k, t_x, t_y), cycles = candidates.price(self.controller)
        mapping = ConvMapping(T_R=t_r, T_S=t_s, T_C=t_c, T_K=t_k, T_X=t_x, T_Y=t_y)
        return MappingChoice(mapping=mapping, estimated_cycles=cycles)

    def _score_fc_batch(self, layer: FcLayer) -> MappingChoice:
        candidates = _fc_candidates(replace(layer, name=""), self.config.ms_size)
        if candidates is None:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        (t_s, t_k), cycles = candidates.price(self.controller)
        mapping = FcMapping(T_S=t_s, T_K=t_k, T_N=1)
        return MappingChoice(mapping=mapping, estimated_cycles=cycles)

    # ------------------------------------------------------------------
    def _score_conv_scalar(self, layer: ConvLayer) -> MappingChoice:
        """The candidate-object scan on Python ints (layers beyond int64)."""
        best: Optional[MappingChoice] = None
        for mapping in self.conv_candidates(layer):
            try:
                mapping.validate_for(layer, self.config.ms_size)
            except MappingError:
                continue
            cycles = self.controller.steady_cycles(
                conv_profile(layer, mapping.as_tuple())
            )
            if best is None or cycles < best.estimated_cycles:
                best = MappingChoice(mapping=mapping, estimated_cycles=cycles)
        if best is None:
            raise TuningError(f"no valid conv mapping for layer {layer.name!r}")
        return best

    def _score_fc_scalar(self, layer: FcLayer) -> MappingChoice:
        best: Optional[MappingChoice] = None
        for mapping in self.fc_candidates(layer):
            try:
                mapping.validate_for(layer, self.config.ms_size)
            except MappingError:
                continue
            cycles = self.controller.steady_cycles(
                fc_profile(layer, mapping.as_tuple())
            )
            if best is None or cycles < best.estimated_cycles:
                best = MappingChoice(mapping=mapping, estimated_cycles=cycles)
        if best is None:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        return best
