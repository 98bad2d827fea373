"""The mRNA mapper: analytical mapping generation for MAERI.

For each layer the mapper enumerates *structured* candidates — tiles drawn
from the divisors of each dimension (perfect tilings waste no multiplier
slots on ragged edges, a rule mRNA derives from MAERI's VN packing) plus
the dimension bound itself — prunes by array capacity, scores every
survivor with the closed-form :class:`MaeriAnalyticalModel`, and returns
the argmin.  No simulation runs, so mapping a whole network takes
milliseconds; the resulting mappings vary per layer (Table VI), unlike
psum-guided tuning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import MappingError, TuningError
from repro.mrna.model import MaeriAnalyticalModel
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import conv_profile, fc_profile
from repro.stonne.mapping import (
    ConvMapping,
    FcMapping,
    conv_batch_invalid,
    fc_batch_invalid,
)
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS


def _divisor_options(bound: int, cap: int) -> List[int]:
    """Divisors of ``bound`` up to ``cap``, plus ``min(bound, cap)``."""
    options = {d for d in range(1, min(bound, cap) + 1) if bound % d == 0}
    options.add(min(bound, cap))
    return sorted(options)


def _divisors(bound: int) -> List[int]:
    """All divisors of ``bound``, ascending."""
    return [d for d in range(1, bound + 1) if bound % d == 0]


def _tile_grid(levels: Sequence[int], ms: int) -> List[Tuple[int, ...]]:
    """Every structured tile tuple over ``levels``, in exact nested-loop order.

    Level-wise prefix expansion of the mapper's nested divisor loops:
    each level's options are :func:`_divisor_options`\\ (bound, ms //
    prefix_product) — divisors ascending, with the capacity cap appended
    when it is not itself a divisor — so the flattened order (and hence
    argmin tie-breaking) is identical to iterating the loops.  Tuples
    only; mappings are constructed for the single winner.
    """
    prefixes: List[Tuple[int, ...]] = [()]
    products: List[int] = [1]
    for bound in levels:
        divisors = _divisors(bound)
        next_prefixes: List[Tuple[int, ...]] = []
        next_products: List[int] = []
        for prefix, product in zip(prefixes, products):
            limit = min(bound, ms // product)
            count = bisect_right(divisors, limit)
            options = divisors[:count]
            if not options or options[-1] != limit:
                options = options + [limit]
            for value in options:
                next_prefixes.append(prefix + (value,))
                next_products.append(product * value)
        prefixes, products = next_prefixes, next_products
    return prefixes


@dataclass
class MappingChoice:
    """A scored candidate mapping."""

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
        self.model = MaeriAnalyticalModel(config, params)

    # ------------------------------------------------------------------
    def conv_candidates(self, layer: ConvLayer) -> List[ConvMapping]:
        """Structured conv candidates pruned by array capacity."""
        ms = self.config.ms_size
        candidates: List[ConvMapping] = []
        for t_r in _divisor_options(layer.R, ms):
            for t_s in _divisor_options(layer.S, ms // t_r):
                for t_c in _divisor_options(layer.C // layer.G, ms // (t_r * t_s)):
                    vn = t_r * t_s * t_c
                    for t_k in _divisor_options(layer.K // layer.G, ms // vn):
                        for t_x in _divisor_options(layer.P, ms // (vn * t_k)):
                            cap_y = ms // (vn * t_k * t_x)
                            for t_y in _divisor_options(layer.Q, cap_y):
                                candidates.append(
                                    ConvMapping(
                                        T_R=t_r, T_S=t_s, T_C=t_c,
                                        T_K=t_k, T_X=t_x, T_Y=t_y,
                                    )
                                )
        return candidates

    def fc_candidates(self, layer: FcLayer) -> List[FcMapping]:
        """Structured FC candidates pruned by array capacity."""
        ms = self.config.ms_size
        candidates: List[FcMapping] = []
        for t_s in _divisor_options(layer.out_features, ms):
            for t_k in _divisor_options(layer.in_features, ms // t_s):
                candidates.append(FcMapping(T_S=t_s, T_K=t_k, T_N=1))
        return candidates

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

        One numpy pass: the divisor grid is enumerated as plain tuples
        (:func:`_tile_grid`), scored as int64 columns by the analytical
        model in one call, and only the argmin row becomes a
        :class:`ConvMapping`.  Same candidate order as the scalar scan,
        and argmin keeps the first minimum; layers beyond the int64
        bound run the scalar scan on Python ints.
        """
        if not self.model.fits_int64(layer):
            return self._score_conv_scalar(layer)
        return self._score_conv_batch(layer)

    def score_fc(self, layer: FcLayer) -> MappingChoice:
        if not self.model.fits_int64(layer):
            return self._score_fc_scalar(layer)
        return self._score_fc_batch(layer)

    # ------------------------------------------------------------------
    def _score_conv_batch(self, layer: ConvLayer) -> MappingChoice:
        import numpy as np

        ms = self.config.ms_size
        grid = _tile_grid(
            (
                layer.R, layer.S, layer.C // layer.G,
                layer.K // layer.G, layer.P, layer.Q,
            ),
            ms,
        )
        # Grid order (T_R, T_S, T_C, T_K, T_X, T_Y) -> as_tuple order
        # with the fixed T_G = T_N = 1 columns inserted.
        packed = np.array(grid, dtype=np.int64).reshape(len(grid), 6)
        tiles = np.ones((len(grid), 8), dtype=np.int64)
        tiles[:, (0, 1, 2, 3)] = packed[:, (0, 1, 2, 3)]
        tiles[:, (6, 7)] = packed[:, (4, 5)]
        valid = np.flatnonzero(~conv_batch_invalid(layer, tiles, ms))
        if not valid.size:
            raise TuningError(f"no valid conv mapping for layer {layer.name!r}")
        cycles = self.model.profile_cycles(
            conv_profile(layer, tuple(tiles[valid].T))
        )
        pos = int(np.argmin(cycles))
        row = tiles[valid[pos]].tolist()
        mapping = ConvMapping(
            T_R=row[0], T_S=row[1], T_C=row[2], T_K=row[3],
            T_G=row[4], T_N=row[5], T_X=row[6], T_Y=row[7],
        )
        return MappingChoice(mapping=mapping, estimated_cycles=int(cycles[pos]))

    def _score_fc_batch(self, layer: FcLayer) -> MappingChoice:
        import numpy as np

        ms = self.config.ms_size
        grid = _tile_grid((layer.out_features, layer.in_features), ms)
        packed = np.array(grid, dtype=np.int64).reshape(len(grid), 2)
        tiles = np.ones((len(grid), 3), dtype=np.int64)
        tiles[:, (0, 1)] = packed
        valid = np.flatnonzero(~fc_batch_invalid(layer, tiles, ms))
        if not valid.size:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        cycles = self.model.profile_cycles(
            fc_profile(layer, tuple(tiles[valid].T))
        )
        pos = int(np.argmin(cycles))
        row = tiles[valid[pos]].tolist()
        mapping = FcMapping(T_S=row[0], T_K=row[1], T_N=row[2])
        return MappingChoice(mapping=mapping, estimated_cycles=int(cycles[pos]))

    # ------------------------------------------------------------------
    def _score_conv_scalar(self, layer: ConvLayer) -> MappingChoice:
        """The candidate-object scan on Python ints (layers beyond int64)."""
        best: Optional[MappingChoice] = None
        for mapping in self.conv_candidates(layer):
            try:
                mapping.validate_for(layer, self.config.ms_size)
            except MappingError:
                continue
            cycles = self.model.conv_cycles(layer, mapping)
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
            cycles = self.model.fc_cycles(layer, mapping)
            if best is None or cycles < best.estimated_cycles:
                best = MappingChoice(mapping=mapping, estimated_cycles=cycles)
        if best is None:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        return best
