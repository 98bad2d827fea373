"""Config spaces and tuning knobs (AutoTVM's ``define_knob`` analog).

A :class:`ConfigSpace` is an ordered set of named knobs, each with a
finite value list, plus optional validity constraints.  Configs are
addressed by a mixed-radix integer index, which is what the tuners
enumerate, sample and learn over.

:func:`conv_mapping_space` and :func:`fc_mapping_space` build the spaces
Bifrost exposes for MAERI: one knob per tile of Tables IV/V, constrained
by the multiplier-array capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import TuningError
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping, FcMapping

Config = Dict[str, object]
Constraint = Callable[[Config], bool]


@dataclass
class ConfigSpace:
    """An ordered product of named knobs with validity constraints."""

    knobs: Dict[str, List[object]] = field(default_factory=dict)
    constraints: List[Constraint] = field(default_factory=list)

    def define_knob(self, name: str, values: Sequence[object]) -> None:
        """Declare a tunable parameter (AutoTVM's ``cfg.define_knob``)."""
        values = list(values)
        if not values:
            raise TuningError(f"knob {name!r} needs at least one value")
        if name in self.knobs:
            raise TuningError(f"knob {name!r} already defined")
        self.knobs[name] = values

    def add_constraint(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)

    # ------------------------------------------------------------------
    @property
    def raw_size(self) -> int:
        """Product of knob cardinalities, ignoring constraints."""
        size = 1
        for values in self.knobs.values():
            size *= len(values)
        return size

    def config_at(self, index: int) -> Config:
        """Decode a mixed-radix index into a config dict."""
        if not 0 <= index < self.raw_size:
            raise TuningError(
                f"config index {index} out of range [0, {self.raw_size})"
            )
        config: Config = {}
        for name, values in self.knobs.items():
            index, digit = divmod(index, len(values))
            config[name] = values[digit]
        return config

    def index_of(self, config: Config) -> int:
        """Encode a config dict back into its index."""
        index = 0
        multiplier = 1
        for name, values in self.knobs.items():
            try:
                digit = values.index(config[name])
            except (KeyError, ValueError):
                raise TuningError(
                    f"config {config!r} is not addressable in this space "
                    f"(knob {name!r})"
                ) from None
            index += digit * multiplier
            multiplier *= len(values)
        return index

    def is_valid(self, config: Config) -> bool:
        return all(constraint(config) for constraint in self.constraints)

    def valid_indices(self, start: int = 0) -> Iterator[int]:
        """Yield every index from ``start`` on whose config satisfies the
        constraints, in index order: the one enumeration grid search and
        exhaustive tuning both walk."""
        for index in range(start, self.raw_size):
            if self.is_valid(self.config_at(index)):
                yield index

    def valid_size(self) -> int:
        """Number of valid configs (O(raw_size); use on bounded spaces)."""
        return sum(1 for _ in self.valid_indices())


def _tile_options(bound: int, max_options: int = 0) -> List[int]:
    """Candidate tile sizes for a dimension of extent ``bound``.

    All divisors of ``bound`` (perfect tilings) plus powers of two up to
    the bound; optionally subsampled to ``max_options`` values (the
    paper's "each tile has 10 options").
    """
    options = {d for d in range(1, bound + 1) if bound % d == 0}
    power = 1
    while power <= bound:
        options.add(power)
        power *= 2
    values = sorted(options)
    if max_options and len(values) > max_options:
        step = (len(values) - 1) / (max_options - 1)
        picked = sorted({values[round(i * step)] for i in range(max_options)})
        if bound not in picked:
            picked[-1] = bound
        values = picked
    return values


def conv_mapping_space(
    layer: ConvLayer, ms_size: int, max_options_per_tile: int = 10
) -> ConfigSpace:
    """The MAERI conv mapping space for ``layer`` (Table IV knobs)."""
    space = ConfigSpace()
    space.define_knob("T_R", _tile_options(layer.R, max_options_per_tile))
    space.define_knob("T_S", _tile_options(layer.S, max_options_per_tile))
    space.define_knob("T_C", _tile_options(layer.C // layer.G, max_options_per_tile))
    space.define_knob("T_K", _tile_options(layer.K // layer.G, max_options_per_tile))
    space.define_knob("T_X", _tile_options(layer.P, max_options_per_tile))
    space.define_knob("T_Y", _tile_options(layer.Q, max_options_per_tile))

    def fits(config: Config) -> bool:
        used = (
            config["T_R"] * config["T_S"] * config["T_C"]
            * config["T_K"] * config["T_X"] * config["T_Y"]
        )
        return used <= ms_size

    space.add_constraint(fits)
    return space


def fc_mapping_space(
    layer: FcLayer, ms_size: int, max_options_per_tile: int = 0
) -> ConfigSpace:
    """The MAERI FC mapping space for ``layer`` (Table V knobs)."""
    space = ConfigSpace()
    space.define_knob(
        "T_S", _tile_options(min(layer.out_features, ms_size), max_options_per_tile)
    )
    space.define_knob(
        "T_K", _tile_options(min(layer.in_features, ms_size), max_options_per_tile)
    )
    space.define_knob("T_N", [1])
    space.add_constraint(
        lambda config: config["T_S"] * config["T_K"] * config["T_N"] <= ms_size
    )
    return space


def config_to_conv_mapping(config: Config) -> ConvMapping:
    """Materialize a conv config dict into a :class:`ConvMapping`."""
    return ConvMapping(
        T_R=int(config["T_R"]), T_S=int(config["T_S"]), T_C=int(config["T_C"]),
        T_K=int(config["T_K"]), T_X=int(config["T_X"]), T_Y=int(config["T_Y"]),
    )


def config_to_fc_mapping(config: Config) -> FcMapping:
    """Materialize an FC config dict into a :class:`FcMapping`."""
    return FcMapping(
        T_S=int(config["T_S"]), T_K=int(config["T_K"]), T_N=int(config["T_N"])
    )


def hardware_space(
    ms_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
    dn_bws: Sequence[int] = (8, 16, 32, 64),
    rn_bws: Sequence[int] = (8, 16, 32, 64),
) -> ConfigSpace:
    """A hardware-configuration search space (§VI: tunable hw parameters)."""
    space = ConfigSpace()
    space.define_knob("ms_size", list(ms_sizes))
    space.define_knob("dn_bw", list(dn_bws))
    space.define_knob("rn_bw", list(rn_bws))
    return space
