"""Mapping configurator: where each layer's dataflow mapping comes from.

Bifrost supports four sources (§IV): a *manual* per-layer mapping, an
auto-generated *default* (all tiles 1 — "execution using this mapping
will be inefficient, but it makes it possible to quickly evaluate an
architecture"), a *tuned* mapping from the AutoTVM module, or a mapping
from a specialized tool (*mRNA*).  :class:`MappingConfigurator` resolves
a layer to its mapping with per-layer overrides winning over the global
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Union

from repro.engine import EvaluationEngine
from repro.engine.evaluation import _layer_key
from repro.errors import MappingError, TuningError
from repro.mrna.mapper import MrnaMapper
from repro.session.config import TuningConfig
from repro.stonne.config import SimulatorConfig
from repro.stonne.controller import controller_class
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner.layer import tune_layer

Layer = Union[ConvLayer, FcLayer]
Mapping = Union[ConvMapping, FcMapping]


class MappingStrategy(str, Enum):
    """How mappings are produced when no manual override exists."""

    DEFAULT = "default"
    TUNED = "tuned"
    MRNA = "mrna"


@dataclass
class MappingConfigurator:
    """Resolves layers to mappings; caches tuned/mRNA results.

    Args:
        config: The MAERI hardware configuration mappings must fit.
        strategy: Fallback source when a layer has no manual mapping.
        tuning: Tuner, objective, budget, early stopping and seed for
            the TUNED strategy (its ``mapping`` field is not consulted).
    """

    config: SimulatorConfig
    strategy: MappingStrategy = MappingStrategy.DEFAULT
    tuning: TuningConfig = field(default_factory=TuningConfig)
    manual: Dict[str, Mapping] = field(default_factory=dict)
    engine: Optional[EvaluationEngine] = field(default=None, repr=False)
    _cache: Dict[tuple, Mapping] = field(default_factory=dict)
    _mapper: Optional[MrnaMapper] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.strategy = MappingStrategy(self.strategy)

    # ------------------------------------------------------------------
    def set_manual(self, layer_name: str, mapping: Mapping) -> None:
        """Pin a specific mapping for a layer (wins over the strategy)."""
        self.manual[layer_name] = mapping

    def mapping_for(self, layer: Layer) -> Mapping:
        """The mapping this layer should run with."""
        if layer.name in self.manual:
            mapping = self.manual[layer.name]
            self._check_kind(layer, mapping)
            return mapping
        # Cache by layer *structure*, not name: two models in one
        # session (or one sweep) may both have an "fc1" with different
        # shapes, and identically shaped layers under different names
        # should share one tuned mapping.
        key = (type(layer).__name__, _layer_key(layer))
        if key in self._cache:
            return self._cache[key]
        mapping = self._generate(layer)
        self._cache[key] = mapping
        return mapping

    # ------------------------------------------------------------------
    @staticmethod
    def _check_kind(layer: Layer, mapping: Mapping) -> None:
        if isinstance(layer, ConvLayer) and not isinstance(mapping, ConvMapping):
            raise MappingError(
                f"layer {layer.name!r} is a convolution but the manual "
                f"mapping is {type(mapping).__name__}"
            )
        if isinstance(layer, FcLayer) and not isinstance(mapping, FcMapping):
            raise MappingError(
                f"layer {layer.name!r} is fully connected but the manual "
                f"mapping is {type(mapping).__name__}"
            )

    def _generate(self, layer: Layer) -> Mapping:
        if not controller_class(self.config.controller_type).requires_mapping:
            raise TuningError(
                "mappings are only configurable for MAERI; SIGMA and the TPU "
                "orchestrate their own dataflow"
            )
        if self.strategy is MappingStrategy.DEFAULT:
            return (
                ConvMapping.basic()
                if isinstance(layer, ConvLayer)
                else FcMapping.basic()
            )
        if self.strategy is MappingStrategy.MRNA:
            if self._mapper is None:
                self._mapper = MrnaMapper(self.config)
            if isinstance(layer, ConvLayer):
                return self._mapper.map_conv(layer)
            return self._mapper.map_fc(layer)
        return self._tune(layer)

    def _tune(self, layer: Layer) -> Mapping:
        """Run the AutoTVM module (``tuning.tuner``, early stopping) on a
        layer.

        Every layer's task shares this configurator's evaluation engine,
        so tuning a layer whose shape already appeared in the network is
        served from the stats cache instead of re-simulated.
        """
        if self.engine is None:
            self.engine = EvaluationEngine(self.config)
        mapping, _ = tune_layer(layer, self.config, self.tuning, self.engine)
        return mapping
