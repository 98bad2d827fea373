"""Tune one MAERI layer's mapping: the AutoTVM module's single entry point.

``repro tune``, ``Session.tune`` and the ``mapping="tuned"`` strategy all
call :func:`tune_layer`, so they build the same task and the same tuner
from one :class:`~repro.session.config.TuningConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.engine import EvaluationEngine
from repro.errors import TuningError
from repro.stonne.config import SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner.measure import MaeriConvTask, MaeriFcTask
from repro.tuner.tuners import (
    GATuner,
    GridSearchTuner,
    RandomTuner,
    TuningResult,
    XGBTuner,
)

if TYPE_CHECKING:
    from repro.session.config import TuningConfig

#: ``TuningConfig.tuner`` name -> tuner class.
TUNERS = {
    "grid": GridSearchTuner,
    "random": RandomTuner,
    "ga": GATuner,
    "xgb": XGBTuner,
}


def tune_layer(
    layer: Union[ConvLayer, FcLayer],
    config: SimulatorConfig,
    tuning: "TuningConfig",
    engine: Optional[EvaluationEngine] = None,
) -> Tuple[Union[ConvMapping, FcMapping], TuningResult]:
    """Tune ``layer`` on the MAERI ``config`` under ``tuning``.

    Returns ``(mapping, result)``: the best mapping and the
    :class:`TuningResult` it came from.  Raises :class:`TuningError` when
    no valid mapping was measured.
    """
    task_class = MaeriConvTask if isinstance(layer, ConvLayer) else MaeriFcTask
    task = task_class(layer, config, objective=tuning.objective, engine=engine)
    result = TUNERS[tuning.tuner](task, seed=tuning.seed).tune(
        n_trials=tuning.trials, early_stopping=tuning.early_stopping
    )
    if result.best_config is None:
        raise TuningError(
            f"tuning found no valid mapping for layer {layer.name!r}"
        )
    return task.best_mapping(result.best_config), result
