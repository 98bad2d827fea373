"""Auto-tuning module (AutoTVM stand-in).

Declares tuning-knob config spaces over MAERI mappings and hardware
parameters, measures configs through the cycle-level simulator (cost =
``cycles`` or ``psums``, never wall latency — §VII-B), and searches with
grid / random / genetic / gradient-boosted-tree tuners.
"""

from repro.tuner.gbt import GradientBoostedTrees, RegressionTree
from repro.tuner.layer import tune_layer
from repro.tuner.measure import (
    INVALID_COST,
    CallableTask,
    MaeriConvTask,
    MaeriFcTask,
    MeasureResult,
    TuningTask,
)
from repro.tuner.records import Trial, TuningRecords
from repro.tuner.space import (
    ConfigSpace,
    config_to_conv_mapping,
    config_to_fc_mapping,
    conv_mapping_space,
    fc_mapping_space,
    hardware_space,
)
from repro.tuner.tuners import (
    GATuner,
    GridSearchTuner,
    RandomTuner,
    Tuner,
    TuningResult,
    XGBTuner,
)

__all__ = [
    "CallableTask",
    "ConfigSpace",
    "GATuner",
    "GradientBoostedTrees",
    "GridSearchTuner",
    "INVALID_COST",
    "MaeriConvTask",
    "MaeriFcTask",
    "MeasureResult",
    "RandomTuner",
    "RegressionTree",
    "Trial",
    "Tuner",
    "TuningRecords",
    "TuningResult",
    "TuningTask",
    "XGBTuner",
    "config_to_conv_mapping",
    "config_to_fc_mapping",
    "conv_mapping_space",
    "fc_mapping_space",
    "hardware_space",
    "tune_layer",
]
