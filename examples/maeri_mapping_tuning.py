"""Mapping optimization on MAERI: default vs AutoTVM vs mRNA (§VII/VIII).

For one conv and one FC layer of AlexNet this example produces a mapping
three ways — Bifrost's default (all-ones), the AutoTVM module (GBT tuner
on the psum proxy with early stopping), and the mRNA analytical mapper —
then simulates each and prints the cycle comparison of Figure 12.

Run:  python examples/maeri_mapping_tuning.py
"""

from repro.mrna import MrnaMapper
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner import MaeriConvTask, MaeriFcTask, XGBTuner
from repro.zoo import zoo_layers

config = maeri_config()  # MAERI, 128 multipliers
controller = MaeriController(config)
mapper = MrnaMapper(config)

alexnet = {l.name: l for l in zoo_layers("alexnet")}
for layer in [alexnet["conv3"], alexnet["fc1"]]:
    is_conv = isinstance(layer, ConvLayer)
    print(f"== {layer.describe()}")

    # --- AutoTVM module: knob space + GBT tuner + psum objective -------
    if is_conv:
        task = MaeriConvTask(layer, config, objective="psums")
    else:
        task = MaeriFcTask(layer, config, objective="psums")
    tuner = XGBTuner(task, seed=0, warmup=32)
    tuning = tuner.tune(n_trials=400, early_stopping=120)
    tuned = task.best_mapping(tuning.best_config)
    print(
        f"   AutoTVM explored {tuning.num_trials} configs"
        f"{' (early stop)' if tuning.stopped_early else ''}; "
        f"picked {tuned.as_tuple()}"
    )

    # --- mRNA: analytical, no simulation needed ------------------------
    mrna = mapper.map_conv(layer) if is_conv else mapper.map_fc(layer)
    print(f"   mRNA picked {mrna.as_tuple()} analytically")

    # --- simulate all three mappings ------------------------------------
    basic = ConvMapping.basic() if is_conv else FcMapping.basic()
    run = controller.run_conv if is_conv else controller.run_fc
    for label, mapping in [("default", basic), ("AutoTVM", tuned), ("mRNA", mrna)]:
        stats = run(layer, mapping)
        print(
            f"   {label:<8} {stats.cycles:>14,} cycles   "
            f"utilization {stats.utilization:6.1%}   psums {stats.psums:,}"
        )
    base_cycles = run(layer, basic).cycles
    print(
        f"   speedup over default: AutoTVM "
        f"{base_cycles / run(layer, tuned).cycles:.1f}x, "
        f"mRNA {base_cycles / run(layer, mrna).cycles:.1f}x"
    )
    print()
