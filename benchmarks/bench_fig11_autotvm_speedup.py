"""Figure 11: speedup of AutoTVM-tuned mappings over Bifrost's default.

The paper tunes every AlexNet layer on MAERI-128 with the XGBoost tuner,
psums as the objective, and early stopping; the tuned mappings are then
*simulated* and compared against the default (all-ones) mapping.

Paper shapes: conv layers average ~51x speedup (max 77x); FC layers ~11x.

Each row also prints the tuner's optimality gap: the tuned mapping's
psums over the psum optimum an exhaustive grid search finds in the same
space.  An FC space fits the 400-trial budget, so its tune is exhaustive
and the gap is exactly 1.0.
"""

from conftest import emit

from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask, XGBTuner
from repro.zoo import zoo_layers

CONFIG = maeri_config()


def psums_task(layer):
    if isinstance(layer, ConvLayer):
        return MaeriConvTask(layer, CONFIG, objective="psums")
    return MaeriFcTask(layer, CONFIG, objective="psums")


def psum_optimum(layer):
    """The exhaustive grid-search psum minimum of the layer's space."""
    task = psums_task(layer)
    return GridSearchTuner(task).tune(n_trials=task.space.raw_size).best_cost


def tune_layer(layer):
    """AutoTVM module: GBT tuner on psums with early stopping (§VIII-B).

    Returns the tuned mapping and the optimality gap (tuned psums over
    the exhaustive psum optimum)."""
    task = psums_task(layer)
    tuner = XGBTuner(
        task, seed=0, warmup=32, pool_size=256,
        model_kwargs={"n_estimators": 20},
    )
    tuner.batch_size = 32
    result = tuner.tune(n_trials=400, early_stopping=120)
    gap = result.best_cost / psum_optimum(layer)
    return task.best_mapping(result.best_config), gap


def _run():
    controller = MaeriController(CONFIG)
    rows = []
    layers = zoo_layers("alexnet")
    for layer in [l for l in layers if isinstance(l, ConvLayer)]:
        tuned, gap = tune_layer(layer)
        basic_cycles = controller.run_conv(layer, ConvMapping.basic()).cycles
        tuned_cycles = controller.run_conv(layer, tuned).cycles
        rows.append(("conv", layer.name, basic_cycles, tuned_cycles, gap, tuned))
    for layer in [l for l in layers if isinstance(l, FcLayer)]:
        tuned, gap = tune_layer(layer)
        basic_cycles = controller.run_fc(layer, FcMapping.basic()).cycles
        tuned_cycles = controller.run_fc(layer, tuned).cycles
        rows.append(("fc", layer.name, basic_cycles, tuned_cycles, gap, tuned))
    return rows


def test_fig11_autotvm_speedup(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        f"{'layer':<8}{'default':>16}{'tuned':>14}{'speedup':>9}"
        f"{'opt gap':>9}  mapping"
    ]
    for _, name, basic, tuned, gap, mapping in rows:
        lines.append(
            f"{name:<8}{basic:>16,}{tuned:>14,}{basic / tuned:>8.1f}x"
            f"{gap:>8.2f}x  {mapping.as_tuple()}"
        )
    conv = [(b, t) for kind, _, b, t, _, _ in rows if kind == "conv"]
    fc = [(b, t) for kind, _, b, t, _, _ in rows if kind == "fc"]
    conv_mean = sum(b / t for b, t in conv) / len(conv)
    conv_max = max(b / t for b, t in conv)
    fc_mean = sum(b / t for b, t in fc) / len(fc)
    lines.append(f"mean conv speedup: {conv_mean:.1f}x, max {conv_max:.1f}x "
                 "(paper: 51x mean, 77x max)")
    lines.append(f"mean fc speedup:   {fc_mean:.1f}x (paper: 11x)")
    emit(results_dir, "fig11_autotvm_speedup", "\n".join(lines))

    assert 25 <= conv_mean <= 90
    assert 7 <= fc_mean <= 16
    assert conv_mean > fc_mean  # the figure's qualitative ordering
    # FC spaces fit the trial budget: the tune is exhaustive.
    assert [gap for kind, _, _, _, gap, _ in rows if kind == "fc"] == [1.0] * 3
