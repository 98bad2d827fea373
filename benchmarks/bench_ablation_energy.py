"""Extension bench: energy as a tuning objective (the paper's §IX).

The paper leaves energy-targeted tuning as future work; the energy-model
extension makes it runnable.  This bench compares, for AlexNet conv3 and
fc1 on MAERI-128, the mappings that minimize cycles vs the mappings that
minimize energy, and reports the cycle/energy cost of each choice — the
performance-vs-efficiency trade-off the paper's §VIII preamble motivates.
"""

from conftest import emit

from repro.stonne.config import maeri_config
from repro.stonne.energy import estimate_energy
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask
from repro.zoo import zoo_layers

CONFIG = maeri_config()


def _optimum(layer, objective):
    if isinstance(layer, ConvLayer):
        task = MaeriConvTask(layer, CONFIG, objective=objective,
                             max_options_per_tile=4)
    else:
        task = MaeriFcTask(layer, CONFIG, objective=objective)
    result = GridSearchTuner(task).tune(n_trials=10 ** 9)
    return task.best_mapping(result.best_config)


def _run():
    controller = MaeriController(CONFIG)
    rows = []
    alexnet = {l.name: l for l in zoo_layers("alexnet")}
    for layer in [alexnet["conv3"], alexnet["fc1"]]:
        is_conv = isinstance(layer, ConvLayer)
        run = controller.run_conv if is_conv else controller.run_fc
        for objective in ("cycles", "energy"):
            mapping = _optimum(layer, objective)
            stats = run(layer, mapping)
            rows.append(
                (
                    layer.name,
                    objective,
                    mapping.as_tuple(),
                    stats.cycles,
                    estimate_energy(stats).total,
                )
            )
    return rows


def test_ablation_energy_objective(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        f"{'layer':<7}{'objective':<10}{'cycles':>14}{'energy (MAC-units)':>20}  mapping"
    ]
    for name, objective, mapping, cycles, energy in rows:
        lines.append(
            f"{name:<7}{objective:<10}{cycles:>14,}{energy:>20,.0f}  {mapping}"
        )
    emit(results_dir, "ablation_energy", "\n".join(lines))

    by_key = {(r[0], r[1]): r for r in rows}
    for layer_name in {r[0] for r in rows}:
        cyc = by_key[(layer_name, "cycles")]
        ene = by_key[(layer_name, "energy")]
        # Each objective is at least as good as the other on its own metric.
        assert cyc[3] <= ene[3], f"{layer_name}: cycle optimum not fastest"
        assert ene[4] <= cyc[4], f"{layer_name}: energy optimum not cheapest"
