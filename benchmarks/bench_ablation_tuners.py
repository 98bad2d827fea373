"""Ablation: tuner comparison (grid vs random vs GA vs GBT surrogate).

Bifrost "leverages the tuners available in TVM such as grid search,
GATuner and XGBoost" (§VII); this bench compares their sample efficiency
on the AlexNet conv3 mapping space with cycles as the objective and a
fixed trial budget, reporting best-found cycles and the gap to the
exhaustive optimum.
"""

from conftest import emit

from repro.stonne.config import maeri_config
from repro.tuner import (
    GATuner,
    GridSearchTuner,
    MaeriConvTask,
    RandomTuner,
    XGBTuner,
)
from repro.zoo import zoo_layers

BUDGET = 160


def _make_task():
    conv3 = {l.name: l for l in zoo_layers("alexnet")}["conv3"]
    return MaeriConvTask(
        conv3, maeri_config(), objective="cycles",
        max_options_per_tile=5,
    )


def _run():
    optimum = GridSearchTuner(_make_task()).tune(n_trials=10 ** 9).best_cost

    results = {}
    for name, make in [
        ("random", lambda t: RandomTuner(t, seed=7)),
        ("ga", lambda t: GATuner(t, seed=7)),
        ("xgb", lambda t: XGBTuner(t, seed=7, warmup=32, pool_size=256)),
    ]:
        best = make(_make_task()).tune(n_trials=BUDGET).best_cost
        results[name] = best
    return optimum, results


def test_ablation_tuners(benchmark, results_dir):
    optimum, results = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"exhaustive optimum: {int(optimum):,} cycles",
             f"{'tuner':<8}{'best cycles':>14}{'vs optimum':>12}  (budget {BUDGET})"]
    for name, best in results.items():
        lines.append(f"{name:<8}{int(best):>14,}{best / optimum:>11.2f}x")
    emit(results_dir, "ablation_tuners", "\n".join(lines))

    for name, best in results.items():
        assert best >= optimum, f"{name} beat the exhaustive optimum?!"
        assert best <= 40 * optimum, f"{name} found nothing useful"
    # The surrogate tuner should be competitive with random search.
    assert results["xgb"] <= results["random"] * 2.0
