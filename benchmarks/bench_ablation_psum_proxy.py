"""Ablation: how well does the psum proxy track cycles? (§VII-B)

The paper argues psums are "merely loosely correlated with performance":
tuning on them is thousands of times cheaper but does not find the cycle
optimum.  This bench samples the conv3 and fc1 mapping spaces, computes
the Spearman rank correlation between psums and simulated cycles, and
compares the cycle cost of the psum-optimal against the cycle-optimal
mapping.
"""

import numpy as np
from conftest import emit
from scipy import stats as scipy_stats

from repro.stonne.config import maeri_config
from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask
from repro.zoo import zoo_layers


def _collect(task_cls, layer, **kwargs):
    config = maeri_config()
    psums_task = task_cls(layer, config, objective="psums", **kwargs)
    cycles_task = task_cls(layer, config, objective="cycles", **kwargs)
    configs = [
        psums_task.space.config_at(index)
        for index in psums_task.space.valid_indices()
    ]
    psums = np.array(psums_task.evaluate_batch(configs))
    cycles = np.array(cycles_task.evaluate_batch(configs))
    rho = scipy_stats.spearmanr(psums, cycles).statistic
    psum_opt_cycles = cycles[int(np.argmin(psums))]
    cycle_opt = cycles.min()
    return rho, psum_opt_cycles, cycle_opt, len(configs)


def _run():
    alexnet = {l.name: l for l in zoo_layers("alexnet")}
    conv = _collect(MaeriConvTask, alexnet["conv3"],
                    max_options_per_tile=4)
    fc = _collect(MaeriFcTask, alexnet["fc1"])
    return {"conv3": conv, "fc1": fc}


def test_ablation_psum_proxy(benchmark, results_dir):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        f"{'layer':<7}{'spearman':>10}{'psum-opt cycles':>18}"
        f"{'cycle-opt cycles':>18}{'penalty':>9}{'configs':>9}"
    ]
    for name, (rho, psum_opt, cycle_opt, n) in data.items():
        lines.append(
            f"{name:<7}{rho:>10.3f}{int(psum_opt):>18,}"
            f"{int(cycle_opt):>18,}{psum_opt / cycle_opt:>8.1f}x{n:>9}"
        )
    lines.append(
        "psums track cycles well on conv (high rank correlation, small "
        "penalty) but mislead on FC — the paper's 'works reasonably well "
        "for convolutional layers but not for fully connected layers'."
    )
    emit(results_dir, "ablation_psum_proxy", "\n".join(lines))

    conv_rho = data["conv3"][0]
    fc_rho = data["fc1"][0]
    assert conv_rho > 0.5, "conv psums should be a usable proxy"
    assert fc_rho < conv_rho, "the FC proxy must be markedly worse"
    for name, (rho, psum_opt, cycle_opt, _) in data.items():
        assert psum_opt >= cycle_opt
    # FC is where the proxy misleads most (Table VI's story).
    fc_penalty = data["fc1"][1] / data["fc1"][2]
    conv_penalty = data["conv3"][1] / data["conv3"][2]
    assert fc_penalty > conv_penalty
