"""Figure 12 + Table VI: default vs AutoTVM vs mRNA mappings on MAERI.

Figure 12 compares simulated cycles for AlexNet under the three mapping
sources; Table VI lists the FC mappings each source chose.

Paper shapes: mRNA needs ~20% fewer cycles than AutoTVM on the conv
layers and ~67% fewer on the FC layers; AutoTVM's FC mappings always
maximize T_S and minimize T_K/T_N (layer-invariant), while mRNA's are
balanced and vary per layer.
"""

from conftest import emit

from repro.bifrost.reporting import LayerComparison, comparison_table
from repro.mrna import MrnaMapper
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask
from repro.zoo import zoo_layers

CONFIG = maeri_config()


def autotvm_mapping(layer):
    """Psum-optimal mapping over the knob space (exhaustive, so the bench
    is deterministic; the XGB tuner converges to the same optimum)."""
    if isinstance(layer, ConvLayer):
        task = MaeriConvTask(layer, CONFIG, objective="psums",
                             max_options_per_tile=5)
    else:
        task = MaeriFcTask(layer, CONFIG, objective="psums")
    result = GridSearchTuner(task).tune(n_trials=10 ** 9)
    return task.best_mapping(result.best_config)


def _run():
    controller = MaeriController(CONFIG)
    mapper = MrnaMapper(CONFIG)
    comparisons = []
    table6 = []
    for layer in zoo_layers("alexnet"):
        is_conv = isinstance(layer, ConvLayer)
        tuned = autotvm_mapping(layer)
        mrna = mapper.map_conv(layer) if is_conv else mapper.map_fc(layer)
        basic = ConvMapping.basic() if is_conv else FcMapping.basic()
        run = controller.run_conv if is_conv else controller.run_fc
        comparisons.append(
            LayerComparison(
                layer.name,
                {
                    "default": run(layer, basic).cycles,
                    "AutoTVM": run(layer, tuned).cycles,
                    "mRNA": run(layer, mrna).cycles,
                },
            )
        )
        if not is_conv:
            table6.append((layer.name, basic.as_tuple(), tuned.as_tuple(),
                           mrna.as_tuple()))
    return comparisons, table6


def test_fig12_and_table6(benchmark, results_dir):
    comparisons, table6 = benchmark.pedantic(_run, rounds=1, iterations=1)

    text = comparison_table(comparisons, ["default", "AutoTVM", "mRNA"])
    conv_rows = comparisons[:5]
    fc_rows = comparisons[5:]
    conv_saving = sum(
        1 - r.cycles["mRNA"] / r.cycles["AutoTVM"] for r in conv_rows
    ) / len(conv_rows)
    fc_saving = sum(
        1 - r.cycles["mRNA"] / r.cycles["AutoTVM"] for r in fc_rows
    ) / len(fc_rows)
    text += (
        f"\nmRNA vs AutoTVM: conv {conv_saving:.1%} fewer cycles "
        "(paper: 20%), "
        f"fc {fc_saving:.1%} fewer (paper: 67%)"
    )
    emit(results_dir, "fig12_mapping_comparison", text)

    lines = [f"{'mapping':<9}{'FC1':>16}{'FC2':>16}{'FC3':>16}"]
    for label, idx in (("Basic", 1), ("AutoTVM", 2), ("mRNA", 3)):
        cells = "".join(f"{str(row[idx]):>16}" for row in table6)
        lines.append(f"{label:<9}{cells}")
    emit(results_dir, "table6_fc_mappings", "\n".join(lines))

    # Figure 12 shapes.
    for row in comparisons:
        assert row.cycles["mRNA"] <= row.cycles["AutoTVM"] <= row.cycles["default"]
    # Paper: conv 20%, fc 67%.  Our mRNA stand-in optimizes the true cycle
    # model, so its margin over psum-guided tuning is wider than the
    # paper's; the qualitative shape —
    # mRNA wins everywhere, and by far more on FC than conv — must hold.
    assert 0.05 <= conv_saving <= 0.60, f"conv saving {conv_saving:.2%}"
    assert 0.50 <= fc_saving <= 0.95, f"fc saving {fc_saving:.2%}"
    assert fc_saving > conv_saving

    # Table VI shapes: AutoTVM layer-invariant and skewed, mRNA varying.
    autotvm_tuples = {row[2] for row in table6}
    assert len(autotvm_tuples) == 1
    t_s, t_k, t_n = next(iter(autotvm_tuples))
    assert t_k == 1 and t_n == 1 and t_s == CONFIG.ms_size
    mrna_tuples = [row[3] for row in table6]
    assert all(t[1] > 1 for t in mrna_tuples), "mRNA balances T_K"
    assert len(set(mrna_tuples)) >= 2, "mRNA adapts per layer"
