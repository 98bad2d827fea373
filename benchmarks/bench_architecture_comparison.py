"""Extension bench: MAERI (mRNA-mapped) vs SIGMA vs TPU on AlexNet.

Not a paper figure, but the comparison Bifrost exists to make easy: the
same network across all three simulated architectures at equal PE count
(128), reporting per-layer and total cycles.
"""

from conftest import emit

from repro.mrna import MrnaMapper
from repro.stonne.config import maeri_config, sigma_config, tpu_config
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.sigma import SigmaController
from repro.stonne.tpu import TpuController
from repro.zoo import zoo_layers


def _run():
    maeri_cfg = maeri_config()
    maeri = MaeriController(maeri_cfg)
    mapper = MrnaMapper(maeri_cfg)
    sigma = SigmaController(sigma_config())
    tpu = TpuController(tpu_config(ms_rows=16, ms_cols=8))  # 128 PEs

    rows = []
    for layer in zoo_layers("alexnet"):
        if isinstance(layer, ConvLayer):
            maeri_cycles = maeri.run_conv(layer, mapper.map_conv(layer)).cycles
            sigma_cycles = sigma.run_conv(layer).cycles
            tpu_cycles = tpu.run_conv(layer).cycles
        else:
            maeri_cycles = maeri.run_fc(layer, mapper.map_fc(layer)).cycles
            sigma_cycles = sigma.run_fc(layer).cycles
            tpu_cycles = tpu.run_fc(layer).cycles
        rows.append((layer.name, maeri_cycles, sigma_cycles, tpu_cycles))
    return rows


def test_architecture_comparison(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'layer':<8}{'MAERI+mRNA':>14}{'SIGMA':>14}{'TPU 16x8':>14}"]
    totals = [0, 0, 0]
    for name, m, s, t in rows:
        lines.append(f"{name:<8}{m:>14,}{s:>14,}{t:>14,}")
        totals[0] += m
        totals[1] += s
        totals[2] += t
    lines.append(f"{'total':<8}{totals[0]:>14,}{totals[1]:>14,}{totals[2]:>14,}")
    emit(results_dir, "architecture_comparison", "\n".join(lines))

    # Every architecture processes every layer with nonzero cost, and at
    # equal PE count no architecture is pathologically slow (>100x).
    for name, m, s, t in rows:
        assert min(m, s, t) > 0
        assert max(m, s, t) / min(m, s, t) < 100
