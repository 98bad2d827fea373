"""Extension bench: MAGMA (sparse-dense GEMM) vs SIGMA across sparsity.

The paper's §IX extension made measurable: both sparse architectures run
the AlexNet FC stack across pruning levels.  SIGMA's position-tiled
controller keeps psum traffic flat while MAGMA's row packing shrinks it,
so MAGMA overtakes SIGMA as sparsity rises — the crossover this bench
reports.
"""

from conftest import emit

from repro.stonne.config import magma_config, sigma_config
from repro.stonne.layer import FcLayer
from repro.stonne.magma import MagmaController
from repro.stonne.sigma import SigmaController
from repro.zoo import zoo_layers

SPARSITIES = [0, 25, 50, 75, 90]


def _run():
    layers = [l for l in zoo_layers("alexnet") if isinstance(l, FcLayer)]
    rows = []
    for sparsity in SPARSITIES:
        sigma = SigmaController(sigma_config(sparsity_ratio=sparsity))
        magma = MagmaController(magma_config(sparsity_ratio=sparsity))
        sigma_total = sum(sigma.run_fc(l).cycles for l in layers)
        magma_total = sum(magma.run_fc(l).cycles for l in layers)
        rows.append((sparsity, sigma_total, magma_total))
    return rows


def test_extension_magma_vs_sigma(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'sparsity':>9}{'SIGMA cycles':>16}{'MAGMA cycles':>16}{'ratio':>8}"]
    for sparsity, sigma_c, magma_c in rows:
        lines.append(
            f"{sparsity:>8}%{sigma_c:>16,}{magma_c:>16,}"
            f"{sigma_c / magma_c:>8.2f}"
        )
    emit(results_dir, "extension_magma", "\n".join(lines))

    # Both monotone decreasing with sparsity.
    for series in (1, 2):
        values = [row[series] for row in rows]
        assert values == sorted(values, reverse=True)
    # MAGMA's advantage grows with sparsity (its psums shrink, SIGMA's don't).
    ratios = [sigma_c / magma_c for _, sigma_c, magma_c in rows]
    assert ratios[-1] > ratios[0]
