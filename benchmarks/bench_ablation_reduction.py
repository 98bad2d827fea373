"""Ablation: reduction network fabrics (ASNETWORK vs FENETWORK).

MAERI can be simulated with either the ART (``ASNETWORK``) or the
STIFT-style forwarding fabric (``FENETWORK``, paper §VI item 7).  Steady-
state throughput is port-bound and identical; the fabrics differ in
pipeline-fill latency, which only matters for small layers.  This bench
quantifies that on LeNet (small) and AlexNet (large) layers.
"""

from conftest import emit

from repro.mrna import MrnaMapper
from repro.stonne.config import ReduceNetworkType, maeri_config
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.zoo import zoo_layers


def _run():
    rows = []
    lenet_convs = [l for l in zoo_layers("lenet") if isinstance(l, ConvLayer)]
    alexnet = {l.name: l for l in zoo_layers("alexnet")}
    for layer in [*lenet_convs, alexnet["conv1"], alexnet["conv2"]]:
        base = maeri_config()
        mapping = MrnaMapper(base).map_conv(layer)
        cycles = {}
        for kind in (ReduceNetworkType.ASNETWORK, ReduceNetworkType.FENETWORK):
            config = maeri_config(reduce_network_type=kind)
            cycles[kind.value] = MaeriController(config).run_conv(
                layer, mapping
            ).cycles
        rows.append((layer.name, layer.macs, cycles))
    return rows


def test_ablation_reduction_network(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'layer':<8}{'macs':>14}{'ASNETWORK':>14}{'FENETWORK':>14}{'delta':>8}"]
    for name, macs, cycles in rows:
        a, f = cycles["ASNETWORK"], cycles["FENETWORK"]
        lines.append(f"{name:<8}{macs:>14,}{a:>14,}{f:>14,}{f - a:>8,}")
    emit(results_dir, "ablation_reduction", "\n".join(lines))

    for name, macs, cycles in rows:
        a, f = cycles["ASNETWORK"], cycles["FENETWORK"]
        # Fill-latency differences only: tiny absolute delta either way.
        assert abs(f - a) <= 16, f"{name}: fabrics differ beyond fill latency"
        relative = abs(f - a) / a
        assert relative < 0.05, f"{name}: steady state must dominate"
