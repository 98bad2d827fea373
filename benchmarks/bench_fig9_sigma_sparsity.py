"""Figure 9: AlexNet on SIGMA at 0% vs 50% sparsity.

Paper: with sparsity at 50%, the convolutional layers need on average 44%
fewer cycles (Fig. 9a) and the fully connected layers 54% fewer (Fig. 9b).
"""

from conftest import emit

from repro.stonne.config import sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.sigma import SigmaController
from repro.zoo import zoo_layers


def _sweep():
    dense = SigmaController(sigma_config(sparsity_ratio=0))
    sparse = SigmaController(sigma_config(sparsity_ratio=50))
    rows = []
    layers = zoo_layers("alexnet")
    for layer in [l for l in layers if isinstance(l, ConvLayer)]:
        rows.append(("conv", layer.name,
                     dense.run_conv(layer).cycles, sparse.run_conv(layer).cycles))
    for layer in [l for l in layers if isinstance(l, FcLayer)]:
        rows.append(("fc", layer.name,
                     dense.run_fc(layer).cycles, sparse.run_fc(layer).cycles))
    return rows


def _format(rows):
    lines = [f"{'layer':<8}{'cycles @0%':>16}{'cycles @50%':>16}{'saving':>10}"]
    for _, name, c0, c50 in rows:
        lines.append(f"{name:<8}{c0:>16,}{c50:>16,}{1 - c50 / c0:>10.1%}")
    conv = [(c0, c50) for kind, _, c0, c50 in rows if kind == "conv"]
    fc = [(c0, c50) for kind, _, c0, c50 in rows if kind == "fc"]
    conv_mean = sum(1 - c50 / c0 for c0, c50 in conv) / len(conv)
    fc_mean = sum(1 - c50 / c0 for c0, c50 in fc) / len(fc)
    lines.append(f"mean conv saving: {conv_mean:.1%}   (paper: 44%)")
    lines.append(f"mean fc saving:   {fc_mean:.1%}   (paper: 54%)")
    return "\n".join(lines), conv_mean, fc_mean


def test_fig9_sigma_sparsity(benchmark, results_dir):
    rows = benchmark(_sweep)
    text, conv_mean, fc_mean = _format(rows)
    emit(results_dir, "fig9_sigma_sparsity", text)

    assert 0.35 <= conv_mean <= 0.50
    assert 0.48 <= fc_mean <= 0.62
    assert fc_mean > conv_mean  # the figure's qualitative asymmetry
