"""AlexNet on SIGMA across sparsity levels (the Figure 9 experiment).

SIGMA's memory controller orchestrates the dataflow automatically from
the weight-sparsity bitmap, so the only knob is the pruning level.  This
example sweeps sparsity from 0% to 90% and reports the per-layer and mean
cycle savings — the trade-off a model-compression researcher would
explore before committing to a pruning ratio.

Run:  python examples/alexnet_sigma_sparsity.py
"""

from repro.stonne.config import sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.sigma import SigmaController
from repro.zoo import zoo_layers

SPARSITIES = [0, 25, 50, 75, 90]

layers = zoo_layers("alexnet")
convs = [l for l in layers if isinstance(l, ConvLayer)]
fcs = [l for l in layers if isinstance(l, FcLayer)]
results = {}
for sparsity in SPARSITIES:
    controller = SigmaController(sigma_config(sparsity_ratio=sparsity))
    cycles = {}
    for layer in layers:
        run = (
            controller.run_conv
            if layer.name.startswith("conv")
            else controller.run_fc
        )
        cycles[layer.name] = run(layer).cycles
    results[sparsity] = cycles

header = f"{'layer':<8}" + "".join(f"{s}%{'':>6}".rjust(14) for s in SPARSITIES)
print(header)
for layer in layers:
    row = f"{layer.name:<8}"
    for sparsity in SPARSITIES:
        row += f"{results[sparsity][layer.name]:>14,}"
    print(row)

print()
base = results[0]
for sparsity in SPARSITIES[1:]:
    conv_saving = sum(
        1 - results[sparsity][l.name] / base[l.name]
        for l in convs
    ) / 5
    fc_saving = sum(
        1 - results[sparsity][l.name] / base[l.name]
        for l in fcs
    ) / 3
    print(
        f"sparsity {sparsity:>2}%: conv layers save {conv_saving:5.1%}, "
        f"fc layers save {fc_saving:5.1%}"
    )
print()
print("paper reference point (50% sparsity): conv -44%, fc -54%")
