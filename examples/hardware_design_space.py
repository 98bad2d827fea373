"""Hardware design-space exploration with the AutoTVM module (§VI).

Bifrost exposes *hardware* parameters (array size, network bandwidths) as
tuning knobs, not just mappings.  This example searches the hardware
space for the smallest MAERI configuration that keeps LeNet-5 inference
under a cycle budget — the accelerator-provisioning question an edge
deployment asks.

Run:  python examples/hardware_design_space.py
"""

from repro.session import Session
from repro.tuner import CallableTask, GridSearchTuner, hardware_space
from repro.zoo import zoo_layers

CYCLE_BUDGET = 60_000
LAYERS = zoo_layers("lenet")


def total_cycles(hw) -> int:
    """Simulated LeNet cycles for one hardware configuration, with mRNA
    mappings regenerated for that hardware."""
    with Session(
        arch="maeri", ms_size=hw["ms_size"], dn_bw=hw["dn_bw"],
        rn_bw=hw["rn_bw"], mapping="mrna",
    ) as session:
        return sum(s.cycles for s in session.run_layers(LAYERS))


def cost(hw) -> float:
    """Minimize PE count, then bandwidth, subject to the cycle budget."""
    cycles = total_cycles(hw)
    if cycles > CYCLE_BUDGET:
        return float("inf")
    return hw["ms_size"] * 1000 + hw["dn_bw"] + hw["rn_bw"]


space = hardware_space(
    ms_sizes=(8, 16, 32, 64, 128),
    dn_bws=(8, 16, 32, 64),
    rn_bws=(8, 16, 32, 64),
)
task = CallableTask(space, cost)
result = GridSearchTuner(task).tune(n_trials=space.raw_size)

print(f"searched {result.num_trials} hardware configurations")
print(f"cycle budget: {CYCLE_BUDGET:,} cycles for LeNet-5")
if result.best_config is None:
    print("no configuration meets the budget")
else:
    best = result.best_config
    print(
        f"smallest viable MAERI: ms_size={best['ms_size']}, "
        f"dn_bw={best['dn_bw']}, rn_bw={best['rn_bw']} "
        f"-> {total_cycles(best):,} cycles"
    )

print()
print("cycle count per array size (best bandwidths, mRNA mappings):")
for ms in (8, 16, 32, 64, 128):
    cycles = min(
        total_cycles({"ms_size": ms, "dn_bw": dn, "rn_bw": rn})
        for dn in (8, 16, 32, 64)
        for rn in (8, 16, 32, 64)
    )
    marker = " <= budget" if cycles <= CYCLE_BUDGET else ""
    print(f"  ms_size {ms:>4}: {cycles:>10,} cycles{marker}")
