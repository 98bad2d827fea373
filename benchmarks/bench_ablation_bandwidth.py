"""Ablation: distribution/reduction bandwidth sweep (DESIGN.md §3).

The cycle model's central claim is that skewed mappings are bandwidth-
bound while balanced mappings are compute-bound.  This bench sweeps
``dn_bw`` and ``rn_bw`` on AlexNet conv3 and fc1 under mRNA mappings and
checks monotonicity plus eventual saturation.
"""

from conftest import emit

from repro.mrna import MrnaMapper
from repro.stonne.config import maeri_config
from repro.stonne.maeri import MaeriController
from repro.zoo import zoo_layers

BANDWIDTHS = [8, 16, 32, 64, 128]


def _sweep():
    alexnet = {l.name: l for l in zoo_layers("alexnet")}
    conv = alexnet["conv3"]
    fc = alexnet["fc1"]
    base = maeri_config()
    mapper = MrnaMapper(base)
    conv_mapping = mapper.map_conv(conv)
    fc_mapping = mapper.map_fc(fc)

    rows = []
    for dn in BANDWIDTHS:
        for rn in BANDWIDTHS:
            config = maeri_config(dn_bw=dn, rn_bw=rn)
            controller = MaeriController(config)
            rows.append(
                (
                    dn,
                    rn,
                    controller.run_conv(conv, conv_mapping).cycles,
                    controller.run_fc(fc, fc_mapping).cycles,
                )
            )
    return rows


def test_ablation_bandwidth(benchmark, results_dir):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [f"{'dn_bw':>6}{'rn_bw':>7}{'conv3 cycles':>16}{'fc1 cycles':>16}"]
    for dn, rn, conv_c, fc_c in rows:
        lines.append(f"{dn:>6}{rn:>7}{conv_c:>16,}{fc_c:>16,}")
    emit(results_dir, "ablation_bandwidth", "\n".join(lines))

    # Monotone: widening either bandwidth never increases cycles.
    by_key = {(dn, rn): (c, f) for dn, rn, c, f in rows}
    for dn, rn, conv_c, fc_c in rows:
        if (dn * 2, rn) in by_key:
            assert by_key[(dn * 2, rn)][0] <= conv_c
            assert by_key[(dn * 2, rn)][1] <= fc_c
        if (dn, rn * 2) in by_key:
            assert by_key[(dn, rn * 2)][0] <= conv_c

    # Saturation: at some point extra bandwidth stops helping (compute or
    # hazard bound), so the widest two settings coincide.
    assert by_key[(64, 128)] == by_key[(128, 128)] or (
        by_key[(64, 128)][0] >= by_key[(128, 128)][0]
    )
