"""Golden digests of every cycle-model entry point.

A fixed corpus — every ``repro.zoo`` layer, the seeded batch-kernel
corpus, batch-N layers and layers whose dimensions approach the int64
range — is run through each controller's scalar and batch entry points,
through MAERI's steady term and through the mRNA mapper that prices
with it.  Each outcome is reduced to a canonical value
(``SimulationStats.to_dict()``, the psum int, or the raised exception's
type and message), and each group of outcomes to a short SHA-256
digest.  ``tests/data/cycle_model_golden.json`` holds the digests of a
reference implementation; any change to a cycle count, traffic tally or
error message shows up as a mismatching key naming the config, workload
group and entry point.

Regenerate (only when a model change is intended)::

    PYTHONPATH=src python tests/test_cycle_model_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "data" / "cycle_model_golden.json"

#: Random mappings drawn per layer, on top of the basic and mRNA ones.
RANDOM_MAPPINGS = 64


def _configs():
    from repro.stonne.config import (
        ReduceNetworkType,
        magma_config,
        maeri_config,
        sigma_config,
        tpu_config,
    )

    configs = {
        "maeri_as": maeri_config(),
        "maeri_fe": maeri_config(
            reduce_network_type=ReduceNetworkType.FENETWORK
        ),
        "maeri_as_ms64_noacc": maeri_config(
            ms_size=64, dn_bw=16, rn_bw=8, accumulation_buffer=False
        ),
        "tpu": tpu_config(),
    }
    for sparsity in (0, 50, 90):
        configs[f"sigma_sp{sparsity}"] = sigma_config(sparsity_ratio=sparsity)
        configs[f"magma_sp{sparsity}"] = magma_config(sparsity_ratio=sparsity)
    return configs


def _workloads():
    """``{group: [layer, ...]}``: the zoo plus the hand-built corpora."""
    from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
    from repro.zoo import zoo_layers, zoo_models

    groups = {f"zoo:{name}": list(zoo_layers(name)) for name in zoo_models()}
    # The batch-kernel parity corpus, batch-N variants included.
    groups["corpus"] = [
        ConvLayer("c1", C=8, H=12, W=12, K=16, R=3, S=3, pad_h=1, pad_w=1,
                  stride_h=2, N=1),
        ConvLayer("c3", C=8, H=12, W=12, K=16, R=3, S=3, pad_h=1, pad_w=1,
                  stride_h=2, N=3),
        FcLayer("f1", in_features=24, out_features=36, batch=1),
        FcLayer("f4", in_features=24, out_features=36, batch=4),
        ConvLayer("rn", C=6, H=10, W=10, K=8, R=3, S=3),
        ConvLayer("edge", C=4, H=8, W=8, K=4, R=3, S=3),
        ConvLayer("est", C=8, H=12, W=12, K=8, R=3, S=3, N=2),
        FcLayer("fest", in_features=30, out_features=20, batch=2),
        ConvLayer("acc", C=4, H=8, W=8, K=8, R=3, S=3),
        ConvLayer("low3", C=8, H=10, W=10, K=8, R=3, S=3, N=3),
        FcLayer("lowf3", in_features=64, out_features=32, batch=3),
        ConvLayer("dil", C=4, H=16, W=16, K=4, R=3, S=3, dil_h=2, dil_w=3,
                  stride_w=2, G=2),
    ]
    rnd = random.Random(17)
    groups["gemm"] = [
        GemmLayer(f"g{i}", M=rnd.randint(1, 300), K=rnd.randint(1, 300),
                  N=rnd.randint(1, 300))
        for i in range(40)
    ] + [
        GemmLayer("small", M=4, K=4, N=4),
        GemmLayer("huge", M=2 ** 31, K=2 ** 31, N=2 ** 20),
    ]
    groups["int64_risk"] = int64_risk_layers()
    return groups


def int64_risk_layers():
    """Layers whose cycle counts and traffic reach or pass int64 range."""
    from repro.stonne.layer import ConvLayer, FcLayer

    return [
        ConvLayer("hw31", C=3, H=2 ** 31, W=2 ** 31, K=8, R=3, S=3),
        ConvLayer("h31", C=16, H=2 ** 31, W=8, K=16, R=3, S=3),
        ConvLayer("h31s2n3", C=4, H=2 ** 31, W=2 ** 10, K=4, R=3, S=3,
                  stride_h=2, N=3),
        ConvLayer("edge61", C=1, H=2 ** 31, W=2 ** 30, K=1, R=1, S=1),
        ConvLayer("edge59", C=1, H=2 ** 30, W=2 ** 29, K=1, R=1, S=1),
        ConvLayer("w31k", C=2, H=4, W=2 ** 31 + 5, K=64, R=2, S=5, pad_w=2),
        FcLayer("fc31x31", in_features=2 ** 31, out_features=2 ** 31),
        FcLayer("fc31", in_features=2 ** 31, out_features=64, batch=2),
        FcLayer("fc62", in_features=2 ** 62, out_features=3),
    ]


def _bounds(layer):
    from repro.stonne.layer import ConvLayer

    if isinstance(layer, ConvLayer):
        return (
            layer.R, layer.S, layer.C // layer.G, layer.K // layer.G,
            layer.G, layer.N, layer.P, layer.Q,
        )
    return (layer.out_features, layer.in_features, layer.batch)


@lru_cache(maxsize=None)
def random_mappings(layer, ms_size, count=RANDOM_MAPPINGS):
    """Seeded valid and invalid mappings for ``layer``.

    Half the draws pack tiles under the array capacity (mostly valid),
    half draw small tiles freely (often over capacity or over a layer
    dimension); one absurd tile exercises values beyond int64.
    """
    from repro.stonne.layer import ConvLayer
    from repro.stonne.mapping import ConvMapping, FcMapping

    conv = isinstance(layer, ConvLayer)
    bounds = _bounds(layer)
    rnd = random.Random(f"{layer.name}/{ms_size}")
    out = []
    for i in range(count):
        tiles = []
        budget = ms_size
        for position, bound in enumerate(bounds):
            if conv and position == 5:
                tiles.append(1)  # ConvMapping only admits T_N=1
                continue
            if i % 2:
                value = rnd.randint(1, 8)
            else:
                value = rnd.randint(1, max(1, min(bound, budget)))
                budget = max(1, budget // value)
            if not conv and position == 2:
                value = rnd.randint(1, 2)
            tiles.append(value)
        out.append(ConvMapping(*tiles) if conv else FcMapping(*tiles))
    if conv:
        out.append(ConvMapping(T_K=2 ** 64))
    else:
        out.append(FcMapping(T_S=2 ** 64))
    return tuple(out)


def _canon(value):
    from repro.stonne.stats import SimulationStats

    if isinstance(value, BaseException):
        return [type(value).__name__, str(value)]
    if isinstance(value, SimulationStats):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_canon(v) for v in value]
    return value


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _digest(values):
    text = json.dumps(
        [_canon(v) for v in values], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mrna_outcomes(config, layers, mappings_for):
    from repro.mrna import MrnaMapper
    from repro.stonne.layer import ConvLayer, FcLayer
    from repro.stonne.maeri import conv_profile, fc_profile

    mapper = MrnaMapper(config)
    steady = mapper.controller.steady_cycles
    cycles, scores = [], []
    for layer in layers:
        if isinstance(layer, ConvLayer):
            profile, score = conv_profile, mapper.score_conv
        elif isinstance(layer, FcLayer):
            profile, score = fc_profile, mapper.score_fc
        else:
            continue
        cycles.extend(
            _call(lambda m: steady(profile(layer, m.as_tuple())), m)
            for m in mappings_for(layer) if m
        )
        if max(_bounds(layer)) < 2 ** 20:
            choice = _call(score, layer)
            if isinstance(choice, Exception):
                scores.append(choice)
            else:
                scores.append(
                    (choice.mapping.as_tuple(), choice.estimated_cycles)
                )
    return {"mrna.cycles": cycles, "mrna.score": scores}


def compute_digests():
    """``{"config|group|entry": digest}`` for the whole corpus."""
    from repro.engine.backends import simulate_layer_batch
    from repro.mrna import MrnaMapper
    from repro.stonne.config import ControllerType
    from repro.stonne.controller import make_controller
    from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
    from repro.stonne.mapping import ConvMapping, FcMapping

    digests = {}
    for label, config in _configs().items():
        maeri = config.controller_type is ControllerType.MAERI_DENSE_WORKLOAD
        ms_size = config.ms_size
        mapper = MrnaMapper(config) if maeri else None

        def mappings_for(layer):
            conv = isinstance(layer, ConvLayer)
            basic = ConvMapping.basic() if conv else FcMapping.basic()
            out = [None, basic]
            if mapper is not None and max(_bounds(layer)) < 2 ** 20:
                found = _call(mapper.map_conv if conv else mapper.map_fc, layer)
                out.append(basic if isinstance(found, Exception) else found)
            return out + list(random_mappings(layer, ms_size))

        for group, layers in _workloads().items():
            outcomes = {}

            def add(entry, values):
                outcomes.setdefault(entry, []).extend(values)

            scalar_ctrl = make_controller(config)
            batch_ctrl = make_controller(config)
            for layer in layers:
                if isinstance(layer, GemmLayer):
                    add("run_gemm", [_call(scalar_ctrl.run_gemm, layer)])
                    add("gemm_group", simulate_layer_batch(
                        batch_ctrl, layer, [None] * 3
                    ))
                    continue
                kind = "conv" if isinstance(layer, ConvLayer) else "fc"
                mappings = mappings_for(layer)
                run = getattr(scalar_ctrl, f"run_{kind}")
                estimate = getattr(scalar_ctrl, f"estimate_{kind}_psums")
                add(f"run_{kind}", [_call(run, layer, m) for m in mappings])
                add(f"estimate_{kind}_psums",
                    [_call(estimate, layer, m) for m in mappings])
                add(f"run_{kind}_batch", getattr(
                    batch_ctrl, f"run_{kind}_batch")(layer, mappings))
                add(f"estimate_{kind}_psums_batch", getattr(
                    batch_ctrl, f"estimate_{kind}_psums_batch")(layer, mappings))
                add("run_gemm", [_call(scalar_ctrl.run_gemm, layer.as_gemm())])
            if maeri:
                outcomes.update(_mrna_outcomes(config, layers, mappings_for))
            for entry, values in outcomes.items():
                digests[f"{label}|{group}|{entry}"] = _digest(values)
    return digests


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_golden_file_covers_the_corpus(digests):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(digests)


@pytest.mark.parametrize(
    "controller", ["maeri", "sigma", "magma", "tpu"]
)
def test_cycle_models_match_golden_digests(digests, controller):
    golden = json.loads(GOLDEN_PATH.read_text())
    mismatched = sorted(
        key for key, value in digests.items()
        if key.startswith(controller) and golden.get(key) != value
    )
    assert not mismatched, f"digests changed: {mismatched}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    table = compute_digests()
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}", file=sys.stderr)
