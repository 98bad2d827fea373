#!/usr/bin/env python
"""Batch-kernel smoke test: bit-identity and speedup at smoke scale.

Runs the batch kernels against their scalar loops on a small-but-real
workload and asserts the contract:

* ``run_conv_batch`` on MAERI returns *bit-identical* payloads to the
  scalar ``run_conv`` loop — including captured exceptions for invalid
  mappings injected mid-batch (per-item error isolation);
* the closed-form psum proxy and the mRNA mapper's batch scorer agree
  exactly with their scalar counterparts;
* the mRNA mapper maps every distinct alexnet, vgg_small and
  transformer layer at 9 power-of-two ``ms_size`` values x 3 bandwidth
  pairs x both accumulation-buffer settings exactly like its scalar
  scan, once with a cold candidate memo and once with a warm one
  (per-point times are printed), and each pick's estimate equals the
  steady cycles the MAERI controller simulates for it;
* a 4-slot thread engine with 4-item chunks, under a 1 us GIL switch
  interval, runs the same MAERI sweep on the engine's one controller
  (controllers hold no state) and returns exactly the serial payloads;
* the batch sweep beats the scalar loop by >= 3x wall-clock even at
  this scale (best-of-3 timing).

Exits non-zero on any divergence, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/kernels_smoke.py
"""

from __future__ import annotations

import itertools
import sys
import time

SWEEP = 1024
MS_SIZE = 128
MIN_SPEEDUP = 3.0
MRNA_MODELS = ("alexnet", "vgg_small", "transformer")
MRNA_BANDWIDTHS = ((1, 1), (8, 64), (256, 16))


def _canon(results):
    """Payloads as comparable values: stats dict, int estimate, or the
    exception's type and message."""
    out = []
    for r in results:
        if isinstance(r, Exception):
            out.append((type(r).__name__, str(r)))
        elif hasattr(r, "to_dict"):
            out.append(r.to_dict())
        else:
            out.append(r)
    return out


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _mrna_memo_leg() -> int:
    """Cold-memo and warm-memo mRNA scores against the scalar scan, and
    each pick's estimate against the controller's steady cycles."""
    import dataclasses

    from repro.mrna import mapper as mrna_mapper
    from repro.zoo import zoo_layers
    from repro.stonne.config import maeri_config
    from repro.stonne.layer import ConvLayer
    from repro.stonne.maeri import MaeriController

    distinct = {}
    for model in MRNA_MODELS:
        for layer in zoo_layers(model):
            distinct.setdefault(dataclasses.replace(layer, name=""), layer)
    layers = list(distinct.values())

    def score(mapper, layer, scalar=False):
        conv = isinstance(layer, ConvLayer)
        if scalar:
            return (mapper._score_conv_scalar if conv else mapper._score_fc_scalar)(layer)
        return (mapper.score_conv if conv else mapper.score_fc)(layer)

    timings = {"cold": [], "warm": []}
    for buffer, ms_size, (dn_bw, rn_bw) in itertools.product(
        (True, False), (2 ** k for k in range(3, 12)), MRNA_BANDWIDTHS
    ):
        config = maeri_config(
            ms_size=ms_size, dn_bw=dn_bw, rn_bw=rn_bw,
            accumulation_buffer=buffer,
        )
        mapper = mrna_mapper.MrnaMapper(config)
        reference = [score(mapper, layer, scalar=True) for layer in layers]
        for memo in ("cold", "warm"):
            if memo == "cold":
                mrna_mapper._conv_candidates.cache_clear()
                mrna_mapper._fc_candidates.cache_clear()
            start = time.perf_counter()
            scored = [score(mapper, layer) for layer in layers]
            timings[memo].append(time.perf_counter() - start)
            if scored != reference:
                print(
                    f"FAIL: mRNA {memo}-memo scores diverged from the "
                    f"scalar scan at ms_size={ms_size}, dn_bw={dn_bw}, "
                    f"rn_bw={rn_bw}, accumulation_buffer={buffer}",
                    file=sys.stderr,
                )
                return 1
        controller = MaeriController(config)
        for layer, choice in zip(layers, reference):
            run = (
                controller.run_conv if isinstance(layer, ConvLayer)
                else controller.run_fc
            )
            steady = run(layer, choice.mapping).phase_cycles["steady"]
            if choice.estimated_cycles != steady:
                print(
                    f"FAIL: mRNA estimated {choice.estimated_cycles} "
                    f"cycles for {layer.name} but the controller "
                    f"simulates {steady} steady cycles at "
                    f"ms_size={ms_size}, dn_bw={dn_bw}, rn_bw={rn_bw}, "
                    f"accumulation_buffer={buffer}",
                    file=sys.stderr,
                )
                return 1
    for memo, times in timings.items():
        times.sort()
        print(
            f"mRNA {len(layers)} layers/point, {memo} memo: "
            f"p50 {times[len(times) // 2] * 1e3:.2f} ms, "
            f"max {times[-1] * 1e3:.2f} ms over {len(times)} points"
        )
    return 0


def _shared_controller_leg(config, layer, mappings) -> int:
    """The sweep on four thread slots sharing one controller == serial."""
    from repro.engine import EvalRequest, EvaluationEngine
    from repro.stonne.maeri import MaeriController

    requests = [EvalRequest(layer, mapping) for mapping in mappings]
    serial = EvaluationEngine(config).evaluate_many(requests, return_errors=True)
    built = []
    real_init = MaeriController.__init__

    def counting_init(controller, *args, **kwargs):
        built.append(controller)
        real_init(controller, *args, **kwargs)

    interval = sys.getswitchinterval()
    MaeriController.__init__ = counting_init
    sys.setswitchinterval(1e-6)
    try:
        engine = EvaluationEngine(
            config, executor="thread", max_workers=4, chunk_size=4
        )
        try:
            threaded = engine.evaluate_many(requests, return_errors=True)
        finally:
            engine.close()
    finally:
        sys.setswitchinterval(interval)
        MaeriController.__init__ = real_init
    if _canon(threaded) != _canon(serial):
        print("FAIL: 4 thread slots on one controller diverged from serial",
              file=sys.stderr)
        return 1
    if built != [engine.controller]:
        print(f"FAIL: the thread run built {len(built)} controllers, "
              f"not the engine's one", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    from repro.mrna.mapper import MrnaMapper
    from repro.stonne.config import maeri_config
    from repro.stonne.controller import AcceleratorController, make_controller
    from repro.stonne.layer import ConvLayer
    from repro.stonne.mapping import ConvMapping, enumerate_conv_mappings

    layer = ConvLayer("smoke_conv", C=64, H=16, W=16, K=64, R=3, S=3)
    controller = make_controller(maeri_config(ms_size=MS_SIZE))
    mappings = list(
        itertools.islice(enumerate_conv_mappings(layer, MS_SIZE), SWEEP)
    )
    if len(mappings) < SWEEP:
        print(f"FAIL: sweep space too small ({len(mappings)})",
              file=sys.stderr)
        return 1
    # Invalid rows mid-batch: capacity blowout and an out-of-bounds tile.
    mappings[7] = ConvMapping(T_K=MS_SIZE * 2)
    mappings[SWEEP // 2] = ConvMapping(T_R=layer.R + 1)

    scalar = AcceleratorController.run_conv_batch(controller, layer, mappings)
    batch = controller.run_conv_batch(layer, mappings)
    if _canon(scalar) != _canon(batch):
        print("FAIL: MAERI conv batch diverged from the scalar loop",
              file=sys.stderr)
        return 1
    if not isinstance(batch[7], Exception) or not isinstance(
        batch[SWEEP // 2], Exception
    ):
        print("FAIL: invalid mappings were not isolated as exceptions",
              file=sys.stderr)
        return 1

    psum_scalar = AcceleratorController.estimate_conv_psums_batch(
        controller, layer, mappings
    )
    psum_batch = controller.estimate_conv_psums_batch(layer, mappings)
    if _canon(psum_scalar) != _canon(psum_batch):
        print("FAIL: psum-proxy batch diverged from the scalar loop",
              file=sys.stderr)
        return 1

    mapper = MrnaMapper(maeri_config(ms_size=MS_SIZE))
    mrna_layer = ConvLayer("smoke_mrna", C=32, H=28, W=28, K=32, R=3, S=3)
    mrna_scalar = mapper._score_conv_scalar(mrna_layer)
    mrna_batch = mapper._score_conv_batch(mrna_layer)
    if (
        mrna_scalar.mapping != mrna_batch.mapping
        or mrna_scalar.estimated_cycles != mrna_batch.estimated_cycles
    ):
        print("FAIL: mRNA batch scorer diverged from the scalar scan",
              file=sys.stderr)
        return 1
    if _mrna_memo_leg():
        return 1
    if _shared_controller_leg(maeri_config(ms_size=MS_SIZE), layer, mappings):
        return 1

    scalar_s = _best_of(
        lambda: AcceleratorController.run_conv_batch(
            controller, layer, mappings
        )
    )
    batch_s = _best_of(lambda: controller.run_conv_batch(layer, mappings))
    speedup = scalar_s / batch_s
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: batch kernels only {speedup:.2f}x over the scalar loop "
            f"({SWEEP} mappings; need >= {MIN_SPEEDUP:.0f}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: batch kernels bit-identical across MAERI sweep "
        f"({SWEEP} mappings, 2 invalid isolated), psum proxy, mRNA "
        f"scorer and 4 thread slots on one controller; "
        f"{speedup:.1f}x over the scalar loop"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
