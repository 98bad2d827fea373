"""Batch-kernel benchmark: one numpy pass vs the scalar loop.

MAERI's cycle model is written once over tile columns: a single mapping
evaluates it on Python ints, and a chunk of mappings is packed into an
``(N, k)`` int64 tile matrix so the same profile/II/fill/steady/psum
arithmetic runs as numpy ops (see ``tests/test_batch_kernels.py`` and
``tests/test_cycle_model_golden.py``).  This bench measures what the
int64 evaluation buys on the two hot paths:

* **sweep** — a 4096-mapping MAERI tuning sweep over one conv layer:
  ``run_conv_batch`` vs the scalar ``run_conv`` loop (the default
  base-class batch method), plus the tuner's closed-form psum proxy
  (``estimate_conv_psums_batch`` vs its loop);
* **mrna** — the mRNA mapper's full divisor-grid enumeration and
  scoring: the vectorized grid scored as int64 columns + argmin vs the
  candidate-object loop on Python ints;
* **mrna memo** — mapping the 21 distinct layers of alexnet, vgg_small
  and transformer per hardware point (each power-of-two ``ms_size``
  from 8 to 2048): a cold candidate memo (enumerate and price) vs a warm
  one (price only), with identical mappings asserted.

Every arm is compared for bit-identity before it is timed as a
speedup.  At full scale the sweep batch kernel must beat the scalar
loop by >= 5x per-simulation throughput (the PR's acceptance band);
``scripts/kernels_smoke.py`` gates the same contract at smoke scale in
CI.  Emits ``BENCH_kernels.json``.
"""

import dataclasses
import itertools
import json
import time

from conftest import SMOKE, emit, scaled

from repro.mrna import mapper as mrna_mapper
from repro.mrna.mapper import MrnaMapper
from repro.zoo import zoo_layers
from repro.stonne.config import maeri_config
from repro.stonne.controller import AcceleratorController
from repro.stonne.layer import ConvLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import enumerate_conv_mappings

MS_SIZE = 128
#: Mappings in the tuning-sweep arm (the paper-scale generation count).
SWEEP = scaled(4096, 256)

SWEEP_LAYER = ConvLayer("bench_conv", C=64, H=16, W=16, K=64, R=3, S=3)
MRNA_LAYER = ConvLayer(
    "bench_mrna", C=scaled(128, 32), H=28, W=28, K=scaled(128, 32), R=3, S=3
)
MEMO_MODELS = ("alexnet", "vgg_small", "transformer")
MEMO_MS_SIZES = tuple(2 ** k for k in range(3, 12))


def _sweep_mappings():
    mappings = list(
        itertools.islice(
            enumerate_conv_mappings(SWEEP_LAYER, MS_SIZE),
            SWEEP,
        )
    )
    assert len(mappings) == SWEEP, f"sweep space too small: {len(mappings)}"
    return mappings


def _canon(results):
    """Payloads as comparable values (stats dict or exception identity)."""
    return [
        (type(r).__name__, str(r)) if isinstance(r, Exception) else r.to_dict()
        for r in results
    ]


def _timed(fn, repeats=3):
    """Best-of-``repeats`` wall time (single-shot timing is too noisy
    around the 5x gate) and the first call's result."""
    best = float("inf")
    out = None
    for attempt in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
        if attempt == 0:
            out = result
    return best, out


def _memo_layers():
    distinct = {}
    for model in MEMO_MODELS:
        for layer in zoo_layers(model):
            distinct.setdefault(dataclasses.replace(layer, name=""), layer)
    return list(distinct.values())


def _map_point(mapper, layers):
    return [
        mapper.map_conv(layer) if isinstance(layer, ConvLayer)
        else mapper.map_fc(layer)
        for layer in layers
    ]


def _cold(fn, *args):
    """``fn(*args)`` with an empty mRNA candidate memo."""
    mrna_mapper._conv_candidates.cache_clear()
    mrna_mapper._fc_candidates.cache_clear()
    return fn(*args)


def _run_memo():
    """Mean per-point seconds with a cold and a warm memo (best of 3)."""
    layers = _memo_layers()
    cold_s = warm_s = 0.0
    identical = True
    for ms_size in MEMO_MS_SIZES:
        mapper = MrnaMapper(maeri_config(ms_size=ms_size))
        point_cold_s, cold = _timed(lambda: _cold(_map_point, mapper, layers))
        point_warm_s, warm = _timed(lambda: _map_point(mapper, layers))
        cold_s += point_cold_s
        warm_s += point_warm_s
        identical = identical and cold == warm
    return {
        "memo_layers": len(layers),
        "memo_cold_point_s": cold_s / len(MEMO_MS_SIZES),
        "memo_warm_point_s": warm_s / len(MEMO_MS_SIZES),
        "memo_identical": identical,
    }


def _run():
    controller = MaeriController(maeri_config(ms_size=MS_SIZE))
    mappings = _sweep_mappings()
    # Warm both paths (numpy ufunc setup, controller state) off the clock.
    controller.run_conv_batch(SWEEP_LAYER, mappings[:8])
    AcceleratorController.run_conv_batch(controller, SWEEP_LAYER, mappings[:8])

    # Scalar reference = the base-class default batch methods, which are
    # exactly the per-item scalar loop with per-item error capture.
    scalar_s, scalar_stats = _timed(
        lambda: AcceleratorController.run_conv_batch(
            controller, SWEEP_LAYER, mappings
        )
    )
    batch_s, batch_stats = _timed(
        lambda: controller.run_conv_batch(SWEEP_LAYER, mappings)
    )
    psum_scalar_s, psum_scalar = _timed(
        lambda: AcceleratorController.estimate_conv_psums_batch(
            controller, SWEEP_LAYER, mappings
        )
    )
    psum_batch_s, psum_batch = _timed(
        lambda: controller.estimate_conv_psums_batch(SWEEP_LAYER, mappings)
    )

    mapper = MrnaMapper(maeri_config(ms_size=MS_SIZE))
    mrna_scalar_s, mrna_scalar = _timed(
        lambda: mapper._score_conv_scalar(MRNA_LAYER)
    )
    mrna_batch_s, mrna_batch = _timed(
        lambda: _cold(mapper._score_conv_batch, MRNA_LAYER)
    )

    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "sweep_identical": _canon(scalar_stats) == _canon(batch_stats),
        "psum_scalar_s": psum_scalar_s,
        "psum_batch_s": psum_batch_s,
        "psum_identical": psum_scalar == psum_batch,
        "mrna_scalar_s": mrna_scalar_s,
        "mrna_batch_s": mrna_batch_s,
        "mrna_identical": (
            mrna_scalar.mapping == mrna_batch.mapping
            and mrna_scalar.estimated_cycles == mrna_batch.estimated_cycles
        ),
        **_run_memo(),
    }


def test_batch_kernels(benchmark, results_dir):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    sweep_speedup = out["scalar_s"] / out["batch_s"]
    psum_speedup = out["psum_scalar_s"] / out["psum_batch_s"]
    mrna_speedup = out["mrna_scalar_s"] / out["mrna_batch_s"]
    memo_speedup = out["memo_cold_point_s"] / out["memo_warm_point_s"]
    record = {
        "benchmark": "kernels",
        "smoke": SMOKE,
        "sweep_mappings": SWEEP,
        "ms_size": MS_SIZE,
        "sweep_scalar_s": round(out["scalar_s"], 4),
        "sweep_batch_s": round(out["batch_s"], 4),
        "sweep_speedup": round(sweep_speedup, 2),
        "sweep_scalar_sims_per_s": round(SWEEP / out["scalar_s"]),
        "sweep_batch_sims_per_s": round(SWEEP / out["batch_s"]),
        "psum_scalar_s": round(out["psum_scalar_s"], 4),
        "psum_batch_s": round(out["psum_batch_s"], 4),
        "psum_speedup": round(psum_speedup, 2),
        "mrna_scalar_s": round(out["mrna_scalar_s"], 4),
        "mrna_batch_s": round(out["mrna_batch_s"], 4),
        "mrna_speedup": round(mrna_speedup, 2),
        "mrna_memo_layers": out["memo_layers"],
        "mrna_memo_cold_point_s": round(out["memo_cold_point_s"], 5),
        "mrna_memo_warm_point_s": round(out["memo_warm_point_s"], 5),
        "mrna_memo_speedup": round(memo_speedup, 2),
        "bit_identical": (
            out["sweep_identical"]
            and out["psum_identical"]
            and out["mrna_identical"]
            and out["memo_identical"]
        ),
    }
    (results_dir / "BENCH_kernels.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"MAERI ms_size={MS_SIZE}, {SWEEP}-mapping conv sweep "
        f"+ full mRNA enumeration ({MRNA_LAYER.C}x{MRNA_LAYER.K})",
        f"{'arm':<12}{'scalar s':>10}{'batch s':>10}{'speedup':>9}",
        f"{'run_conv':<12}{out['scalar_s']:>10.3f}{out['batch_s']:>10.3f}"
        f"{sweep_speedup:>8.1f}x",
        f"{'psum proxy':<12}{out['psum_scalar_s']:>10.3f}"
        f"{out['psum_batch_s']:>10.3f}{psum_speedup:>8.1f}x",
        f"{'mrna score':<12}{out['mrna_scalar_s']:>10.3f}"
        f"{out['mrna_batch_s']:>10.3f}{mrna_speedup:>8.1f}x",
        f"mRNA per hardware point ({out['memo_layers']} layers, mean of "
        f"{len(MEMO_MS_SIZES)} ms_size values): "
        f"{out['memo_cold_point_s'] * 1e3:.2f} ms cold memo -> "
        f"{out['memo_warm_point_s'] * 1e3:.2f} ms warm memo "
        f"({memo_speedup:.1f}x)",
        f"per-simulation throughput: {SWEEP / out['scalar_s']:,.0f}/s scalar "
        f"-> {SWEEP / out['batch_s']:,.0f}/s batch",
    ]
    emit(results_dir, "kernels", "\n".join(lines))

    # Correctness first: every arm bit-identical to its scalar loop.
    assert out["sweep_identical"]
    assert out["psum_identical"]
    assert out["mrna_identical"]
    assert out["memo_identical"]
    if not SMOKE:
        assert sweep_speedup >= 5.0, f"sweep speedup only {sweep_speedup:.2f}x"
        assert mrna_speedup >= 2.0, f"mrna speedup only {mrna_speedup:.2f}x"
