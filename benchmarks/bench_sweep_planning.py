"""Sweep planning benchmark: matrix expansion and the wire round trip.

Before a sweep simulates anything it expands its matrix: every cell is a
resolved :class:`~repro.session.SessionConfig` built by applying the
cell's axis values to the base config, labelled with the coerced values.
``repro serve`` then pays the same price again on both sides of the
wire: the client flattens each cell with ``plan_to_wire`` and the daemon
rebuilds it with ``plan_from_wire``.  Both costs are per cell and grow
with the number of axes, so this bench times them on the
design-space-exploration shape — 3 models x 3 architectures at one
hardware point, 7 axes (``arch`` plus six hardware knobs), 9 cells:

* **matrix** — ``SweepPlan.matrix`` for the whole plan;
* **wire** — ``plan_to_wire`` followed by ``plan_from_wire``.

Each is reported as the median over repeats, in microseconds per cell.
There is no wall-clock band: the numbers are a ledger row, and the only
assertions are that the plan has the expected shape and that the wire
round trip rebuilds it exactly.  Emits ``BENCH_sweep_planning.json``.
"""

import json
import statistics
import time

from conftest import SMOKE, emit, scaled

from repro.fleet.protocol import plan_from_wire, plan_to_wire
from repro.session import SessionConfig
from repro.sweep import SweepPlan

MODELS = ("alexnet", "vgg_small", "transformer")
ARCHS = ("maeri", "sigma", "tpu")
#: One hardware point of the design-space grid (all powers of two).
POINT = {
    "ms_size": 256,
    "dn_bw": 64,
    "rn_bw": 16,
    "sparsity_ratio": 0.5,
    "ms_rows": 16,
    "ms_cols": 8,
}
#: Seven axes: the architecture plus one value per hardware knob.
AXES = {"arch": list(ARCHS), **{key: [value] for key, value in POINT.items()}}
REPEATS = scaled(200, 5)


def _median_s(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _run():
    base = SessionConfig.resolve(env=False)
    plan = SweepPlan.matrix(base, models=list(MODELS), axes=AXES)
    rebuilt = plan_from_wire(plan_to_wire(plan))
    matrix_s = _median_s(
        lambda: SweepPlan.matrix(base, models=list(MODELS), axes=AXES)
    )
    wire_s = _median_s(lambda: plan_from_wire(plan_to_wire(plan)))
    return {"plan": plan, "rebuilt": rebuilt,
            "matrix_s": matrix_s, "wire_s": wire_s}


def test_sweep_planning(benchmark, results_dir):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    cells = len(out["plan"])
    matrix_us = out["matrix_s"] / cells * 1e6
    wire_us = out["wire_s"] / cells * 1e6
    record = {
        "benchmark": "sweep_planning",
        "smoke": SMOKE,
        "cells": cells,
        "axes": len(AXES),
        "repeats": REPEATS,
        "matrix_us_per_cell": round(matrix_us, 2),
        "wire_round_trip_us_per_cell": round(wire_us, 2),
    }
    (results_dir / "BENCH_sweep_planning.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"{len(MODELS)} models x {len(ARCHS)} archs = {cells} cells, "
        f"{len(AXES)} axes, median of {REPEATS}",
        f"{'':<22}{'us/cell':>10}",
        f"{'SweepPlan.matrix':<22}{matrix_us:>10.1f}",
        f"{'wire round trip':<22}{wire_us:>10.1f}",
    ]
    emit(results_dir, "sweep_planning", "\n".join(lines))

    assert cells == len(MODELS) * len(ARCHS)
    assert all(len(s.overrides) == len(AXES) for s in out["plan"])
    assert out["rebuilt"].scenarios == out["plan"].scenarios
