"""Saturation scheduler benchmark: pull-based queue vs static fan-out.

A scenario-matrix sweep is *skewed* in practice: hardware configs differ
in simulation cost, a few layers dominate a model, and fleet workers run
at unequal speeds.  Under the historical static fan-out each engine
group barriers — every executor slot waits for the group's straggler
before the next group starts — so skew turns directly into idle slots.
The pull scheduler (:func:`repro.engine.scheduler.run_plan_groups`)
drains all groups through one work queue instead: slots pull the next
chunk as they finish, stragglers of every group run concurrently from
pull #1, and fast slots steal the tails.

This bench builds a multi-engine sweep (one engine per SIGMA size) whose
groups each contain one *straggler* layer — its simulation blocks for a
fixed latency, emulating the heavyweight-functional / slow-remote-worker
regime on any machine, including single-core CI — plus a tail of cheap
layers.  It times three arms over identical work:

* **serial** — one slot, no scheduling (also the bit-identity reference
  and the "total busy time" used for the utilization estimate);
* **static** — one ``run_plan_groups`` call per engine group on a
  4-worker process backend: each group barriers before the next starts,
  the historical static fan-out's schedule;
* **pull** — ``run_plan_groups`` over all groups on the same workers;
* **thread** — ``run_plan_groups`` on a 4-worker *thread* pool.  The
  historical claim that threads "help little" dated from the pure-Python
  cycle models holding the GIL; with blocking waits and numpy batch
  kernels releasing it, threads overlap too, and this arm keeps that
  claim measured instead of folklore.

Results must be bit-identical across all arms; the pull arm must beat
static by >= 1.5x wall-clock (the sum-of-stragglers vs
max-of-stragglers gap), and the thread arm must beat serial by >= 1.5x.
Emits ``BENCH_scheduler.json`` with the wall times, the utilization
estimates and the scheduler counters.

The straggler latency is injected by wrapping
``repro.engine.backends.simulate_layer`` *before* the process backend
forks its workers, so they inherit it; the speedup band is asserted only
where that inheritance holds (fork start method, i.e. Linux).
"""

import json
import multiprocessing
import time

from conftest import SMOKE, emit, scaled

import repro.engine.backends as backends_mod
from repro.engine import EvalRequest, EvaluationEngine
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.scheduler import run_plan_groups
from repro.stonne.config import sigma_config
from repro.stonne.layer import FcLayer

#: One engine group per SIGMA multiplier-switch size.
GROUP_SIZES = [16, 32, 64, 128][: scaled(4, 2)]
#: Cheap layers per group besides the straggler.
LIGHT_LAYERS = scaled(11, 3)
#: Injected straggler latency (seconds of blocking per slow layer).
SLOW_S = 0.5 if not SMOKE else 0.1
WORKERS = 4

_REAL_SIMULATE = backends_mod.simulate_layer


def _skewed_simulate(controller, layer, mapping, functional):
    """The real simulation, plus a blocking delay for straggler layers."""
    if layer.name.startswith("slow"):
        time.sleep(SLOW_S)
    return _REAL_SIMULATE(controller, layer, mapping, functional)


def _group_layers(group: int):
    """One straggler plus LIGHT_LAYERS cheap FC layers (distinct shapes)."""
    return [FcLayer(f"slow{group}", in_features=128, out_features=128)] + [
        FcLayer(f"light{group}.{i}", in_features=32 + i, out_features=32)
        for i in range(LIGHT_LAYERS)
    ]


def _engines(backend):
    """One engine per SIGMA size, all sharing ``backend``."""
    return [
        EvaluationEngine(
            sigma_config(ms_size=size),
            executor=backend,
            max_workers=WORKERS,
            chunk_size=1,
        )
        for size in GROUP_SIZES
    ]


def _stats_dicts(plans):
    return [s.to_dict() for plan in plans for s in plan.results]


def _serial_arm():
    """Single-slot reference: results + the workload's total busy time."""
    start = time.perf_counter()
    stats = []
    for group, size in enumerate(GROUP_SIZES):
        engine = EvaluationEngine(sigma_config(ms_size=size))
        for result in engine.evaluate_many(
            [EvalRequest(l) for l in _group_layers(group)]
        ):
            stats.append(result.to_dict())
    return time.perf_counter() - start, stats


def _static_arm(backend):
    """One queue per engine group, run back to back: a group barrier."""
    engines = _engines(backend)
    start = time.perf_counter()
    plans = []
    for group, engine in enumerate(engines):
        plan = engine.plan_many(
            [EvalRequest(l) for l in _group_layers(group)]
        )
        run_plan_groups([(engine, [plan])])
        plans.append(plan)
    return time.perf_counter() - start, _stats_dicts(plans)


def _pull_arm(backend):
    """All groups through one pull queue on the same backend."""
    engines = _engines(backend)
    start = time.perf_counter()
    groups = []
    plans = []
    for group, engine in enumerate(engines):
        plan = engine.plan_many(
            [EvalRequest(l) for l in _group_layers(group)]
        )
        plans.append(plan)
        groups.append((engine, [plan]))
    report = run_plan_groups(groups)
    return time.perf_counter() - start, _stats_dicts(plans), report


def _warm_pool(backend):
    """Start the workers and build every worker's controllers before
    timing.

    ``pull_slots`` starts one worker process per slot, and one
    ``run_chunk`` per slot reaches each of them (slot ``i`` always runs
    on worker ``i``).
    """
    for engine in _engines(backend):
        slots = backend.pull_slots(engine, max_workers=WORKERS)
        items = [
            (None, EvalRequest(FcLayer(f"warm{i}", in_features=8 + i,
                                       out_features=8)))
            for i in range(2 * WORKERS)
        ]
        for slot in slots:
            backend.run_chunk(engine, items[slot::len(slots)], slot=slot)


def _run():
    backends_mod.simulate_layer = _skewed_simulate
    backend = ProcessBackend(max_workers=WORKERS)
    thread_backend = ThreadBackend(max_workers=WORKERS)
    try:
        serial_s, serial_stats = _serial_arm()
        _warm_pool(backend)
        static_s, static_stats = _static_arm(backend)
        pull_s, pull_stats, report = _pull_arm(backend)
        thread_s, thread_stats, thread_report = _pull_arm(thread_backend)
    finally:
        backend.close()
        thread_backend.close()
        backends_mod.simulate_layer = _REAL_SIMULATE
    return {
        "serial_s": serial_s,
        "static_s": static_s,
        "pull_s": pull_s,
        "thread_s": thread_s,
        "serial_stats": serial_stats,
        "static_stats": static_stats,
        "pull_stats": pull_stats,
        "thread_stats": thread_stats,
        "report": report,
        "thread_report": thread_report,
    }


def test_scheduler_saturation(benchmark, results_dir):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = out["static_s"] / out["pull_s"]
    thread_speedup = out["serial_s"] / out["thread_s"]
    items = len(GROUP_SIZES) * (1 + LIGHT_LAYERS)
    # Utilization: busy time (the serial wall clock) over slot-seconds.
    util_static = out["serial_s"] / (WORKERS * out["static_s"])
    util_pull = out["serial_s"] / (WORKERS * out["pull_s"])
    util_thread = out["serial_s"] / (WORKERS * out["thread_s"])
    record = {
        "benchmark": "scheduler",
        "smoke": SMOKE,
        "groups": len(GROUP_SIZES),
        "items": items,
        "workers": WORKERS,
        "straggler_latency_s": SLOW_S,
        "serial_s": round(out["serial_s"], 4),
        "static_s": round(out["static_s"], 4),
        "pull_s": round(out["pull_s"], 4),
        "thread_s": round(out["thread_s"], 4),
        "speedup_vs_static": round(speedup, 3),
        "thread_speedup_vs_serial": round(thread_speedup, 3),
        "utilization_static": round(util_static, 4),
        "utilization_pull": round(util_pull, 4),
        "utilization_thread": round(util_thread, 4),
        "bit_identical": (
            out["pull_stats"] == out["serial_stats"]
            and out["static_stats"] == out["serial_stats"]
            and out["thread_stats"] == out["serial_stats"]
        ),
        "counters": out["report"],
    }
    (results_dir / "BENCH_scheduler.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"{len(GROUP_SIZES)} engine groups x {1 + LIGHT_LAYERS} layers "
        f"({items} items), 1 straggler/group at {SLOW_S:.1f}s, "
        f"process workers x{WORKERS}",
        f"{'':<10}{'wall s':>10}{'utilization':>13}",
        f"{'serial':<10}{out['serial_s']:>10.3f}{'':>13}",
        f"{'static':<10}{out['static_s']:>10.3f}{util_static:>12.0%}",
        f"{'pull':<10}{out['pull_s']:>10.3f}{util_pull:>12.0%}",
        f"{'thread':<10}{out['thread_s']:>10.3f}{util_thread:>12.0%}",
        f"speedup vs static fan-out: {speedup:.2f}x   "
        f"thread vs serial: {thread_speedup:.2f}x   "
        f"counters: {out['report']['chunks_pulled']} pulls, "
        f"{out['report']['steals']} steals",
    ]
    emit(results_dir, "scheduler", "\n".join(lines))

    # Correctness first: all four arms bit-identical.
    assert out["report"]["chunks_pulled"] == items
    assert out["thread_report"]["chunks_pulled"] == items
    assert out["static_stats"] == out["serial_stats"]
    assert out["pull_stats"] == out["serial_stats"]
    assert out["thread_stats"] == out["serial_stats"]
    # The straggler injection reaches the workers only where they are
    # forked (Linux); without it there is no skew to reclaim.
    if not SMOKE and multiprocessing.get_start_method() == "fork":
        assert speedup >= 1.5, f"pull speedup only {speedup:.2f}x"
        assert util_pull > util_static
    # Thread slots share the patched interpreter on every platform; the
    # straggler sleeps (and numpy batch kernels) release the GIL, so
    # threads must reclaim the skew too.
    if not SMOKE:
        assert thread_speedup >= 1.5, (
            f"thread speedup only {thread_speedup:.2f}x"
        )
