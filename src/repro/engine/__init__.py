"""repro.engine — cached, batched evaluation of simulated accelerators.

Why this package exists
-----------------------
Bifrost's core loop (§V, §VII-B of the paper) is "configure a simulator
instance per layer, run, record stats", repeated thousands of times
during mapping tuning — where the paper notes a full simulation per
trial is the *expensive exact objective*.  The seed code re-simulated
identical (layer, mapping, config) triples from scratch on every trial;
this package turns that hot path into a service with memoization and
batching.

Components
----------
:class:`~repro.engine.cache.StatsCache`
    A thread-safe, LRU-bounded, content-addressed cache mapping the
    fingerprint of (layer, mapping, SimulatorConfig, CycleModelParams)
    to :class:`~repro.stonne.stats.SimulationStats`, with hit/miss
    counters.  Keys are structural — the layer *name* is excluded — so
    re-tuning a layer whose shape already appeared (common in real
    networks: VGG/AlexNet repeat shapes) hits the cache.

:class:`~repro.engine.evaluation.EvaluationEngine`
    The evaluation front end.  ``evaluate(layer, mapping)`` resolves the
    architecture through the controller registry, consults the cache,
    and simulates on a miss; ``evaluate_many`` fans a batch of
    :class:`~repro.engine.evaluation.EvalRequest` out over a thread
    pool (controllers hold no state after construction, so one
    controller per engine serves every thread).  ``num_simulations`` vs
    ``num_evaluations`` counters expose real simulation savings.

    ``functional=True`` additionally executes the exact datapath (the
    im2col GEMM) per simulation, reproducing the cost profile of real
    STONNE — which always computes outputs — so benchmarks can measure
    cache benefit against realistic per-trial cost.  Stats are identical
    with and without the functional datapath (mapping-invariance).

:mod:`~repro.engine.backends`
    The executor backends ``evaluate_many`` runs cache misses on,
    selected by name through a registry that mirrors the controller
    registry: ``serial`` (inline), ``thread`` (one puller thread per slot;
    numpy batch kernels release the GIL), and ``process`` (a process
    pool — controllers are pure functions of (config, params, layer,
    mapping) and pickle cleanly, so workers simulate independently and
    return ``(key, stats)`` pairs that merge into the parent cache).

:class:`~repro.engine.cache.PersistentStatsCache`
    The disk tier: an append-only JSONL spill under the in-memory LRU.
    Opening a cache on an existing file warm-starts it, so tuning
    sessions resume warm across processes and workers can share one
    measurement history.

:mod:`~repro.engine.scheduler`
    The saturation scheduler: :func:`~repro.engine.scheduler.run_plan_groups`
    drains many engines' planned batches through one pull-based work
    queue (one puller per backend slot; one slot drains inline on the
    caller's thread) so engine groups overlap and fast slots steal slow
    slots' queued tails — all bit-identical to serial execution, with
    exact pull/steal/idle counters.

Who routes through it
---------------------
* ``repro.session.Session`` — the public facade: it builds one engine
  per session from a typed ``SessionConfig`` (executor, cache tier,
  fleet workers) and guarantees ``close()`` runs on exit;
* ``repro.tuner.measure.TuningTask`` — ``measure_batch`` submits a whole
  tuner generation to ``evaluate_many``, making GA/XGB tuning
  dramatically cheaper on revisited configs while keeping results
  bit-identical;
* ``repro.bifrost.api.StonneBifrostApi`` — offloaded conv2d/dense stats
  lookups go through the session engine, so repeated shapes in one graph
  skip the cycle model (the functional datapath still executes);
* ``repro.bifrost.runner.run_layers`` — bare-descriptor benchmarking
  batches through the session's engine;
* ``benchmarks/bench_engine_cache.py`` — measures the speedups.

Results are bit-identical with the cache on or off and across backends:
every controller is a deterministic function of (layer, config, params,
mapping), and records are frozen, so a cache hit hands out the cached
record itself and no caller can corrupt the cache.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.backends": (
        "ExecutorBackend", "ProcessBackend", "SerialBackend",
        "ThreadBackend", "make_backend", "register_backend",
        "registered_backends", "unregister_backend",
    ),
    "repro.engine.cache": (
        "PersistentStatsCache", "StatsCache", "make_stats_cache",
    ),
    "repro.engine.evaluation": (
        "BatchPlan", "EvalRequest", "EvaluationEngine", "evaluation_key",
        "fingerprint_config",
    ),
    "repro.engine.scheduler": (
        "WorkQueue", "backend_counters", "run_plan_groups",
    ),
    "repro.engine.sqlite_cache": ("SqliteStatsCache",),
})
