"""Saturation scheduler tests.

Three layers of guarantees:

* :class:`~repro.engine.scheduler.WorkQueue` unit tests pin the pull /
  steal / idle-time counters *exactly* under an injectable fake clock —
  no timing assumptions;
* :func:`~repro.engine.scheduler.run_plan_groups` integration tests
  prove the pull path bit-identical to ``--executor serial`` on the
  thread and process backends, including under injected slow workers,
  that serial drains inline as one chunk per group, and a GA tuning run
  through the pull path bit-identical to a serial-engine run.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

import repro.engine.backends as backends_mod
from repro.engine import EvalRequest, EvaluationEngine, evaluation_key
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.scheduler import (
    MAX_CHUNK_ITEMS,
    Chunk,
    WorkQueue,
    _auto_chunk_size,
    _interleave,
    backend_counters,
    run_plan_groups,
    zero_counters,
)
from repro.errors import SimulationError
from repro.obs.trace import TRACER
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping
from repro.tuner import GATuner, MaeriFcTask


class FakeClock:
    """A manually-advanced monotonic clock for exact counter tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _chunk(slots, items, home=None, group=0):
    return Chunk(engine=None, group=group, slots=slots, items=items, home=home)


def _layers(count, width=8):
    """``count`` distinct FC layers (distinct shapes -> distinct keys)."""
    return [
        FcLayer(f"fc{i}", in_features=width + i, out_features=width)
        for i in range(count)
    ]


class TestWorkQueue:
    def test_steal_counting_is_exact(self):
        queue = WorkQueue([3], clock=FakeClock())
        chunks = [
            _chunk([i], [(f"k{i}", None)], home=i % 2) for i in range(3)
        ]
        for chunk in chunks:
            queue.add(chunk)
        # Slot 1 pulls chunk 0 (home 0): a steal.  Slot 0 pulls chunk 1
        # (home 1): a steal.  Slot 0 pulls chunk 2 (home 0): not one.
        assert queue.pull(1) is chunks[0]
        assert queue.counters["steals"] == 1
        assert queue.pull(0) is chunks[1]
        assert queue.counters["steals"] == 2
        assert queue.pull(0) is chunks[2]
        assert queue.counters["steals"] == 2
        assert queue.counters["chunks_pulled"] == 3
        for i, chunk in enumerate(chunks):
            queue.complete(chunk, [(f"k{i}", f"r{i}")])
        assert queue.pull(0) is None
        assert queue.pull(1) is None
        assert queue.results[0] == [("k0", "r0"), ("k1", "r1"), ("k2", "r2")]
        assert queue.counters["idle_time_s"] == 0

    def test_idle_time_is_exact_under_fake_clock(self):
        clock = FakeClock()
        queue = WorkQueue([1], clock=clock)
        pulled = []
        puller = threading.Thread(target=lambda: pulled.append(queue.pull(0)))
        puller.start()
        # Wait until the puller is actually parked in the queue's wait
        # loop (its idle timestamp is taken at clock 0.0), then advance.
        for _ in range(1000):
            if queue._cond._waiters:
                break
            time.sleep(0.005)
        clock.advance(1.5)
        chunk = _chunk([0], [("k", None)], home=0)
        queue.add(chunk)
        puller.join(timeout=10)
        assert pulled == [chunk]
        assert queue.counters["idle_time_s"] == 1.5

    def test_zero_counters_shape(self):
        counters = zero_counters()
        assert counters["idle_time_s"] == 0.0
        assert set(counters) == {
            "chunks_pulled", "steals", "idle_time_s",
        }


class TestChunking:
    def test_auto_chunk_size_targets_chunks_per_slot(self):
        assert _auto_chunk_size(12, 4) == 1     # fewer items than target
        assert _auto_chunk_size(256, 2) == 32   # 256 / (2*4) = 32
        assert _auto_chunk_size(10_000, 2) == 32  # capped
        assert _auto_chunk_size(1, 8) == 1
        assert _auto_chunk_size(100, 1) == 100  # one slot: whole group

    def test_interleave_round_robins_groups(self):
        a = [_chunk([i], [(f"a{i}", None)]) for i in range(3)]
        b = [_chunk([0], [("b0", None)], group=1)]
        assert _interleave([a, b]) == [a[0], b[0], a[1], a[2]]


class TestRunPlanGroups:
    def _serial_reference(self, config, layers):
        engine = EvaluationEngine(config)
        stats = engine.evaluate_many([EvalRequest(l) for l in layers])
        return [s.to_dict() for s in stats]

    def test_thread_pull_bit_identical_to_serial(self):
        layers = _layers(10)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        engine = EvaluationEngine(
            config, executor="thread", max_workers=4, chunk_size=1
        )
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])])
        assert [s.to_dict() for s in plan.results] == expected
        # 10 distinct items, chunk size 1 -> 10 pulls.
        assert report["chunks_pulled"] == 10
        assert engine.num_simulations == 10
        # The backend accumulated this run's counters.
        assert backend_counters(engine.backend)["chunks_pulled"] == 10

    def test_process_pull_bit_identical_to_serial(self):
        layers = _layers(6)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        engine = EvaluationEngine(
            config, executor="process", max_workers=2, chunk_size=1
        )
        try:
            plan = engine.plan_many([EvalRequest(l) for l in layers])
            report = run_plan_groups([(engine, [plan])])
            assert report["chunks_pulled"] == 6
            assert [s.to_dict() for s in plan.results] == expected
        finally:
            engine.backend.close()

    def test_engine_groups_share_one_queue(self):
        backend = ThreadBackend(max_workers=4)
        config_a = sigma_config()
        config_b = sigma_config(ms_size=64)
        layers_a = _layers(5)
        layers_b = _layers(4, width=16)
        expected_a = self._serial_reference(config_a, layers_a)
        expected_b = self._serial_reference(config_b, layers_b)
        try:
            engine_a = EvaluationEngine(
                config_a, executor=backend, max_workers=4, chunk_size=1
            )
            engine_b = EvaluationEngine(
                config_b, executor=backend, max_workers=4, chunk_size=1
            )
            plan_a = engine_a.plan_many([EvalRequest(l) for l in layers_a])
            plan_b = engine_b.plan_many([EvalRequest(l) for l in layers_b])
            report = run_plan_groups(
                [(engine_a, [plan_a]), (engine_b, [plan_b])]
            )
            assert [s.to_dict() for s in plan_a.results] == expected_a
            assert [s.to_dict() for s in plan_b.results] == expected_b
            assert report["chunks_pulled"] == 9
        finally:
            backend.close()

    def test_foreign_plan_rejected(self):
        engine_a = EvaluationEngine(sigma_config())
        engine_b = EvaluationEngine(sigma_config())
        plan = engine_a.plan_many([EvalRequest(_layers(1)[0])])
        with pytest.raises(SimulationError):
            run_plan_groups([(engine_b, [plan])])

    def test_serial_runs_inline_as_one_chunk_per_group(self, monkeypatch):
        # Two engine groups, each two conv layers under three mappings:
        # two same-layer groups per engine.
        configs = [maeri_config(), maeri_config(ms_size=64)]
        requests = [
            EvalRequest(
                ConvLayer(f"c{i}", C=2 + i, H=8, W=8, K=4, R=3, S=3),
                ConvMapping(T_R=3, T_S=3, T_K=k),
            )
            for i in range(2)
            for k in (1, 2, 4)
        ]
        expected = [
            [
                EvaluationEngine(config)
                .evaluate(r.layer, r.mapping)
                .to_dict()
                for r in requests
            ]
            for config in configs
        ]

        batch_layers = []
        real_batch = backends_mod.simulate_layer_batch

        def counting_batch(controller, layer, mappings):
            batch_layers.append(layer.name)
            return real_batch(controller, layer, mappings)

        threads_inside = []
        real_chunk = backends_mod.ExecutorBackend.run_chunk

        def watching_chunk(self, engine, items, slot=None):
            threads_inside.append(threading.active_count())
            return real_chunk(self, engine, items, slot)

        monkeypatch.setattr(
            backends_mod, "simulate_layer_batch", counting_batch
        )
        monkeypatch.setattr(
            backends_mod.ExecutorBackend, "run_chunk", watching_chunk
        )
        engines = [
            EvaluationEngine(config, executor="serial") for config in configs
        ]
        plans = [engine.plan_many(requests) for engine in engines]
        before = threading.active_count()
        report = run_plan_groups(
            [(engine, [plan]) for engine, plan in zip(engines, plans)]
        )

        assert threads_inside == [before, before]  # no puller threads
        assert report["chunks_pulled"] == 2
        assert report["steals"] == 0
        assert batch_layers == ["c0", "c1", "c0", "c1"]
        for plan, want in zip(plans, expected):
            assert [s.to_dict() for s in plan.results] == want

    def test_slow_worker_gets_its_tail_stolen(self, monkeypatch):
        real = backends_mod.simulate_layer

        def slow_fc0(controller, layer, mapping, functional):
            if layer.name == "fc0":
                time.sleep(0.3)
            return real(controller, layer, mapping, functional)

        layers = _layers(8)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        monkeypatch.setattr(backends_mod, "simulate_layer", slow_fc0)
        engine = EvaluationEngine(
            config, executor="thread", max_workers=2, chunk_size=1
        )
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])])
        # While one slot holds fc0 for 0.3 s the other drains the rest,
        # including chunks whose home was the busy slot.
        assert report["steals"] >= 1
        assert [s.to_dict() for s in plan.results] == expected
        # Pulled results merge into the cache: re-evaluating is all hits.
        assert engine.num_simulations == 8
        engine.evaluate_many([EvalRequest(l) for l in layers])
        assert engine.num_simulations == 8

    def test_error_isolation_matches_run_plans(self, monkeypatch):
        real = backends_mod.simulate_layer

        def failing_fc3(controller, layer, mapping, functional):
            if layer.name == "fc3":
                raise ValueError("injected failure")
            return real(controller, layer, mapping, functional)

        layers = _layers(6)
        monkeypatch.setattr(backends_mod, "simulate_layer", failing_fc3)
        engine = EvaluationEngine(
            sigma_config(), executor="thread", max_workers=2, chunk_size=1
        )
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])], return_errors=True)
        assert report["chunks_pulled"] == 6
        assert isinstance(plan.results[3], ValueError)
        assert all(
            not isinstance(result, Exception)
            for i, result in enumerate(plan.results) if i != 3
        )
        # Without return_errors the first error propagates.
        engine_b = EvaluationEngine(
            sigma_config(), executor="thread", max_workers=2, chunk_size=1
        )
        plan_b = engine_b.plan_many([EvalRequest(l) for l in layers])
        with pytest.raises(ValueError, match="injected failure"):
            run_plan_groups([(engine_b, [plan_b])])

    def test_engine_backed_ga_tune_is_bit_identical(self, small_fc):
        config = sigma_config()
        serial_engine = EvaluationEngine(config)
        serial_task = MaeriFcTask(
            small_fc, config, objective="cycles", engine=serial_engine
        )
        baseline = GATuner(serial_task, seed=3).tune(n_trials=32)

        pull_engine = EvaluationEngine(
            config, executor="thread", max_workers=2
        )
        pull_task = MaeriFcTask(
            small_fc, config, objective="cycles", engine=pull_engine
        )
        result = GATuner(pull_task, seed=3).tune(n_trials=32)
        assert result.best_cost == baseline.best_cost
        assert result.best_config == baseline.best_config
        assert [t.cost for t in result.records.trials] == [
            t.cost for t in baseline.records.trials
        ]


def _serial_stats(config, layers):
    engine = EvaluationEngine(config)
    return [s.to_dict() for s in engine.evaluate_many(
        [EvalRequest(l) for l in layers]
    )]


def _auto_groups(backend):
    """Three engine groups on ``backend``: 5 misses, one past
    MAX_CHUNK_ITEMS (which a pool would split), and one whose layers are
    all cache hits."""
    configs = [sigma_config(), sigma_config(ms_size=64), sigma_config(ms_size=32)]
    layer_sets = [
        _layers(5), _layers(MAX_CHUNK_ITEMS + 1, width=16), _layers(3),
    ]
    engines = [EvaluationEngine(c, executor=backend) for c in configs]
    # Warm the last group's cache through a serial engine, so that this
    # group has no pending work and ``backend`` observes no warm-up chunk.
    warm = EvaluationEngine(configs[2], cache=engines[2].cache)
    for layer in layer_sets[2]:
        warm.evaluate(layer)
    plans = [
        engine.plan_many([EvalRequest(l) for l in layers])
        for engine, layers in zip(engines, layer_sets)
    ]
    expected = [_serial_stats(c, l) for c, l in zip(configs, layer_sets)]
    return [(e, [p]) for e, p in zip(engines, plans)], plans, expected


def _new_children(before):
    return [
        p for p in multiprocessing.active_children() if p.pid not in before
    ]


class TestHostLocalPoolsRunInline:
    """Under automatic chunking, a host-local pool runs every engine
    group as one chunk on the caller's thread, like a one-slot backend."""

    def test_process_groups_never_reach_a_worker(self, monkeypatch):
        sent = []
        real = ProcessBackend.run_chunk

        def watching(self, engine, items, slot=None):
            sent.append(len(items))
            return real(self, engine, items, slot)

        monkeypatch.setattr(ProcessBackend, "run_chunk", watching)
        before = {p.pid for p in multiprocessing.active_children()}
        backend = ProcessBackend(max_workers=2)
        try:
            groups, plans, expected = _auto_groups(backend)
            report = run_plan_groups(groups)
            for plan, want in zip(plans, expected):
                assert [s.to_dict() for s in plan.results] == want
            assert report["chunks_pulled"] == 2  # the two non-empty groups
            assert report["steals"] == 0
            assert backend._workers == []
            assert _new_children(before) == []
            assert sent == []  # no chunk went down a pipe
        finally:
            backend.close()

    def test_thread_groups_start_no_puller(self, monkeypatch):
        backend = ThreadBackend(max_workers=2)
        groups, plans, expected = _auto_groups(backend)
        chunks_seen = []
        real_chunk = backends_mod.ExecutorBackend.run_chunk

        def watching_chunk(self, engine, items, slot=None):
            chunks_seen.append((len(items), threading.active_count()))
            return real_chunk(self, engine, items, slot)

        monkeypatch.setattr(
            backends_mod.ExecutorBackend, "run_chunk", watching_chunk
        )
        before = threading.active_count()
        report = run_plan_groups(groups)
        for plan, want in zip(plans, expected):
            assert [s.to_dict() for s in plan.results] == want
        # One whole-group chunk each, with no extra thread alive.
        assert chunks_seen == [(5, before), (MAX_CHUNK_ITEMS + 1, before)]
        assert report["chunks_pulled"] == 2
        assert report["steals"] == 0

    def test_inline_chunks_are_observed_like_pulled_ones(self):
        backend = ThreadBackend(max_workers=2)
        groups, _plans, _expected = _auto_groups(backend)
        clock = FakeClock()

        def ticking():
            clock.advance(1.0)  # any wait in a pull would count as idle
            return clock()

        TRACER.enable()
        try:
            report = run_plan_groups(groups, clock=ticking)
            spans = [s for s in TRACER.spans() if s["cat"] == "scheduler"]
        finally:
            TRACER.disable()
            TRACER.clear()
        chunks = [s for s in spans if s["name"] != "scheduler.pull"]
        assert [s["name"] for s in chunks] == ["scheduler.chunk"] * 2
        assert {s["lane"] for s in chunks} == {threading.current_thread().name}
        registry = backend.metrics
        assert registry.get("scheduler.chunk_latency_s").count == 2
        assert backend_counters(backend)["chunks_pulled"] == 2
        # The caller is the only slot and never waits on itself.
        assert report["idle_time_s"] == 0.0

    def test_explicit_chunk_size_keeps_every_group_pooled(self):
        layers = _layers(6)
        config = sigma_config()
        backend = ProcessBackend(max_workers=2)
        engine = EvaluationEngine(config, executor=backend)
        try:
            plan = engine.plan_many([EvalRequest(l) for l in layers])
            report = run_plan_groups([(engine, [plan])], chunk_size=1)
            assert len(backend._workers) == 2
        finally:
            backend.close()
        assert report["chunks_pulled"] == 6
        assert [s.to_dict() for s in plan.results] == _serial_stats(
            config, layers
        )


class _DuckCache:
    """A minimal cache that returns its *stored* records (no copies) —
    the sharing-hostile shape the engine must tolerate."""

    def __init__(self) -> None:
        self.store = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        record = self.store.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def get_many(self, keys):
        return [self.get(key) for key in keys]

    def put(self, key, stats) -> None:
        self.store[key] = stats

    def put_many(self, items) -> None:
        for key, stats in items:
            self.put(key, stats)

    def __contains__(self, key) -> bool:
        return key in self.store


class TestPlanManyAliasing:
    def test_plan_hit_never_renames_the_stored_record(self):
        cache = _DuckCache()
        engine = EvaluationEngine(sigma_config(), cache=cache)
        first = FcLayer("first", in_features=16, out_features=8)
        engine.evaluate(first)
        key = evaluation_key(engine.fingerprint, first, None)
        assert cache.store[key].layer_name == "first"
        # A cache hit under another name must be attributed on a copy,
        # not by renaming the cache's own record in place.
        renamed = FcLayer("renamed", in_features=16, out_features=8)
        plan = engine.plan_many([EvalRequest(renamed)])
        assert plan.num_pending == 0
        assert plan.results[0].layer_name == "renamed"
        assert cache.store[key].layer_name == "first"

    def test_evaluate_hit_never_renames_the_stored_record(self):
        cache = _DuckCache()
        engine = EvaluationEngine(sigma_config(), cache=cache)
        first = FcLayer("first", in_features=16, out_features=8)
        engine.evaluate(first)
        key = evaluation_key(engine.fingerprint, first, None)
        hit = engine.evaluate(FcLayer("renamed", in_features=16, out_features=8))
        assert hit.layer_name == "renamed"
        assert cache.store[key].layer_name == "first"
