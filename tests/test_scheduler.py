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

import threading
import time

import pytest

import repro.engine.backends as backends_mod
from repro.engine import EvalRequest, EvaluationEngine, evaluation_key
from repro.engine.backends import ThreadBackend
from repro.engine.scheduler import (
    Chunk,
    WorkQueue,
    _auto_chunk_size,
    _interleave,
    backend_counters,
    run_plan_groups,
    zero_counters,
)
from repro.errors import SimulationError
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
        engine = EvaluationEngine(config, executor="thread", max_workers=4)
        plan = engine.plan_many([EvalRequest(l) for l in layers])
        report = run_plan_groups([(engine, [plan])])
        assert [s.to_dict() for s in plan.results] == expected
        # 10 distinct items, auto chunk size 1 -> 10 pulls.
        assert report["chunks_pulled"] == 10
        assert engine.num_simulations == 10
        # The backend accumulated this run's counters.
        assert backend_counters(engine.backend)["chunks_pulled"] == 10

    def test_process_pull_bit_identical_to_serial(self):
        layers = _layers(6)
        config = sigma_config()
        expected = self._serial_reference(config, layers)
        engine = EvaluationEngine(config, executor="process", max_workers=2)
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
                config_a, executor=backend, max_workers=4
            )
            engine_b = EvaluationEngine(
                config_b, executor=backend, max_workers=4
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
            sigma_config(), executor="thread", max_workers=2
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
            sigma_config(), executor="thread", max_workers=2
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

    def put(self, key, stats) -> None:
        self.store[key] = stats

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
