"""Tests for executor backends, the persistent stats cache, batched
measurement, and GA determinism after vectorization."""

import json
import multiprocessing
import os
import signal

import pytest

import repro.engine.backends as backends_mod
from repro.engine import (
    EvalRequest,
    EvaluationEngine,
    ExecutorBackend,
    PersistentStatsCache,
    ProcessBackend,
    SerialBackend,
    StatsCache,
    ThreadBackend,
    make_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.engine.backends import simulate_layer
from repro.errors import ConfigError, SimulationError
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping
from repro.stonne.stats import SimulationStats
from repro.tuner.measure import CallableTask, MaeriConvTask
from repro.tuner.space import ConfigSpace
from repro.tuner.tuners.ga import GATuner


def _requests():
    reqs = [
        EvalRequest(
            ConvLayer(f"c{i}", C=2 + i, H=8, W=8, K=4, R=3, S=3),
            ConvMapping(T_R=3),
        )
        for i in range(5)
    ]
    reqs.append(EvalRequest(FcLayer("f", in_features=32, out_features=16)))
    return reqs


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "thread", "process"} <= set(registered_backends())

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", max_workers=2), ThreadBackend)
        assert isinstance(make_backend("process"), ProcessBackend)

    def test_make_backend_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_default_resolution_mirrors_history(self):
        """None -> serial, unless max_workers asks for parallelism."""
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(None, max_workers=1), SerialBackend)
        assert isinstance(make_backend(None, max_workers=4), ThreadBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="no executor backend"):
            make_backend("quantum")

    def test_custom_registration_roundtrip(self):
        @register_backend("test-inline")
        class InlineBackend(SerialBackend):
            pass

        try:
            assert "test-inline" in registered_backends()
            assert isinstance(make_backend("test-inline"), InlineBackend)
        finally:
            unregister_backend("test-inline")
        assert "test-inline" not in registered_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("serial")(ThreadBackend)

    def test_alias_registration_keeps_original_name(self):
        """Registering a built-in under a second name must not corrupt
        the name engines report through counters()."""
        register_backend("process-alias")(ProcessBackend)
        try:
            assert ProcessBackend.name == "process"
            assert isinstance(make_backend("process-alias"), ProcessBackend)
        finally:
            unregister_backend("process-alias")


class TestRunChunkOnlyBackend:
    """A third-party backend needs nothing but ``run_chunk``."""

    @pytest.fixture
    def chunk_only(self):
        chunks = []

        @register_backend("test-chunk-only")
        class ChunkOnlyBackend(ExecutorBackend):
            def run_chunk(self, engine, items, slot=None):
                chunks.append(len(items))
                return [
                    (key, simulate_layer(
                        engine.controller, request.layer, request.mapping,
                        False,
                    ))
                    for key, request in items
                ]

        try:
            yield chunks
        finally:
            unregister_backend("test-chunk-only")

    def test_evaluate_many_matches_serial(self, maeri128, chunk_only):
        reqs = _requests()
        serial = EvaluationEngine(maeri128, executor="serial").evaluate_many(reqs)
        engine = EvaluationEngine(maeri128, executor="test-chunk-only")
        assert engine.evaluate_many(reqs) == serial
        assert chunk_only == [len(reqs)]  # one slot: the batch is one chunk

    def test_session_sweep_matches_serial(self, chunk_only):
        from repro.session import Session
        from repro.sweep import SweepPlan

        with Session(executor="serial") as s:
            serial = s.sweep(SweepPlan.matrix(s.config, models=["mlp", "lenet"]))
        with Session(executor="test-chunk-only") as s:
            custom = s.sweep(SweepPlan.matrix(s.config, models=["mlp", "lenet"]))
        assert chunk_only
        assert serial.names == custom.names
        for name in serial.names:
            assert [st.to_dict() for st in custom[name].layer_stats] == [
                st.to_dict() for st in serial[name].layer_stats
            ]


class TestBackendParity:
    """Identical stats regardless of how the batch is executed."""

    def test_serial_thread_process_agree(self, maeri128):
        reqs = _requests()
        serial = EvaluationEngine(maeri128, executor="serial").evaluate_many(reqs)
        thread_engine = EvaluationEngine(
            maeri128, executor="thread", max_workers=4
        )
        process_engine = EvaluationEngine(
            maeri128, executor="process", max_workers=2
        )
        try:
            assert thread_engine.evaluate_many(reqs) == serial
            assert process_engine.evaluate_many(reqs) == serial
        finally:
            thread_engine.close()
            process_engine.close()

    def test_process_backend_counts_simulations(self, maeri128):
        engine = EvaluationEngine(maeri128, executor="process", max_workers=2)
        try:
            reqs = _requests()
            engine.evaluate_many(reqs)
            assert engine.num_simulations == len(reqs)
            # A second pass is served entirely from the parent cache.
            engine.evaluate_many(reqs)
            assert engine.num_simulations == len(reqs)
            assert engine.cache.hits == len(reqs)
        finally:
            engine.close()

    def test_process_backend_gemm(self):
        engine = EvaluationEngine(
            sigma_config(), executor="process", max_workers=2
        )
        try:
            serial = EvaluationEngine(sigma_config())
            layers = [GemmLayer(f"g{i}", M=4 + i, K=16, N=4) for i in range(4)]
            assert engine.evaluate_many(layers) == serial.evaluate_many(layers)
        finally:
            engine.close()

    def test_batch_duplicates_simulate_once(self, maeri128):
        engine = EvaluationEngine(maeri128)
        layer = FcLayer("dup", in_features=32, out_features=16)
        results = engine.evaluate_many([layer, layer, layer])
        assert engine.num_simulations == 1
        assert results[0] == results[1] == results[2]

    def test_duplicates_survive_immediate_eviction(self, maeri128):
        """A cache bound smaller than the batch's distinct misses must not
        break duplicate resolution (the key may already be evicted)."""
        engine = EvaluationEngine(maeri128, cache=StatsCache(max_entries=1))
        a = FcLayer("a", in_features=16, out_features=8)
        b = FcLayer("b", in_features=24, out_features=8)
        results = engine.evaluate_many([a, b, a])
        assert results[0] == results[2]
        assert results[0].layer_name == "a"
        assert engine.num_simulations == 2

    def test_per_item_errors_do_not_poison_batch(self, maeri128):
        from repro.errors import MappingError

        engine = EvaluationEngine(maeri128)
        good = ConvLayer("good", C=2, H=8, W=8, K=4, R=3, S=3)
        bad_mapping = ConvMapping(T_R=128, T_S=128)  # cannot fit 128 PEs
        outcomes = engine.evaluate_many(
            [
                EvalRequest(good, ConvMapping(T_R=3)),
                EvalRequest(good, bad_mapping),
            ],
            return_errors=True,
        )
        assert isinstance(outcomes[0], SimulationStats)
        assert isinstance(outcomes[1], MappingError)

    def test_errors_raise_by_default(self, maeri128):
        from repro.errors import MappingError

        engine = EvaluationEngine(maeri128)
        good = ConvLayer("good", C=2, H=8, W=8, K=4, R=3, S=3)
        with pytest.raises(MappingError):
            engine.evaluate_many(
                [EvalRequest(good, ConvMapping(T_R=128, T_S=128))]
            )

    def test_run_layers_executor_override(self, maeri128):
        from repro.bifrost.runner import make_session, run_layers

        layers = [
            ConvLayer(f"c{i}", C=2, H=8, W=8, K=4, R=3, S=3) for i in range(3)
        ]
        baseline = run_layers(layers, make_session(maeri128))
        session = make_session(maeri128)
        threaded = run_layers(layers, session, executor="thread")
        assert baseline == threaded
        # The override backend is cached on the engine (one pool across
        # calls) and released by close().
        assert session.engine._resolve_backend("thread", None) is (
            session.engine._resolve_backend("thread", None)
        )
        session.engine.close()
        assert session.engine._override_backends == {}


#: Test patches of ``simulate_layer`` reach the workers only by fork
#: inheritance.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit module patches only under fork",
)


def _fc_requests(prefix, count):
    return [
        EvalRequest(
            FcLayer(f"{prefix}{i}", in_features=16 + i, out_features=8)
        )
        for i in range(count)
    ]


def _new_live_children(before):
    return [
        p for p in multiprocessing.active_children()
        if p.pid not in before and p.is_alive()
    ]


class TestProcessWorkers:
    """One worker process per slot on its own pipe; a dead worker costs
    at most the chunk it was running."""

    def test_killed_idle_worker_is_respawned(self, maeri128):
        before = {p.pid for p in multiprocessing.active_children()}
        fresh = _fc_requests("fresh", 6)
        serial = EvaluationEngine(maeri128).evaluate_many(fresh)
        engine = EvaluationEngine(maeri128, executor="process", max_workers=2)
        backend = engine.backend
        try:
            engine.evaluate_many(_requests())
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert engine.evaluate_many(fresh) == serial
            # Slot 0 itself serves again, from a new process.
            item = (None, _fc_requests("again", 1)[0])
            [(_, stats)] = backend.run_chunk(engine, [item], slot=0)
            assert stats == EvaluationEngine(maeri128).evaluate(item[1].layer)
            assert backend._workers[0].process.pid != victim.pid
        finally:
            engine.close()
        assert _new_live_children(before) == []

    @fork_only
    def test_worker_death_fails_only_its_chunk(self, maeri128, monkeypatch):
        real = backends_mod.simulate_layer

        def dies_on_marker(controller, layer, mapping, functional):
            if layer.name == "boom":
                os._exit(3)
            return real(controller, layer, mapping, functional)

        monkeypatch.setattr(backends_mod, "simulate_layer", dies_on_marker)
        before = {p.pid for p in multiprocessing.active_children()}
        reqs = _fc_requests("a", 6)
        reqs[2] = EvalRequest(FcLayer("boom", in_features=64, out_features=8))
        serial = EvaluationEngine(maeri128)
        engine = EvaluationEngine(
            maeri128, executor="process", max_workers=2, chunk_size=2
        )
        try:
            outcomes = engine.evaluate_many(reqs, return_errors=True)
            # Chunks are [a0, a1], [boom, a3], [a4, a5].
            for index in (2, 3):
                assert isinstance(outcomes[index], SimulationError)
                assert "exit code 3" in str(outcomes[index])
                assert "slot" in str(outcomes[index])
            for index in (0, 1, 4, 5):
                assert outcomes[index] == serial.evaluate(reqs[index].layer)
            fresh = _fc_requests("b", 6)
            assert engine.evaluate_many(fresh) == serial.evaluate_many(fresh)
        finally:
            engine.close()
        assert _new_live_children(before) == []

    def test_interrupted_round_trip_never_leaks_its_reply(self, maeri128):
        class InterruptsFirstRecv:
            def __init__(self, conn):
                self.conn = conn
                self.interrupted = False

            def send(self, message):
                self.conn.send(message)

            def recv(self):
                if not self.interrupted:
                    self.interrupted = True
                    raise KeyboardInterrupt
                return self.conn.recv()

            def close(self):
                self.conn.close()

        backend = ProcessBackend(max_workers=2)
        engine = EvaluationEngine(maeri128, executor=backend)
        try:
            backend.pull_slots(engine)
            worker = backend._workers[0]
            worker.conn = InterruptsFirstRecv(worker.conn)
            first, second = _fc_requests("i", 2)
            with pytest.raises(KeyboardInterrupt):
                backend.run_chunk(engine, [(None, first)], slot=0)
            [(_, stats)] = backend.run_chunk(engine, [(None, second)], slot=0)
            assert stats == EvaluationEngine(maeri128).evaluate(second.layer)
        finally:
            backend.close()

    @fork_only
    def test_slot_is_one_process(self, maeri128, monkeypatch):
        real = backends_mod.simulate_layer

        def stamps_pid(controller, layer, mapping, functional):
            stats = real(controller, layer, mapping, functional)
            return stats.clone(layer_name=str(os.getpid()))

        monkeypatch.setattr(backends_mod, "simulate_layer", stamps_pid)
        backend = ProcessBackend(max_workers=2)
        engine = EvaluationEngine(maeri128, executor=backend)
        try:
            assert backend.pull_slots(engine) == [0, 1]

            def pids(slot):
                found = set()
                for request in _fc_requests(f"s{slot}.", 3):
                    [(_, stats)] = backend.run_chunk(
                        engine, [(None, request)], slot=slot
                    )
                    found.add(int(stats.layer_name))
                return found

            slot0, slot1 = pids(0), pids(1)
            assert len(slot0) == 1 and len(slot1) == 1 and slot0 != slot1
            assert slot0 | slot1 == {w.process.pid for w in backend._workers}
        finally:
            backend.close()


class TestPersistentCache:
    def test_round_trip(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        engine = EvaluationEngine(maeri128, cache=PersistentStatsCache(path))
        layer = ConvLayer("c", C=4, H=10, W=10, K=8, R=3, S=3)
        first = engine.evaluate(layer, ConvMapping(T_R=3, T_S=3))
        engine.cache.close()

        reopened = PersistentStatsCache(path)
        assert reopened.warm_entries == 1
        second = EvaluationEngine(maeri128, cache=reopened).evaluate(
            layer, ConvMapping(T_R=3, T_S=3)
        )
        assert second == first
        assert reopened.hits == 1 and reopened.misses == 0

    def test_warm_resume_across_engine_instances(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        reqs = _requests()
        cold_cache = PersistentStatsCache(path)
        cold = EvaluationEngine(maeri128, cache=cold_cache)
        cold_results = cold.evaluate_many(reqs)
        assert cold.num_simulations == len(reqs)
        cold_cache.close()

        warm_cache = PersistentStatsCache(path)
        warm = EvaluationEngine(maeri128, cache=warm_cache)
        warm_results = warm.evaluate_many(reqs)
        assert warm.num_simulations == 0
        assert warm_cache.hit_rate == 1.0
        assert warm_results == cold_results

    def test_no_duplicate_lines_on_reput(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        layer = FcLayer("f", in_features=16, out_features=8)
        cache = PersistentStatsCache(path)
        EvaluationEngine(maeri128, cache=cache).evaluate(layer)
        cache.close()
        cache2 = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache2, cache_enabled=False)
        stats = engine.evaluate(layer)
        from repro.engine import evaluation_key

        cache2.put(
            evaluation_key(engine.fingerprint, layer, None), stats
        )  # same key again
        cache2.close()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1

    def test_corrupt_tail_line_skipped(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache)
        engine.evaluate(FcLayer("f", in_features=16, out_features=8))
        engine.evaluate(FcLayer("g", in_features=24, out_features=8))
        cache.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": ["trunc')  # simulated crash mid-append

        reopened = PersistentStatsCache(path)
        assert reopened.warm_entries == 2

    def test_foreign_scalars_round_trip_exactly(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        key = ("fp", "ConvLayer", (1, 2, None), "ConvMapping", (3, 4))
        stats = SimulationStats(
            layer_name="x", controller="MAERI", cycles=10, psums=5,
            macs=20, iterations=1, multipliers_used=4, array_size=8,
        )
        cache.put(key, stats)
        cache.close()
        reopened = PersistentStatsCache(path)
        assert reopened.get(key) == stats

    def test_clear_truncates_spill(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        EvaluationEngine(maeri128, cache=cache).evaluate(
            FcLayer("f", in_features=16, out_features=8)
        )
        cache.clear()
        cache.close()
        assert PersistentStatsCache(path).warm_entries == 0

    def test_memory_bound_respected_on_load(self, tmp_path, maeri128):
        path = tmp_path / "stats.jsonl"
        cache = PersistentStatsCache(path)
        engine = EvaluationEngine(maeri128, cache=cache)
        for i in range(5):
            engine.evaluate(FcLayer(f"f{i}", in_features=8 + i, out_features=4))
        cache.close()
        bounded = PersistentStatsCache(path, max_entries=2)
        assert bounded.warm_entries == 2
        assert len(bounded) == 2


class TestBatchedMeasurement:
    def test_measure_batch_matches_measure(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        serial_task = MaeriConvTask(layer, maeri128, objective="cycles")
        batched_task = MaeriConvTask(layer, maeri128, objective="cycles")
        indices = list(range(24))
        singles = [
            serial_task.measure(serial_task.space.config_at(i)) for i in indices
        ]
        batched = batched_task.measure_batch(indices)
        assert [r.cost for r in batched] == [r.cost for r in singles]
        assert batched_task.num_measurements == len(indices)

    def test_cost_memo_skips_revisits(self):
        calls = []
        space = ConfigSpace()
        space.define_knob("x", [1, 2, 3, 4])

        def fn(config):
            calls.append(config["x"])
            return float(config["x"])

        task = CallableTask(space, fn)
        first = task.measure_batch([0, 1, 2])
        again = task.measure_batch([0, 1, 2])
        assert [r.cost for r in first] == [r.cost for r in again]
        assert calls == [1, 2, 3]  # revisits never re-evaluate
        assert task.num_measurements == 6  # but are still counted

    def test_memo_covers_invalid_configs(self):
        validity_checks = []
        space = ConfigSpace()
        space.define_knob("x", [1, 2, 3, 4])

        def constraint(config):
            validity_checks.append(config["x"])
            return config["x"] != 2

        space.add_constraint(constraint)
        task = CallableTask(space, lambda c: float(c["x"]))
        task.measure_batch([1, 1, 1])
        from repro.tuner.measure import INVALID_COST

        assert task.measure_batch([1])[0].cost == INVALID_COST
        assert validity_checks.count(2) == 1  # validated exactly once

    def test_tuning_through_process_backend_matches_serial(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        serial = GATuner(
            MaeriConvTask(layer, maeri128, objective="cycles"), seed=7
        ).tune(n_trials=48)
        engine = EvaluationEngine(maeri128, executor="process", max_workers=2)
        try:
            process = GATuner(
                MaeriConvTask(
                    layer, maeri128, objective="cycles", engine=engine
                ),
                seed=7,
            ).tune(n_trials=48)
        finally:
            engine.close()
        assert process.best_cost == serial.best_cost
        assert [t.cost for t in process.records.trials] == [
            t.cost for t in serial.records.trials
        ]


class TestGADeterminism:
    def _task(self, maeri128):
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        return MaeriConvTask(layer, maeri128, objective="psums")

    def test_identical_runs_per_seed(self, maeri128):
        runs = [
            GATuner(self._task(maeri128), seed=11).tune(n_trials=96)
            for _ in range(2)
        ]
        assert runs[0].best_cost == runs[1].best_cost
        assert [t.index for t in runs[0].records.trials] == [
            t.index for t in runs[1].records.trials
        ]

    def test_seeds_differ(self, maeri128):
        a = GATuner(self._task(maeri128), seed=1).tune(n_trials=64)
        b = GATuner(self._task(maeri128), seed=2).tune(n_trials=64)
        assert [t.index for t in a.records.trials] != [
            t.index for t in b.records.trials
        ]


class TestEngineRoutedApi:
    def test_repeated_conv_shapes_skip_cycle_model(self, maeri128, rng):
        from repro.bifrost.runner import make_session

        session = make_session(maeri128)
        data = rng.normal(size=(1, 4, 10, 10))
        weights = rng.normal(size=(8, 4, 3, 3))
        out1 = session.conv2d_nchw(data, weights)
        out2 = session.conv2d_nchw(data, weights)
        assert session.engine.num_simulations == 1  # second call cached
        assert len(session.stats) == 2
        assert session.stats[0].layer_name == "conv2d"
        assert session.stats[1].layer_name == "conv2d#1"
        assert session.stats[0].cycles == session.stats[1].cycles
        # The functional datapath executed both times.
        assert out1 == pytest.approx(out2)

    def test_repeated_dense_shapes_skip_cycle_model(self, maeri128, rng):
        from repro.bifrost.runner import make_session

        session = make_session(maeri128)
        data = rng.normal(size=(1, 32))
        weights = rng.normal(size=(16, 32))
        out1 = session.dense(data, weights)
        session.dense(data, weights)
        assert session.engine.num_simulations == 1
        assert out1 == pytest.approx(data @ weights.T)

    def test_run_graph_bad_executor_fails_before_install(self, maeri128):
        from repro.bifrost.runner import make_session, run_graph
        from repro.bifrost.strategies import active_session
        from repro.models import lenet_graph

        with pytest.raises(ConfigError, match="no executor backend"):
            run_graph(lenet_graph(), {}, make_session(maeri128),
                      executor="bogus")
        # The failure must not leave the session installed process-wide.
        assert active_session() is None

    def test_session_cache_path_persists(self, tmp_path, maeri128, rng):
        from repro.bifrost.runner import make_session

        path = tmp_path / "session.jsonl"
        data = rng.normal(size=(1, 4, 10, 10))
        weights = rng.normal(size=(8, 4, 3, 3))

        cold = make_session(maeri128, cache_path=str(path))
        cold.conv2d_nchw(data, weights)
        assert cold.engine.num_simulations == 1
        cold.engine.cache.close()

        warm = make_session(maeri128, cache_path=str(path))
        warm.conv2d_nchw(data, weights)
        assert warm.engine.num_simulations == 0
        assert warm.engine.cache.hit_rate == 1.0


class TestCliEngineFlags:
    def test_run_with_executor_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        argv = ["run", "lenet", "--executor", "thread",
                "--cache-path", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "stats cache:" in first
        assert path.exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(100.0%)" in second  # warm rerun fully cached

    def test_tune_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tune.jsonl"
        argv = ["tune", "lenet", "fc3", "--tuner", "random", "--trials", "20",
                "--objective", "cycles", "--cache-path", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(100.0%)" in out
