"""Tests for the distributed sweep subsystem (repro.fleet).

Covers the acceptance surface of the fleet tier: wire-protocol framing
(including truncated and oversized frames), worker daemon behaviour
over real localhost sockets, remote-vs-serial stats parity, crash
retry, and serial fallback.
"""

import json
import socket
import struct
import threading

import pytest

from repro.engine import EvalRequest, EvaluationEngine, StatsCache, evaluation_key
from repro.errors import MappingError
from repro.fleet import protocol
from repro.fleet.remote_backend import RemoteBackend
from repro.fleet.worker import FleetWorker, parse_address, start_worker
from repro.stonne.config import maeri_config, tpu_config
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping

CONFIG = maeri_config()


def _conv(i=0, **kwargs):
    return ConvLayer(f"conv{i}", C=8, H=12, W=12, K=8, R=3, S=3, **kwargs)


def _requests(n=6):
    mappings = [
        ConvMapping(T_R=3, T_S=3),
        ConvMapping(T_K=2),
        ConvMapping(T_C=2),
        ConvMapping(),
        ConvMapping(T_R=3),
        ConvMapping(T_S=3, T_K=4),
    ]
    return [
        EvalRequest(_conv(i), mappings[i % len(mappings)]) for i in range(n)
    ]


def _stats_dicts(stats_list):
    return [s.to_dict() for s in stats_list]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        message = {"type": "ping", "nested": {"a": [1, 2, {"b": None}]}}
        decoded, rest = protocol.decode_frame(protocol.encode_frame(message))
        assert decoded == message
        assert rest == b""

    def test_round_trip_leaves_following_bytes(self):
        frame = protocol.encode_frame({"type": "ping"})
        decoded, rest = protocol.decode_frame(frame + b"tail")
        assert decoded == {"type": "ping"}
        assert rest == b"tail"

    def test_truncated_prefix_raises(self):
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.decode_frame(b"\x00\x00")

    def test_truncated_payload_raises(self):
        frame = protocol.encode_frame({"type": "ping"})
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.decode_frame(frame[:-1])

    def test_oversized_length_prefix_raises(self):
        bogus = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_frame(bogus + b"x")

    def test_oversized_message_refused_on_encode(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_job_result_frame_decodes_like_an_encoded_message(
        self, monkeypatch
    ):
        job = {"id": "job-0001", "state": "done", "archive": None}
        report = {"kind": "sweep", "scenarios": [], "counters": {"n": 1}}
        archived = (json.dumps(report, sort_keys=True) + "\n").encode()
        decoded, rest = protocol.decode_frame(
            protocol.job_result_frame(job, archived)
        )
        assert rest == b""
        assert decoded == {"type": "job_result", "job": job, "report": report}
        # The spliced frame passes the same size check as any other.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", len(archived))
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.job_result_frame(job, archived)

    def test_non_json_payload_raises(self):
        frame = struct.pack(">I", 4) + b"{{{{"
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_frame(frame)

    def test_non_object_payload_raises(self):
        frame = struct.pack(">I", 2) + b"42"
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode_frame(frame)


class TestStructuralWire:
    @pytest.mark.parametrize(
        "layer",
        [
            _conv(pad_h=1, stride_w=2, N=3),
            FcLayer("fc", in_features=64, out_features=16, batch=2),
            GemmLayer("g", M=4, K=8, N=16),
        ],
    )
    def test_layer_round_trip(self, layer):
        assert protocol.layer_from_wire(protocol.layer_to_wire(layer)) == layer

    @pytest.mark.parametrize(
        "mapping",
        [None, ConvMapping(T_R=3, T_K=2), FcMapping(T_S=4, T_K=8)],
    )
    def test_mapping_round_trip(self, mapping):
        wire = protocol.mapping_to_wire(mapping)
        assert protocol.mapping_from_wire(wire) == mapping

    def test_malformed_layer_raises(self):
        with pytest.raises(protocol.ProtocolError, match="malformed"):
            protocol.layer_from_wire({"kind": "NoSuchLayer", "fields": {}})

    def test_known_exception_round_trips_by_name(self):
        entry = {"error": "tile too big", "error_type": "MappingError"}
        exc = protocol.exception_from_wire(entry)
        assert isinstance(exc, MappingError)
        assert "tile too big" in str(exc)

    def test_unknown_exception_degrades_to_simulation_error(self):
        from repro.errors import SimulationError

        exc = protocol.exception_from_wire(
            {"error": "boom", "error_type": "SomethingForeign"}
        )
        assert isinstance(exc, SimulationError)

    def test_engine_from_spec_verifies_fingerprint(self):
        engine = EvaluationEngine(CONFIG)
        spec = protocol.engine_spec(engine)
        rebuilt = protocol.engine_from_spec(spec, None)
        assert type(rebuilt.controller) is type(engine.controller)
        assert rebuilt.functional is False
        spec["fingerprint"] = "deadbeef"
        with pytest.raises(protocol.ProtocolError, match="fingerprint"):
            protocol.engine_from_spec(spec, None)


def test_parse_address():
    assert parse_address("host:1234") == ("host", 1234)
    assert parse_address(":1234") == ("127.0.0.1", 1234)
    assert parse_address("host", default_port=7) == ("host", 7)
    with pytest.raises(protocol.ProtocolError, match="HOST:PORT"):
        parse_address("host:notaport")


# ----------------------------------------------------------------------
# worker daemon + remote backend over localhost sockets
# ----------------------------------------------------------------------
@pytest.fixture
def worker():
    server, _ = start_worker()
    yield server
    server.close()


class TestWorkerDaemon:
    def test_hello_capabilities_and_ping(self, worker):
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            hello = protocol.recv_message(sock)
            assert hello["type"] == "hello"
            assert hello["version"] == protocol.PROTOCOL_VERSION
            assert "MAERI_DENSE_WORKLOAD" in hello["capabilities"]
            protocol.send_message(sock, {"type": "ping"})
            assert protocol.recv_message(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_unknown_message_type_gets_error(self, worker):
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            protocol.recv_message(sock)  # hello
            protocol.send_message(sock, {"type": "transmogrify"})
            response = protocol.recv_message(sock)
            assert response["type"] == "error"
            assert "transmogrify" in response["error"]
        finally:
            sock.close()

    def test_bad_spec_is_batch_fatal_error(self, worker):
        engine = EvaluationEngine(CONFIG)
        spec = protocol.engine_spec(engine)
        spec["fingerprint"] = "deadbeef"
        message = protocol.evaluate_batch_message(
            spec, [(0, _conv(), ConvMapping())]
        )
        sock = socket.create_connection((worker.host, worker.port), timeout=5)
        try:
            protocol.recv_message(sock)  # hello
            protocol.send_message(sock, message)
            response = protocol.recv_message(sock)
            assert response["type"] == "error"
            assert "fingerprint" in response["error"]
        finally:
            sock.close()

    def test_worker_local_cache_serves_repeats(self):
        cache = StatsCache()
        server, _ = start_worker(cache=cache)
        try:
            engine = EvaluationEngine(CONFIG, cache_enabled=False)
            backend = RemoteBackend(workers=[server.address])
            key = ("shared-key",)
            items = [(key, EvalRequest(_conv(), ConvMapping(T_R=3)))]
            first = backend.run_chunk(engine, items)
            second = backend.run_chunk(engine, items)
            assert first[0][1].to_dict() == second[0][1].to_dict()
            assert cache.hits == 1  # the second batch hit the worker cache
            backend.close()
        finally:
            server.close()

    def test_worker_writes_each_batch_to_its_cache_at_once(self):
        class RecordingCache(StatsCache):
            def __init__(self):
                super().__init__()
                self.batches = []

            def put_many(self, items):
                items = list(items)
                self.batches.append([key for key, _ in items])
                super().put_many(items)

        cache = RecordingCache()
        server, _ = start_worker(cache=cache)
        try:
            engine = EvaluationEngine(CONFIG, cache_enabled=False)
            backend = RemoteBackend(workers=[server.address])
            items = [
                (("k0",), EvalRequest(_conv(0), ConvMapping(T_R=3))),
                (("bad",), EvalRequest(_conv(1), ConvMapping(T_K=512))),
                (("k2",), EvalRequest(_conv(2), ConvMapping(T_K=2))),
            ]
            results = backend.run_chunk(engine, items)
            backend.close()
        finally:
            server.close()
        # Result keys are the client's own; the worker keys its cache
        # itself, by the structural evaluation key.
        assert [key for key, _ in results] == [("k0",), ("bad",), ("k2",)]
        assert isinstance(results[1][1], MappingError)
        fingerprint = engine.fingerprint
        key0 = evaluation_key(fingerprint, _conv(0), ConvMapping(T_R=3))
        key2 = evaluation_key(fingerprint, _conv(2), ConvMapping(T_K=2))
        assert cache.batches == [[key0, key2]]
        assert cache.get(key0).to_dict() == results[0][1].to_dict()

    def test_shipped_keys_never_reach_the_worker_cache(self):
        """A client cannot write a key of its choosing into the worker's
        (possibly shared) cache: keys sent on the wire are ignored."""
        cache = StatsCache()
        server, _ = start_worker(cache=cache)
        engine = EvaluationEngine(CONFIG)
        pairs = [(_conv(0), ConvMapping(T_R=3)), (_conv(1), ConvMapping(T_K=2))]
        message = {
            "type": "evaluate_batch",
            "version": protocol.PROTOCOL_VERSION,
            "spec": protocol.engine_spec(engine),
            "items": [
                {
                    "pos": pos,
                    "key": ["bogus", pos],
                    "layer": protocol.layer_to_wire(layer),
                    "mapping": protocol.mapping_to_wire(mapping),
                }
                for pos, (layer, mapping) in enumerate(pairs)
            ],
        }
        sock = socket.create_connection((server.host, server.port), timeout=5)
        try:
            protocol.recv_message(sock)  # hello
            protocol.send_message(sock, message)
            response = protocol.recv_message(sock)
        finally:
            sock.close()
            server.close()
        assert response["type"] == "results"
        assert [entry["pos"] for entry in response["items"]] == [0, 1]
        assert all("stats" in entry for entry in response["items"])
        expected = {
            evaluation_key(engine.fingerprint, layer, mapping)
            for layer, mapping in pairs
        }
        assert set(cache._records) == expected

    def test_functional_batch_runs_the_datapath_after_a_plain_one(
        self, worker, monkeypatch
    ):
        """Engines are per (fingerprint, functional): a worker that first
        served a spec without the datapath still runs it when a later
        batch of the same fingerprint asks for it."""
        from repro.topi import conv2d

        calls = []
        real = conv2d.conv2d_nchw

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(conv2d, "conv2d_nchw", spy)
        request = EvalRequest(_conv(), ConvMapping(T_R=3))
        for functional in (False, True):
            backend = RemoteBackend(workers=[worker.address])
            engine = EvaluationEngine(
                CONFIG, functional=functional, executor=backend
            )
            assert engine.evaluate_many([request])[0].cycles > 0
            assert backend.fallback_batches == 0
            engine.close()
        assert worker.items_served == 2
        layer = request.layer
        assert calls == [(layer.N, layer.C, layer.H, layer.W)]


def _hold_first_batches(workers, timeout=10.0):
    """Make each worker's first batch wait until every worker has
    received one, so one fast worker cannot drain the whole queue."""
    arrived = [threading.Event() for _ in workers]
    for index, worker in enumerate(workers):
        def execute_batch(message, index=index, original=worker.execute_batch):
            arrived[index].set()
            for event in arrived:
                event.wait(timeout)
            return original(message)

        worker.execute_batch = execute_batch


class TestRemoteParity:
    def test_remote_matches_serial_bit_for_bit(self):
        w1, _ = start_worker()
        w2, _ = start_worker()
        _hold_first_batches([w1, w2])
        try:
            requests = _requests()
            remote_engine = EvaluationEngine(
                CONFIG,
                cache=StatsCache(),
                executor=RemoteBackend(workers=[w1.address, w2.address]),
            )
            serial_engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor="serial"
            )
            remote = remote_engine.evaluate_many(requests)
            serial = serial_engine.evaluate_many(requests)
            assert _stats_dicts(remote) == _stats_dicts(serial)
            # Both workers actually participated (round-robin sharding).
            assert w1.items_served and w2.items_served
            assert w1.items_served + w2.items_served == len(requests)
            remote_engine.close()
            serial_engine.close()
        finally:
            w1.close()
            w2.close()

    def test_single_evaluates_spread_across_the_fleet(self):
        """A one-chunk batch runs on the first pull slot; the slot list
        rotates per call, so single evaluations reach every worker."""
        w1, _ = start_worker()
        w2, _ = start_worker()
        try:
            backend = RemoteBackend(workers=[w1.address, w2.address])
            engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
            for request in _requests(4):
                assert engine.evaluate(request.layer, request.mapping).cycles > 0
            assert backend.fallback_batches == 0
            engine.close()
        finally:
            w1.close()
            w2.close()
        assert w1.items_served > 0 and w2.items_served > 0
        assert w1.items_served + w2.items_served == 4

    def test_concurrent_clients_share_one_engine(self):
        """Handler threads share the worker's engine and cache: results
        stay bit-identical and no served item goes uncounted."""
        import sys

        cache = StatsCache()
        server, _ = start_worker(cache=cache)
        requests = _requests()
        expected = _stats_dicts(
            EvaluationEngine(CONFIG, executor="serial").evaluate_many(requests)
        )
        clients = 6
        results, errors = {}, []

        def client(index):
            try:
                engine = EvaluationEngine(
                    CONFIG, cache=StatsCache(),
                    executor=RemoteBackend(workers=[server.address]),
                )
                results[index] = _stats_dicts(engine.evaluate_many(requests))
                engine.close()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert errors == []
        assert [results[index] for index in range(clients)] == (
            [expected] * clients
        )
        assert server.batches_served == clients
        assert server.items_served == clients * len(requests)
        assert len(server._engines) == 1

    def test_remote_parity_on_gemm_architecture(self):
        """Mapping-free architectures (TPU) travel the wire too."""
        config = tpu_config()
        server, _ = start_worker()
        try:
            requests = [
                EvalRequest(GemmLayer(f"g{i}", M=8, K=16, N=4 + i))
                for i in range(4)
            ]
            remote_engine = EvaluationEngine(
                config, executor=RemoteBackend(workers=[server.address])
            )
            serial_engine = EvaluationEngine(config, executor="serial")
            assert _stats_dicts(remote_engine.evaluate_many(requests)) == (
                _stats_dicts(serial_engine.evaluate_many(requests))
            )
            remote_engine.close()
        finally:
            server.close()

    def test_per_item_mapping_error_round_trips(self):
        server, _ = start_worker()
        try:
            engine = EvaluationEngine(
                CONFIG,
                cache=StatsCache(),
                executor=RemoteBackend(workers=[server.address]),
            )
            good = EvalRequest(_conv(), ConvMapping(T_R=3))
            bad = EvalRequest(_conv(), ConvMapping(T_K=512))  # 512*1 > 128 MS
            results = engine.evaluate_many([good, bad], return_errors=True)
            assert results[0].cycles > 0
            assert isinstance(results[1], MappingError)
            engine.close()
        finally:
            server.close()


class _VanishingServer:
    """A rogue peer: speaks hello, then drops the connection mid-batch."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                try:
                    protocol.send_message(
                        conn, protocol.hello_message([], pid=0)
                    )
                    protocol.recv_message(conn)  # read the batch...
                except (OSError, protocol.ProtocolError):
                    pass
                # ...and vanish without answering: a crash mid-batch.

    def close(self):
        self._listener.close()


class _DroppingServer(_VanishingServer):
    """A rogue peer: answers every batch with a results frame that holds
    no items, so every item it was sent is dropped."""

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                try:
                    protocol.send_message(
                        conn, protocol.hello_message([], pid=0)
                    )
                    while True:
                        message = protocol.recv_message(conn)
                        if message is None or message.get("type") == "bye":
                            break
                        protocol.send_message(
                            conn, {"type": "results", "items": []}
                        )
                except (OSError, protocol.ProtocolError):
                    pass


def _count_batch_calls(monkeypatch):
    """Record the mapping count of every ``simulate_layer_batch`` call."""
    import repro.engine.backends as backends_mod

    calls = []
    real = backends_mod.simulate_layer_batch

    def counting(controller, layer, mappings):
        calls.append(len(mappings))
        return real(controller, layer, mappings)

    monkeypatch.setattr(backends_mod, "simulate_layer_batch", counting)
    return calls


_SAME_LAYER = [
    EvalRequest(_conv(), mapping)
    for mapping in (ConvMapping(T_R=3), ConvMapping(T_K=2), ConvMapping(T_C=2))
]


class TestFailover:
    def test_crash_mid_batch_retries_on_survivor(self):
        rogue = _VanishingServer()
        survivor, _ = start_worker()
        try:
            backend = RemoteBackend(workers=[rogue.address, survivor.address])
            engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor=backend
            )
            serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
            requests = _requests()
            assert _stats_dicts(engine.evaluate_many(requests)) == (
                _stats_dicts(serial.evaluate_many(requests))
            )
            assert backend.retried_shards >= 1
            assert backend.fallback_batches == 0
            engine.close()
        finally:
            rogue.close()
            survivor.close()

    def test_unreachable_fleet_falls_back_to_serial(self):
        backend = RemoteBackend(workers=["127.0.0.1:1"])
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
        requests = _requests(3)
        assert _stats_dicts(engine.evaluate_many(requests)) == (
            _stats_dicts(serial.evaluate_many(requests))
        )
        assert backend.fallback_batches >= 1
        engine.close()

    def test_no_workers_configured_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_WORKERS", raising=False)
        backend = RemoteBackend()
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        results = engine.evaluate_many(_requests(2))
        assert all(r.cycles > 0 for r in results)
        assert backend.fallback_batches == 1
        engine.close()

    def test_single_evaluate_falls_back_to_serial(self):
        backend = RemoteBackend(workers=["127.0.0.1:1"])
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
        layer, mapping = _conv(), ConvMapping(T_R=3, T_S=3)
        assert engine.evaluate(layer, mapping) == serial.evaluate(layer, mapping)
        assert backend.fallback_batches == 1
        engine.close()

    def test_fallback_chunk_batches_a_repeated_layer(self, monkeypatch):
        serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
        expected = _stats_dicts(serial.evaluate_many(_SAME_LAYER))
        calls = _count_batch_calls(monkeypatch)
        backend = RemoteBackend(workers=["127.0.0.1:1"])
        engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=backend)
        assert _stats_dicts(engine.evaluate_many(_SAME_LAYER)) == expected
        assert calls == [len(_SAME_LAYER)]  # one batch-kernel call
        assert backend.fallback_batches == 1
        engine.close()

    def test_dropped_items_run_inline_as_one_chunk(self, monkeypatch):
        serial = EvaluationEngine(CONFIG, cache=StatsCache(), executor="serial")
        expected = _stats_dicts(serial.evaluate_many(_SAME_LAYER))
        calls = _count_batch_calls(monkeypatch)
        rogue = _DroppingServer()
        try:
            backend = RemoteBackend(workers=[rogue.address])
            engine = EvaluationEngine(
                CONFIG, cache=StatsCache(), executor=backend
            )
            assert _stats_dicts(engine.evaluate_many(_SAME_LAYER)) == expected
            assert calls == [len(_SAME_LAYER)]
            # The worker answered, so this is no whole-shard fallback.
            assert backend.fallback_batches == 0
            engine.close()
        finally:
            rogue.close()


class TestRegistryAndSession:
    def test_remote_is_registered(self):
        from repro.engine import registered_backends

        assert "remote" in registered_backends()

    def test_make_backend_resolves_remote(self):
        from repro.engine import make_backend

        backend = make_backend("remote")
        assert isinstance(backend, RemoteBackend)

    def test_env_var_configures_workers(self, monkeypatch, worker):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", worker.address)
        backend = RemoteBackend()
        assert backend.ping() == {worker.address: True}
        backend.close()

    def test_make_session_with_workers_uses_remote_backend(self, worker):
        from repro.session import Session

        with Session(simulator_config=CONFIG, workers=[worker.address]) as s:
            assert isinstance(s.engine.backend, RemoteBackend)
            layer = _conv()
            stats = s.engine.evaluate_many([EvalRequest(layer, ConvMapping())])
        assert stats[0].cycles > 0
        assert worker.items_served == 1

    def test_graph_run_is_served_by_the_fleet(self, worker):
        """Single evaluations (one per offloaded layer) travel the wire."""
        import numpy as np

        from repro.models import lenet_graph
        from repro.session import Session

        feeds = {"data": np.random.default_rng(0).standard_normal((1, 1, 28, 28))}
        with Session(arch="maeri", mapping="mrna") as s:
            serial = s.run_graph(lenet_graph(), feeds)
        with Session(
            arch="maeri", mapping="mrna", executor="remote",
            workers=[worker.address],
        ) as s:
            remote = s.run_graph(lenet_graph(), feeds)
            counters = s.engine.backend.metrics.counters_with_prefix(
                "fleet.shards."
            )
            assert s.engine.backend.fallback_batches == 0
        assert counters.get(worker.address, 0) > 0
        assert [st.cycles for st in remote.layer_stats] == [
            st.cycles for st in serial.layer_stats
        ]
        assert len(remote.layer_stats) == 5

    def test_tuned_best_cost_remote_equals_serial(self, worker):
        """The acceptance criterion: a GA tune through the remote backend
        lands on the identical best config and cost as serial."""
        from repro.tuner import GATuner, MaeriConvTask

        layer = ConvLayer("t.conv", C=16, H=14, W=14, K=16, R=3, S=3)

        def tune(executor):
            engine = EvaluationEngine(CONFIG, cache=StatsCache(), executor=executor)
            task = MaeriConvTask(layer, CONFIG, objective="cycles", engine=engine)
            result = GATuner(task, seed=0).tune(n_trials=40)
            engine.close()
            return result.best_cost, task.best_mapping(result.best_config).as_tuple()

        serial_best = tune("serial")
        remote_best = tune(RemoteBackend(workers=[worker.address]))
        assert remote_best == serial_best


class TestFleetAutostart:
    """`fleet.autostart = N`: session-scoped worker daemon lifecycle."""

    def test_session_spawns_uses_and_reaps_workers(self, tmp_path):
        import os

        from repro.session import Session

        with Session(
            fleet_autostart=1, cache_path=str(tmp_path / "fleet.sqlite"),
        ) as session:
            assert session.engine.backend.name == "remote"
            assert len(session.fleet_workers) == 1
            pids = [proc.pid for proc in session._fleet_procs]
            report = session.run("mlp")
            assert report.total_cycles > 0
            # fallback 0 proves the autostarted daemon served the run.
            assert session.engine.backend.fallback_batches == 0
        # The regression guarantee: close() leaves no lingering
        # processes — every daemon is terminated *and* reaped.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_autostart_skipped_for_explicit_local_executor(self):
        from repro.session import Session

        # Spawning daemons nothing would talk to is pure waste: an
        # explicit non-remote executor suppresses autostart.
        with Session(fleet_autostart=2, executor="serial") as session:
            assert session.fleet_workers == []
            assert session.engine.backend.name == "serial"

    def test_autostart_zero_is_default_noop(self):
        from repro.session import Session

        with Session() as session:
            assert session.fleet_workers == []
