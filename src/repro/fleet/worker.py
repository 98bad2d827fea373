"""The fleet worker daemon: a TCP service that executes simulation batches.

The connection dialogue (hello, optional HMAC auth, request loop, error
frames) is the shared skeleton in :mod:`repro.fleet.daemon`; this module
adds only the worker's own part: the ``evaluate_batch`` verb, its
controller cache and the batch drain on shutdown.  The hello advertises
the controller types the worker can rebuild and its capacity.

Controllers are rebuilt once per engine fingerprint and cached for the
daemon's lifetime — the same amortization the process backend's workers
use (:func:`repro.engine.backends._process_chunk`), lifted across
machine boundaries.  Rebuilds are *verified*: the worker recomputes the
fingerprint from the shipped (config, params, controller) and refuses
batches whose fingerprint does not match, so version skew between fleet
peers fails loudly instead of corrupting content-addressed caches.

A worker may also carry a local stats cache (typically the shared
SQLite tier, so co-located workers pool their discoveries): batch items
whose key is already cached skip the simulation entirely, and fresh
results are stored before they are shipped back.

Run it as a daemon with ``repro worker --listen HOST:PORT`` or embed it
with :func:`start_worker` (tests, benchmarks, notebooks).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.backends import simulate_chunk
from repro.engine.cache import StatsCache
from repro.errors import FleetError
from repro.fleet import protocol
from repro.fleet.daemon import DaemonServer, parse_address, serve_until_stopped
from repro.stonne.controller import registered_controller_types


class FleetWorker(DaemonServer):
    """The daemon: the shared server skeleton plus the simulation state.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free port
            (read :attr:`port` after construction).
        cache: Optional local stats cache consulted/populated around
            every simulation.  Use the SQLite tier to share it with
            co-located workers and sweep drivers.
        capacity: Advertised scheduling weight (``hello.capacity``).
            The remote backend sizes this worker's shards — and its
            pull-scheduler slot count — proportionally.  Purely a
            weight: simulation still serializes on the controller lock.
        secret: Opt-in shared secret.  When set, the hello carries an
            HMAC challenge and every connection must answer it before
            its first request; a bad or missing digest is rejected with
            an error frame and the connection dropped, with no worker
            state touched.
    """

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        cache: Optional[StatsCache] = None,
        capacity: int = 1,
        secret: Optional[str] = None,
    ) -> None:
        super().__init__(address, secret=secret)
        self.cache = cache
        self.capacity = max(1, int(capacity))
        self.batches_served = 0
        self.items_served = 0
        #: Rebuilt controllers keyed by engine fingerprint, with the
        #: functional flag they were shipped with.
        self._controllers: Dict[str, Tuple[object, bool]] = {}
        self._controller_lock = threading.Lock()
        #: In-flight batch bookkeeping for graceful shutdown: close()
        #: waits until every started batch has produced its response.
        self._active_batches = 0
        self._drain = threading.Condition()

    # ------------------------------------------------------------------
    def hello_fields(self) -> Dict:
        return {
            "capabilities": registered_controller_types(),
            "capacity": self.capacity,
        }

    def handlers(self) -> Dict:
        return {
            "evaluate_batch": lambda conn, message: self.execute_batch(message)
        }

    # ------------------------------------------------------------------
    def _controller_for(self, spec) -> Tuple[object, bool]:
        fingerprint = spec.get("fingerprint")
        with self._controller_lock:
            entry = self._controllers.get(fingerprint)
            if entry is None:
                controller, _, functional = protocol.rebuild_controller(spec)
                entry = (controller, functional)
                self._controllers[fingerprint] = entry
            return entry

    def execute_batch(self, message) -> Dict:
        """The ``results`` (or batch-fatal ``error``) for one request.

        Per-item failures are captured as error entries — one invalid
        mapping must not poison a shard, mirroring the executor-backend
        contract.  Only a spec that cannot be rebuilt fails the batch.
        """
        with self._drain:
            self._active_batches += 1
        try:
            return self._execute_batch(message)
        finally:
            with self._drain:
                self._active_batches -= 1
                self._drain.notify_all()

    def _execute_batch(self, message) -> Dict:
        started = time.perf_counter()
        try:
            controller, functional = self._controller_for(message.get("spec", {}))
        except protocol.ProtocolError as exc:
            return protocol.error_message(exc)
        items = message.get("items", [])
        entries: List[Optional[Dict]] = [None] * len(items)
        cache_hits = 0
        #: Cache misses: (slot, pos, key, layer, mapping) awaiting one
        #: grouped simulate_chunk pass.
        pending = []
        for slot, item in enumerate(items):
            pos = item.get("pos")
            try:
                layer = protocol.layer_from_wire(item["layer"])
                mapping = protocol.mapping_from_wire(item.get("mapping"))
                key = protocol.key_from_wire(item.get("key"))
                stats = self.cache.get(key) if (
                    self.cache is not None and key is not None
                ) else None
                if stats is None:
                    pending.append((slot, pos, key, layer, mapping))
                else:
                    stats.layer_name = layer.name
                    entries[slot] = {"pos": pos, "stats": stats.to_dict()}
                    cache_hits += 1
            except Exception as exc:
                entries[slot] = {
                    "pos": pos,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                }
        if pending:
            pairs = [(layer, mapping) for _, _, _, layer, mapping in pending]
            # One controller per fingerprint, many handler threads:
            # cycle-model tallies must not race.  The whole chunk runs
            # under the lock, grouped so repeated layers share one batch
            # kernel call (same path as the engine backends).
            with self._controller_lock:
                payloads = simulate_chunk(controller, pairs, functional)
            for (slot, pos, key, _, _), payload in zip(pending, payloads):
                if isinstance(payload, Exception):
                    entries[slot] = {
                        "pos": pos,
                        "error": str(payload),
                        "error_type": type(payload).__name__,
                    }
                else:
                    if self.cache is not None and key is not None:
                        self.cache.put(key, payload)
                    entries[slot] = {"pos": pos, "stats": payload.to_dict()}
        self.batches_served += 1
        self.items_served += len(entries)
        timing = {
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            "cache_hits": cache_hits,
            "simulated": len(pending),
            "items": len(entries),
        }
        return protocol.results_message(entries, timing=timing)

    def close(self, drain_timeout: float = 30.0) -> None:
        """Stop serving, drain in-flight batches, release the socket.

        Idempotent.  New connections stop being accepted immediately;
        batches already executing get up to ``drain_timeout`` seconds to
        finish and ship their responses, so a SIGTERM'd worker does not
        strand a shard mid-simulation and force the client's retry path.
        """
        self.shutdown()
        with self._drain:
            deadline = time.monotonic() + drain_timeout
            while self._active_batches:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drain.wait(remaining)
        self.server_close()


def start_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    cache: Optional[StatsCache] = None,
    capacity: int = 1,
) -> Tuple[FleetWorker, threading.Thread]:
    """Start a worker serving in a daemon thread; returns (worker, thread).

    The embeddable form used by tests and benchmarks: bind (port 0 for
    an ephemeral port), serve until :meth:`FleetWorker.close`.
    """
    worker = FleetWorker((host, port), cache=cache, capacity=capacity)
    thread = threading.Thread(
        target=worker.serve_forever,
        name=f"fleet-worker-{worker.port}",
        daemon=True,
    )
    thread.start()
    return worker, thread


class LocalWorkerProcess:
    """A worker daemon subprocess owned by the spawner (e.g. a Session).

    Wraps the ``repro worker`` subprocess plus the address it bound —
    parsed from its startup banner, which is why autostarted workers are
    never ``--quiet``.  :meth:`stop` is the reap: terminate, wait, and
    escalate to kill if the daemon ignores the signal, so the spawner
    can guarantee no lingering processes after ``close()``.
    """

    def __init__(self, process, address: str) -> None:
        self.process = process
        self.address = address

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def running(self) -> bool:
        return self.process.poll() is None

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate and reap the daemon (idempotent)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except Exception:  # subprocess.TimeoutExpired
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return f"LocalWorkerProcess(pid={self.pid}, {self.address}, {state})"


_BANNER_ADDRESS = re.compile(r"listening on (\S+)")


def spawn_local_worker(
    cache_path: Optional[str] = None,
    cache_max_rows: Optional[int] = None,
    timeout: float = 30.0,
    capacity: Optional[int] = None,
    secret: Optional[str] = None,
) -> LocalWorkerProcess:
    """Start one ``repro worker`` daemon subprocess on a free port.

    The daemon binds port 0 and reports the chosen address in its
    startup banner, which this function blocks on (bounded by
    ``timeout`` — a child wedged before its banner, e.g. on a hung
    cache mount, is killed rather than hanging the session open) —
    when it returns, the worker is accepting connections.  The child
    inherits this interpreter and has the repro package's root
    prepended to its ``PYTHONPATH``, so source checkouts work without
    installation.
    """
    import repro

    argv = [
        sys.executable, "-m", "repro.cli", "worker",
        "--listen", "127.0.0.1:0",
    ]
    if cache_path:
        argv += ["--cache-path", cache_path]
    if cache_max_rows:
        argv += ["--cache-max-rows", str(cache_max_rows)]
    if capacity is not None and capacity > 1:
        argv += ["--fleet-capacity", str(capacity)]
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    if secret:
        # Via the environment, not argv: the config layer picks it up as
        # REPRO_FLEET_SECRET and it never shows in the process listing.
        env["REPRO_FLEET_SECRET"] = secret
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # readline on a pipe has no timeout of its own; do it on a daemon
    # thread so a pre-banner hang can be bounded and the child killed.
    first_line: List[str] = []
    reader = threading.Thread(
        target=lambda: first_line.append(process.stdout.readline() or ""),
        daemon=True,
    )
    reader.start()
    reader.join(timeout)
    banner = first_line[0] if first_line else ""
    match = _BANNER_ADDRESS.search(banner)
    if match is None:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5)
            except Exception:  # subprocess.TimeoutExpired
                process.kill()
                process.wait()
        detail = (
            f"output was: {banner.strip()!r}" if first_line
            else f"no banner within {timeout:g}s"
        )
        raise FleetError(
            f"autostarted worker failed to report its address; {detail}"
        )
    return LocalWorkerProcess(process, match.group(1))


def spawn_local_workers(
    count: int,
    cache_path: Optional[str] = None,
    cache_max_rows: Optional[int] = None,
    capacity: Optional[int] = None,
    secret: Optional[str] = None,
) -> List[LocalWorkerProcess]:
    """Spawn ``count`` local daemons, reaping the survivors on failure."""
    workers: List[LocalWorkerProcess] = []
    try:
        for _ in range(count):
            workers.append(
                spawn_local_worker(
                    cache_path=cache_path,
                    cache_max_rows=cache_max_rows,
                    capacity=capacity,
                    secret=secret,
                )
            )
    except Exception:
        for worker in workers:
            worker.stop()
        raise
    return workers


def serve(
    listen: str,
    cache_path: Optional[str] = None,
    quiet: bool = False,
    cache_max_rows: Optional[int] = None,
    capacity: int = 1,
    secret: Optional[str] = None,
) -> int:
    """Blocking daemon entry point behind ``repro worker``.

    Serves until interrupted; returns a process exit code.  The cache
    settings come from the same :class:`~repro.session.SessionConfig`
    cache section the sweep drivers use (``repro worker --config``), so
    a fleet member and its drivers cannot disagree about the shared
    tier's path or its LRU row cap.

    SIGTERM and SIGINT shut down gracefully: the listener stops
    accepting, in-flight batches drain and ship their responses, cache
    tiers close, and the process exits 0.
    """
    from repro.engine.cache import make_stats_cache

    host, port = parse_address(listen, default_port=9461)
    cache = (
        make_stats_cache(cache_path, max_rows=cache_max_rows)
        if cache_path
        else None
    )
    worker = FleetWorker(
        (host, port), cache=cache, capacity=capacity, secret=secret
    )
    banner = (
        f"fleet worker pid {os.getpid()} listening on {worker.address} "
        f"(controllers: {', '.join(registered_controller_types())}; "
        f"cache: {cache_path or 'none'}; capacity: {worker.capacity}; "
        f"auth: {'on' if worker.secret else 'off'})"
    )
    try:
        return serve_until_stopped(
            worker, banner, "fleet worker stopped", quiet=quiet
        )
    finally:
        if cache is not None and hasattr(cache, "close"):
            cache.close()
