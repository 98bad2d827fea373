"""The fleet worker daemon: a TCP service that executes simulation batches.

The connection dialogue (hello, optional HMAC auth, request loop, error
frames) is the shared skeleton in :mod:`repro.fleet.daemon`; this module
adds only the worker's own part: the ``evaluate_batch`` verb, its
engines and the batch drain on shutdown.  The hello advertises the
controller types the worker can rebuild and its capacity.

A batch runs through the same path as a client's own misses: the worker
keeps one :class:`~repro.engine.evaluation.EvaluationEngine` per
``(fingerprint, functional)`` pair it is shipped, built once and kept
for the daemon's lifetime, and answers each batch with ``plan_many`` +
``run_plans``.  Engines are *verified*: the worker recomputes the
fingerprint from the shipped spec and refuses batches whose fingerprint
does not match, so version skew between fleet peers fails loudly
instead of corrupting content-addressed caches.

A worker may also carry a local stats cache (typically the shared
SQLite tier, so co-located workers pool their discoveries).  Its engines
derive every cache key themselves, exactly as a client engine does, so
a hit skips the simulation and fresh results are stored before they are
shipped back, and no client can write a key of its choosing into the
shared tier.

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

from repro.engine.cache import StatsCache
from repro.engine.evaluation import EvalRequest, EvaluationEngine
from repro.errors import FleetError
from repro.fleet import protocol
from repro.fleet.daemon import DaemonServer, parse_address, serve_until_stopped
from repro.stonne.controller import registered_controller_types


class FleetWorker(DaemonServer):
    """The daemon: the shared server skeleton plus the simulation state.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free port
            (read :attr:`port` after construction).
        cache: Optional local stats cache every engine of this worker
            consults and populates.  Use the SQLite tier to share it
            with co-located workers and sweep drivers.
        capacity: Advertised scheduling weight (``hello.capacity``).
            The remote backend names one pull-scheduler slot per unit,
            so chunks are dealt to this worker proportionally.  Purely
            a weight: simulation still serializes on the worker's lock.
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
        #: One engine per (fingerprint, functional) pair shipped.
        self._engines: Dict[Tuple[str, bool], EvaluationEngine] = {}
        self._lock = threading.Lock()
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
    def _engine_for(self, spec) -> EvaluationEngine:
        key = (spec.get("fingerprint"), bool(spec.get("functional", False)))
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = protocol.engine_from_spec(spec, self.cache)
                self._engines[key] = engine
            return engine

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
            engine = self._engine_for(message.get("spec", {}))
        except protocol.ProtocolError as exc:
            return protocol.error_message(exc)
        items = message.get("items", [])
        entries: List[Optional[Dict]] = [None] * len(items)
        requests, slots = [], []
        for slot, item in enumerate(items):
            try:
                requests.append(EvalRequest(
                    protocol.layer_from_wire(item["layer"]),
                    protocol.mapping_from_wire(item.get("mapping")),
                ))
                slots.append(slot)
            except Exception as exc:
                entries[slot] = _error_entry(item.get("pos"), exc)
        plan = engine.plan_many(requests)
        # Many handler threads share each engine; simulation serializes
        # on the worker-wide lock, as the capacity docstring promises.
        with self._lock:
            engine.run_plans([plan], return_errors=True)
            self.batches_served += 1
            self.items_served += len(entries)
        for slot, payload in zip(slots, plan.results):
            pos = items[slot].get("pos")
            entries[slot] = (
                _error_entry(pos, payload) if isinstance(payload, Exception)
                else {"pos": pos, "stats": payload.to_dict()}
            )
        counters = plan.counters()
        timing = {
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            "cache_hits": counters["cache_hits"],
            "simulated": counters["unique_misses"],
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


def _error_entry(pos, exc: Exception) -> Dict:
    return {"pos": pos, "error": str(exc), "error_type": type(exc).__name__}


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
