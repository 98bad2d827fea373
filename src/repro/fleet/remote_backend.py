"""The ``remote`` executor backend: fan a miss batch out across workers.

:class:`RemoteBackend` is an :class:`~repro.engine.backends.ExecutorBackend`
registered as ``"remote"``, so the whole existing measurement path —
``Tuner.tune`` → ``TuningTask.measure_batch`` →
``EvaluationEngine.evaluate_many`` — fans a GA generation out across
machines with zero changes to the tuner: the engine still splits hits
from misses, and only the misses travel.

Execution model: the pull scheduler (:mod:`repro.engine.scheduler`)
drains each miss batch as chunks, one puller per slot.

* :meth:`RemoteBackend.pull_slots` names one slot per advertised
  capacity unit of every reachable worker (``host:port`` addresses —
  constructor argument, CLI ``--workers``, or the
  ``REPRO_FLEET_WORKERS`` environment variable), so a capacity-3
  worker is dealt three chunks for every one a capacity-1 worker gets.
  Capacity weights the dealing, not the concurrency: all slots of one
  address share its link, which carries one round trip at a time.  The
  slot list rotates by one position per call, so batches of a single
  chunk (one ``evaluate`` per layer of a graph run) spread across the
  fleet instead of all landing on the first worker;
* each chunk travels over one persistent
  :class:`~repro.fleet.daemon.DaemonLink` per worker (the shared client
  half of the daemon skeleton), so the handshake is paid once per
  worker and engine rebuilds once per engine spec per worker.  Only
  layers and mappings travel: the worker derives its own cache keys;
* a chunk whose worker dies mid-flight is *retried* on the surviving
  workers, so one crash costs one round trip, not the sweep;
* when no worker is reachable there is one slot and its chunks run
  inline through :meth:`ExecutorBackend.run_chunk
  <repro.engine.backends.ExecutorBackend.run_chunk>` — the serial
  backend's own path, same-layer batch kernels included — so
  ``--executor remote`` degrades to ``--executor serial`` instead of
  failing a run.  Items a worker drops or garbles run the same way.

Per-item errors (invalid mappings and friends) are captured exception
entries, exactly like every other backend; worker-side
:mod:`repro.errors` types round-trip by name so callers' ``isinstance``
checks keep working across the wire.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.engine.backends import (
    ExecutorBackend,
    WorkItem,
    WorkResult,
    register_backend,
)
from repro.fleet import protocol
from repro.fleet.daemon import DaemonLink
from repro.obs.trace import TRACER

#: Environment variable naming the default worker pool
#: (comma-separated ``host:port`` list).
WORKERS_ENV = "REPRO_FLEET_WORKERS"

#: Default seconds to wait for a shard's results (the
#: ``fleet.shard_timeout`` config knob overrides it).  Generous: a shard
#: is many simulations.  It is the only bound on a slow or wedged
#: worker — the scheduler's stealing rebalances only queued chunks, so a
#: chunk already sent to a worker waits for it up to this long.
BATCH_TIMEOUT_S = 600.0


def _env_workers() -> List[str]:
    raw = os.environ.get(WORKERS_ENV, "")
    return [part.strip() for part in raw.split(",") if part.strip()]


def _capacity(hello: dict) -> int:
    """A worker's advertised weight (1 for pre-capacity workers)."""
    try:
        return max(1, int(hello.get("capacity", 1)))
    except (TypeError, ValueError):
        return 1


@register_backend("remote")
class RemoteBackend(ExecutorBackend):
    """Ship cache-miss batches to fleet workers over the wire protocol.

    Args:
        workers: ``host:port`` addresses.  When omitted, resolved from
            the :data:`WORKERS_ENV` environment variable at run time, so
            a sweep script can be pointed at a fleet without code
            changes.
        max_workers: Accepted for registry-constructor uniformity;
            parallelism is one scheduler puller per worker capacity
            unit.
        shard_timeout: Seconds to wait for one shard's results before
            declaring the connection dead (the ``fleet.shard_timeout``
            knob); defaults to :data:`BATCH_TIMEOUT_S`.  This is the
            only bound on a slow or wedged worker: stealing rebalances
            only queued chunks, never one a worker is running.
    """

    name = "remote"

    def __init__(
        self,
        workers: Union[Sequence[str], str, None] = None,
        max_workers: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        secret: Optional[str] = None,
    ) -> None:
        if isinstance(workers, str):
            workers = [part.strip() for part in workers.split(",") if part.strip()]
        self._configured = list(workers) if workers else None
        self.max_workers = max_workers
        self.shard_timeout = shard_timeout
        self.secret = secret or None
        self._links: Dict[str, DaemonLink] = {}
        self._links_lock = threading.Lock()
        #: Batches (shards) that fell back to inline serial execution.
        self.fallback_batches = 0
        #: Shards retried on a surviving worker after a peer died.
        self.retried_shards = 0
        #: Per-call rotation of the slot list (see :meth:`pull_slots`).
        self._rotation = itertools.count()

    # ------------------------------------------------------------------
    def _addresses(self) -> List[str]:
        return list(self._configured) if self._configured else _env_workers()

    def _link(self, address: str) -> DaemonLink:
        with self._links_lock:
            link = self._links.get(address)
            if link is None:
                link = DaemonLink(
                    address,
                    peer="worker",
                    secret=self.secret,
                    timeout=(
                        self.shard_timeout
                        if self.shard_timeout is not None
                        else BATCH_TIMEOUT_S
                    ),
                )
                self._links[address] = link
            return link

    def _capacities(self, addresses: List[str]) -> Dict[str, int]:
        """Advertised capacity per *reachable* address (probed now)."""
        capacities: Dict[str, int] = {}
        for address in addresses:
            link = self._link(address)
            with link.lock:
                try:
                    capacities[address] = _capacity(link.connect())
                except (OSError, protocol.ProtocolError):
                    pass  # unreachable: no slots, no shard
        return capacities

    # ------------------------------------------------------------------
    def pull_slots(self, engine, max_workers=None):
        """One scheduler slot per advertised capacity unit per reachable
        worker — ``(address, unit)`` tokens — rotated by one position per
        call, since a one-chunk batch runs on the first slot.  One
        inline-fallback slot when no worker answers."""
        addresses = self._addresses()
        capacities = self._capacities(addresses)
        slots = [
            (address, unit)
            for address in addresses
            for unit in range(capacities.get(address, 0))
        ]
        if not slots:
            return super().pull_slots(engine, max_workers)
        shift = next(self._rotation) % len(slots)
        return slots[shift:] + slots[:shift]

    def run_chunk(self, engine, items, slot=None):
        """Execute one scheduler chunk as a shard on the slot's worker,
        then on the survivors, then inline (see :meth:`_run_shard`)."""
        addresses = self._addresses()
        if not addresses:
            self.fallback_batches += 1
            return ExecutorBackend.run_chunk(self, engine, items)
        preferred = slot[0] if isinstance(slot, tuple) else addresses[0]
        return self._run_shard(
            engine, items, preferred=preferred, all_addresses=addresses
        )

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        engine,
        items: Sequence[WorkItem],
        preferred: str,
        all_addresses: List[str],
    ) -> List[WorkResult]:
        """Execute one shard: preferred worker, then survivors, then inline.

        Returns ``(key, stats-or-exception)`` pairs in submission order.
        """
        shard = [
            (position, request.layer, request.mapping)
            for position, (_, request) in enumerate(items)
        ]
        candidates = [preferred] + [a for a in all_addresses if a != preferred]
        message = protocol.evaluate_batch_message(
            protocol.engine_spec(engine), shard
        )
        registry = self.metrics
        with TRACER.span(
            "fleet.shard", category="fleet",
            lane=f"fleet-{preferred}", items=len(shard),
        ) as span:
            for attempt, address in enumerate(candidates):
                try:
                    response = self._link(address).request(message)
                except (OSError, protocol.ProtocolError):
                    registry.counter(f"fleet.errors.{address}").inc()
                    continue  # worker dead/unreachable; try a survivor
                if response.get("type") == "error":
                    # Batch-fatal worker refusal (fingerprint/spec skew):
                    # retrying elsewhere cannot help less, but inline can.
                    break
                if response.get("type") != "results":
                    continue
                if attempt > 0:
                    self.retried_shards += 1
                    registry.counter("fleet.retried_shards").inc()
                span.set(served_by=address)
                registry.counter(f"fleet.shards.{address}").inc()
                registry.counter(f"fleet.items.{address}").inc(len(shard))
                self._record_worker_timing(address, response, registry)
                return self._decode_results(engine, response, items)
            span.set(fallback=True)
        # No worker produced results: inline serial fallback.
        self.fallback_batches += 1
        registry.counter("fleet.fallback_batches").inc()
        return ExecutorBackend.run_chunk(self, engine, items)

    def _record_worker_timing(self, address, response, registry) -> None:
        """Absorb a worker's self-reported ``timing`` (optional key).

        Old workers omit it — version skew degrades to "no remote
        spans, no per-worker health", never an error.  The worker's
        clock is not synchronised with ours, so its span is
        right-aligned inside the just-finished local round trip.
        """
        timing = response.get("timing")
        if not isinstance(timing, dict):
            return
        try:
            duration = float(timing.get("duration_s", 0.0))
        except (TypeError, ValueError):
            return
        registry.histogram("fleet.worker_duration_s").observe(duration)
        for key in ("cache_hits", "simulated"):
            value = timing.get(key)
            if isinstance(value, int):
                registry.counter(f"fleet.{key}.{address}").inc(value)
        pid = timing.get("pid")
        if isinstance(pid, int):
            registry.gauge(f"fleet.pid.{address}").set(pid)
        if TRACER.enabled:
            client_end = time.perf_counter()
            TRACER.add_span(
                "fleet.worker", "fleet", f"fleet-{address}",
                start=client_end - duration, duration=duration,
                attrs=dict(timing, address=address),
            )

    def _decode_results(
        self, engine, response: dict, items: Sequence[WorkItem]
    ) -> List[WorkResult]:
        from repro.stonne.stats import SimulationStats

        results: List[Optional[WorkResult]] = [None] * len(items)
        for entry in response.get("items", []):
            position = entry.get("pos")
            if (
                not isinstance(position, int)
                or not 0 <= position < len(items)
                or results[position] is not None
            ):
                continue  # unknown or duplicate position: ignore
            key = items[position][0]
            if "stats" in entry:
                try:
                    stats = SimulationStats.from_dict(entry["stats"])
                except (KeyError, TypeError, ValueError):
                    continue  # undecodable entry: leave it for the
                    # inline remainder pass below (skewed peer)
                results[position] = (key, stats)
            else:
                results[position] = (key, protocol.exception_from_wire(entry))
        # A worker that dropped items (foreign/buggy peer) still owes the
        # engine answers: run the remainder inline, as one chunk.
        missing = [
            position for position, result in enumerate(results)
            if result is None
        ]
        if missing:
            inline = ExecutorBackend.run_chunk(
                self, engine, [items[position] for position in missing]
            )
            for position, result in zip(missing, inline):
                results[position] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, bool]:
        """Reachability of every configured worker (health checks)."""
        status: Dict[str, bool] = {}
        for address in self._addresses():
            try:
                response = self._link(address).request({"type": "ping"})
                status[address] = response.get("type") == "pong"
            except (OSError, protocol.ProtocolError):
                status[address] = False
        return status

    def close(self) -> None:
        with self._links_lock:
            for link in self._links.values():
                link.close()
            self._links.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteBackend(workers={self._addresses()!r})"


def resolve_executor(
    executor,
    workers: Union[Sequence[str], str, None] = None,
    max_workers: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    secret: Optional[str] = None,
):
    """The executor an engine should use given an optional fleet.

    A non-empty ``workers`` list (or comma-separated string) implies the
    remote backend unless a *different* executor is explicitly named —
    the single rule behind both the ``workers`` config key and the
    CLI's ``--workers`` flag.
    """
    if workers and executor in (None, "remote"):
        return RemoteBackend(
            workers=workers,
            max_workers=max_workers,
            shard_timeout=shard_timeout,
            secret=secret,
        )
    return executor
