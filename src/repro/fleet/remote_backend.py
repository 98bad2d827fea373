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
  worker runs three chunks at once;
* each chunk travels over one persistent
  :class:`~repro.fleet.daemon.DaemonLink` per worker (the shared client
  half of the daemon skeleton), so the handshake is paid once per
  worker and controller rebuilds once per engine fingerprint per
  worker;
* a chunk whose worker dies mid-flight is *retried* on the surviving
  workers, so one crash costs one round trip, not the sweep;
* when no worker is reachable — or the engine is not remotable (mock
  configs) — there is one slot and its chunks fall back to inline
  serial execution, so ``--executor remote`` degrades to
  ``--executor serial`` instead of failing a run.

Per-item errors (invalid mappings and friends) are captured exception
entries, exactly like every other backend; worker-side
:mod:`repro.errors` types round-trip by name so callers' ``isinstance``
checks keep working across the wire.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.backends import (
    ExecutorBackend,
    WorkResult,
    _simulate_item,
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
        worker — ``(address, unit)`` tokens.  One inline-fallback slot
        when the engine is not remotable or no worker answers."""
        addresses = self._addresses()
        try:
            protocol.engine_spec(engine)
        except protocol.ProtocolError:
            addresses = []
        capacities = self._capacities(addresses)
        slots = [
            (address, unit)
            for address in addresses
            for unit in range(capacities.get(address, 0))
        ]
        return slots or super().pull_slots(engine, max_workers)

    def run_chunk(self, engine, items, slot=None):
        """Execute one scheduler chunk as a shard on the slot's worker,
        then on the survivors, then inline (see :meth:`_run_shard`)."""
        addresses = self._addresses()
        try:
            spec = protocol.engine_spec(engine)
        except protocol.ProtocolError:
            spec = None
        if not addresses or spec is None:
            self.fallback_batches += 1
            return [_simulate_item(engine, item) for item in items]
        indexed = [
            (position, key, request.layer, request.mapping)
            for position, (key, request) in enumerate(items)
        ]
        preferred = slot[0] if isinstance(slot, tuple) else addresses[0]
        results: List[Optional[WorkResult]] = [None] * len(items)
        for position, result in self._run_shard(
            engine, spec, indexed, preferred=preferred, all_addresses=addresses
        ):
            results[position] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        engine,
        spec: dict,
        shard: List[Tuple],
        preferred: str,
        all_addresses: List[str],
    ) -> List[Tuple[int, WorkResult]]:
        """Execute one shard: preferred worker, then survivors, then inline.

        Returns (position, (key, stats-or-exception)) pairs.
        """
        by_pos = {position: (key, layer, mapping)
                  for position, key, layer, mapping in shard}
        candidates = [preferred] + [a for a in all_addresses if a != preferred]
        message = protocol.evaluate_batch_message(spec, shard)
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
                return self._decode_results(engine, response, by_pos)
            span.set(fallback=True)
        # No worker produced results: inline serial fallback.
        self.fallback_batches += 1
        registry.counter("fleet.fallback_batches").inc()
        return [
            (
                position,
                _simulate_item(
                    engine,
                    (key, _Request(layer, mapping)),
                ),
            )
            for position, (key, layer, mapping) in (
                (p, by_pos[p]) for p in sorted(by_pos)
            )
        ]

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

    @staticmethod
    def _decode_results(engine, response: dict, by_pos: dict):
        from repro.stonne.stats import SimulationStats

        out: List[Tuple[int, WorkResult]] = []
        seen = set()
        for entry in response.get("items", []):
            position = entry.get("pos")
            if position not in by_pos or position in seen:
                continue  # unknown or duplicate position: ignore
            key = by_pos[position][0]
            if "stats" in entry:
                try:
                    stats = SimulationStats.from_dict(entry["stats"])
                except (KeyError, TypeError, ValueError):
                    continue  # undecodable entry: leave it for the
                    # inline remainder pass below (skewed peer)
                seen.add(position)
                out.append((position, (key, stats)))
            else:
                seen.add(position)
                out.append(
                    (position, (key, protocol.exception_from_wire(entry)))
                )
        # A worker that dropped items (foreign/buggy peer) still owes the
        # engine answers: simulate the remainder inline.
        for position in sorted(set(by_pos) - seen):
            key, layer, mapping = by_pos[position]
            out.append(
                (position, _simulate_item(engine, (key, _Request(layer, mapping))))
            )
        return out

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
    the single rule shared by the CLI's ``--workers`` flag and
    ``make_session(workers=...)``, so the two can never diverge.
    """
    if workers and executor in (None, "remote"):
        return RemoteBackend(
            workers=workers,
            max_workers=max_workers,
            shard_timeout=shard_timeout,
            secret=secret,
        )
    return executor


class _Request:
    """Minimal EvalRequest stand-in for inline fallback simulation."""

    __slots__ = ("layer", "mapping")

    def __init__(self, layer, mapping) -> None:
        self.layer = layer
        self.mapping = mapping
