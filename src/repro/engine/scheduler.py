"""Pull-based work-queue scheduling across engines, plans and backends.

Every batch of cache misses runs through one queue of ``(engine, chunk)``
items drained by *pullers* — one per backend slot — so

* engine groups overlap: a slot that finishes config A's chunks
  immediately pulls config B's instead of waiting for a group barrier;
* fast slots steal the tail of slow slots' load: chunks carry a *home*
  slot (round-robin over the slots) and a pull by any other slot counts
  as a steal.  Stealing rebalances only queued chunks; a chunk already
  running on a slow slot finishes there.

A backend with one slot (serial, single-worker pools, a fleet with no
reachable worker) — or a call with one chunk — drains the queue on the
caller's thread with no puller threads, and its automatic chunk size is
the whole group, so a serial run makes exactly one batch-kernel call per
same-layer group.

Host-local pools run inline too.  On a backend whose slots share this
host's CPUs (``slots_share_host``: threads, local worker processes),
automatic chunking takes the one-slot path above: every group is one
chunk run on the caller's thread through the in-process
:meth:`~repro.engine.backends.ExecutorBackend.run_chunk`, and
``pull_slots`` (which starts worker processes) is never called.  On a
2-vCPU host a pipe round trip or thread hand-off per chunk cost more
than the batch kernels it offloaded at every group size measured, so a
pool only pays where crash isolation is wanted.  An explicit
``chunk_size`` pools every group, and it is what keeps a process
worker's crash from reaching the caller.

Determinism: every simulation is a pure function of (config, params,
layer, mapping), so results are bit-identical to ``--executor serial``
no matter which slot runs a chunk.  Counters (pulls, steals, idle time)
are exact under an injectable clock, which is how the test suite pins
them.

Chunk grouping: a chunk is executed by the backend's ``run_chunk``,
which groups the chunk's items by layer (dataclass equality) and makes
one controller batch-kernel call per multi-item group — each chunk
already belongs to exactly one engine, so (engine fingerprint,
structural layer) is the effective grouping key.  Singleton groups run
through the scalar ``simulate_layer`` seam; results are bit-identical
either way (see :func:`repro.engine.backends.simulate_chunk`).

:func:`run_plan_groups` is the entry point: the sweep runner hands it
every engine's plans at once; ``EvaluationEngine.run_plans`` is the
single-group special case.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.backends import ExecutorBackend
from repro.obs.trace import TRACER

#: Auto chunk sizing: aim for this many chunks per slot per group (load
#: balancing granularity) ...
DEFAULT_CHUNKS_PER_SLOT = 4

#: ... without ever exceeding this many items per chunk (bounds the
#: latency of a steal).
MAX_CHUNK_ITEMS = 32

#: Every counter the scheduler reports (and accumulates per backend).
COUNTER_KEYS = (
    "chunks_pulled",
    "steals",
    "idle_time_s",
)


def zero_counters() -> Dict[str, Any]:
    """A fresh all-zero scheduler counter dict."""
    return {key: 0.0 if key == "idle_time_s" else 0 for key in COUNTER_KEYS}


class Chunk:
    """One pullable unit: a few work items of one engine group.

    ``slots`` are the items' positions in the group's flattened work
    list; ``home`` is the slot the chunk is dealt to round-robin (the
    steal baseline).
    """

    __slots__ = ("engine", "group", "slots", "items", "home")

    def __init__(
        self,
        engine,
        group: int,
        slots: List[int],
        items: List[Tuple[Optional[Hashable], Any]],
        home: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.group = group
        self.slots = slots
        self.items = items
        self.home = home

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chunk(group={self.group}, items={len(self.items)}, "
            f"home={self.home})"
        )


class WorkQueue:
    """The shared pull queue: steal accounting and per-group results.

    Thread-safe; all bookkeeping happens under one condition variable.
    ``clock`` is injectable so tests can pin the idle-time estimate
    exactly.
    """

    def __init__(self, group_sizes: Sequence[int], clock=None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._cond = threading.Condition()
        self._queued: deque = deque()
        #: Per-group result arrays, filled by :meth:`complete`.
        self.results: List[List[Optional[Tuple]]] = [
            [None] * size for size in group_sizes
        ]
        self._pending_slots = sum(group_sizes)
        self.counters = zero_counters()

    # ------------------------------------------------------------------
    def add(self, chunk: Chunk) -> None:
        """Enqueue a chunk."""
        with self._cond:
            self._queued.append(chunk)
            self._cond.notify()

    # ------------------------------------------------------------------
    def pull(self, slot_id) -> Optional[Chunk]:
        """The next chunk for ``slot_id``; None when all work is done.

        Takes queued work (counting a steal when the chunk's home is
        another slot); with nothing queued, blocks until a chunk is
        added or the last result lands.  Returns None once every item
        has a result.
        """
        with self._cond:
            idle_started: Optional[float] = None
            while self._pending_slots and not self._queued:
                if idle_started is None:
                    idle_started = self._clock()
                self._cond.wait()
            if idle_started is not None:
                self.counters["idle_time_s"] += self._clock() - idle_started
            if not self._queued:
                return None
            chunk = self._queued.popleft()
            self.counters["chunks_pulled"] += 1
            if chunk.home is not None and chunk.home != slot_id:
                self.counters["steals"] += 1
            return chunk

    # ------------------------------------------------------------------
    def complete(self, chunk: Chunk, results: Sequence[Tuple]) -> None:
        """Record a chunk's results."""
        with self._cond:
            out = self.results[chunk.group]
            for position, result in zip(chunk.slots, results):
                out[position] = result
            self._pending_slots -= len(chunk.slots)
            if not self._pending_slots:
                self._cond.notify_all()


# ----------------------------------------------------------------------
# per-backend cumulative counters (typed, in the metrics registry)
# ----------------------------------------------------------------------
#: Registry namespace the scheduler's counters live under.
SCHEDULER_METRIC_PREFIX = "scheduler."


def backend_counters(backend) -> Dict[str, Any]:
    """Cumulative scheduler counters of a backend (zeros if never used).

    The counters are typed :class:`~repro.obs.metrics.Counter`
    instruments under ``scheduler.<key>`` in the backend's registry;
    this is the plain-dict view reports and the CLI print.
    """
    out = zero_counters()
    recorded = backend.metrics.counters_with_prefix(SCHEDULER_METRIC_PREFIX)
    for key in COUNTER_KEYS:
        if key in recorded:
            out[key] = recorded[key]
    return out


def _accumulate(backend: ExecutorBackend, report: Dict[str, Any]) -> None:
    registry = backend.metrics
    for key in COUNTER_KEYS:
        value = report.get(key, 0)
        if value:
            registry.counter(SCHEDULER_METRIC_PREFIX + key).inc(value)


# ----------------------------------------------------------------------
# chunking
# ----------------------------------------------------------------------
def _auto_chunk_size(work_size: int, num_slots: int) -> int:
    """Items per chunk: ~DEFAULT_CHUNKS_PER_SLOT chunks per slot, capped.

    One slot has nobody to balance against: its chunk is the whole group.
    """
    if num_slots == 1:
        return max(1, work_size)
    target = max(1, -(-work_size // (num_slots * DEFAULT_CHUNKS_PER_SLOT)))
    return min(MAX_CHUNK_ITEMS, target)


def _chunk_group(engine, group: int, work, chunk_size: int) -> List[Chunk]:
    return [
        Chunk(
            engine=engine,
            group=group,
            slots=list(range(start, min(start + chunk_size, len(work)))),
            items=list(work[start : start + chunk_size]),
        )
        for start in range(0, len(work), chunk_size)
    ]


def _interleave(per_group: List[List[Chunk]]) -> List[Chunk]:
    """Round-robin across groups so engine groups overlap from pull #1."""
    out: List[Chunk] = []
    cursors = [0] * len(per_group)
    remaining = sum(len(chunks) for chunks in per_group)
    while remaining:
        for group, chunks in enumerate(per_group):
            cursor = cursors[group]
            if cursor < len(chunks):
                out.append(chunks[cursor])
                cursors[group] = cursor + 1
                remaining -= 1
    return out


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def run_plan_groups(
    groups: Sequence[Tuple[Any, Sequence[Any]]],
    return_errors: bool = False,
    chunk_size: Optional[int] = None,
    clock=None,
) -> Dict[str, Any]:
    """Execute the pending misses of several engines' plans as one queue.

    ``groups`` is ``[(engine, [BatchPlan, ...]), ...]``.  Each group's
    misses are flattened with cross-plan dedup (the engine's own
    :meth:`~repro.engine.EvaluationEngine.run_plans` semantics), then
    chunked onto one :class:`WorkQueue` per backend and drained by one
    puller per ``pull_slots`` slot.  Each group runs on its engine's
    ``backend``; groups sharing a backend share one queue, sized by the
    first such engine's ``max_workers`` and ``chunk_size`` (an explicit
    ``chunk_size`` argument wins).  Backends run one after another, in
    order.

    Returns the scheduler counter report for this invocation.  Errors
    obey ``return_errors`` exactly like ``run_plans``: every plan is
    fully resolved, then the first per-item error (in group, then
    submission order) is raised.
    """
    from repro.errors import SimulationError

    for engine, plans in groups:
        for plan in plans:
            if plan.engine is not engine:
                raise SimulationError(
                    "run_plan_groups received a BatchPlan built by a "
                    "different engine"
                )

    collected: List[Tuple[Any, Sequence[Any], List, List]] = []
    by_backend: Dict[int, Tuple[Any, List]] = {}
    for engine, plans in groups:
        work, owners = engine._collect_pending(plans)
        entry = (engine, plans, work, owners)
        collected.append(entry)
        backend = engine.backend
        by_backend.setdefault(id(backend), (backend, []))[1].append(entry)

    report = zero_counters()
    for backend, members in by_backend.values():
        if not any(work for _e, _p, work, _o in members):
            continue
        lead_engine = members[0][0]
        run_report = _run_scheduled(
            members,
            backend,
            lead_engine,
            chunk_size=(
                chunk_size if chunk_size is not None
                else lead_engine.chunk_size
            ),
            clock=clock,
        )
        _accumulate(backend, run_report)
        for key in COUNTER_KEYS:
            report[key] += run_report[key]

    for _engine, plans, _work, _owners in collected:
        for plan in plans:
            plan._resolve_duplicates()
    first_error = _first_error(collected)
    if first_error is not None and not return_errors:
        raise first_error
    return report


def _first_error(collected) -> Optional[Exception]:
    """The first per-item error in group, then submission order."""
    for _engine, plans, work, owners in collected:
        for slot, owner_list in enumerate(owners):
            plan, position = owner_list[0]
            payload = plan.results[position]
            if isinstance(payload, Exception):
                return payload
    return None


def _run_scheduled(
    collected,
    backend,
    lead_engine,
    chunk_size: Optional[int],
    clock,
) -> Dict[str, Any]:
    """Chunk, enqueue, drain with one puller per slot."""
    if chunk_size is not None and chunk_size < 1:
        chunk_size = None
    if chunk_size is None and backend.slots_share_host:
        # One slot, the caller's, running chunks in-process.
        slots = [None]
        run_chunk = functools.partial(ExecutorBackend.run_chunk, backend)
    else:
        slots = backend.pull_slots(
            lead_engine, max_workers=lead_engine.max_workers
        )
        run_chunk = backend.run_chunk
    with TRACER.span(
        "scheduler.pull", category="scheduler",
        groups=len(collected), slots=len(slots),
    ):
        return _run_scheduled_inner(
            collected, backend, run_chunk, slots, chunk_size, clock,
        )


def _run_scheduled_inner(
    collected,
    backend,
    run_chunk,
    slots: List,
    chunk_size: Optional[int],
    clock,
) -> Dict[str, Any]:
    queue = WorkQueue([len(work) for _e, _p, work, _o in collected], clock)

    per_group: List[List[Chunk]] = []
    for group, (engine, _plans, work, _owners) in enumerate(collected):
        size = chunk_size or _auto_chunk_size(len(work), len(slots))
        per_group.append(_chunk_group(engine, group, work, size))
    ordered = _interleave(per_group)
    # Home = the slot round-robin dealing assigns; a pull by any other
    # slot is a steal.
    for index, chunk in enumerate(ordered):
        chunk.home = slots[index % len(slots)]
        queue.add(chunk)

    if len(slots) == 1 or len(ordered) == 1:
        # Nothing to overlap: drain on the caller's thread.
        _drain(queue, backend, run_chunk, slots[0])
    else:
        pullers = [
            threading.Thread(
                target=_drain,
                args=(queue, backend, run_chunk, slot),
                name=f"repro-puller-{index}",
                daemon=True,
            )
            for index, slot in enumerate(slots)
        ]
        for thread in pullers:
            thread.start()
        for thread in pullers:
            thread.join()

    # Merge on the calling thread: cache writes and plan mutation stay
    # single-threaded.
    for group, (engine, _plans, work, owners) in enumerate(collected):
        if work:
            engine._merge_results(work, owners, queue.results[group])

    return dict(queue.counters)


def _slot_lane(slot) -> Optional[str]:
    """A trace lane per backend slot (remote tokens flattened); the
    caller's slot (``None``) traces on the caller's own lane."""
    if slot is None:
        return None
    if isinstance(slot, tuple):
        return "slot-" + "-".join(str(part) for part in slot)
    return f"slot-{slot}"


def _drain(queue: WorkQueue, backend, run_chunk, slot) -> None:
    """One puller: pull, execute, complete, until the queue is done."""
    lane = _slot_lane(slot)
    latency = backend.metrics.histogram(
        SCHEDULER_METRIC_PREFIX + "chunk_latency_s"
    )
    while True:
        chunk = queue.pull(slot)
        if chunk is None:
            return
        started = time.perf_counter()
        # Steals get their own span name, so they stand out in a trace.
        with TRACER.span(
            "scheduler.chunk" if chunk.home == slot else "scheduler.steal",
            category="scheduler", lane=lane,
            items=len(chunk.items), group=chunk.group, home=str(chunk.home),
        ):
            try:
                results = run_chunk(chunk.engine, chunk.items, slot=slot)
            except Exception as exc:  # infrastructure failure: fail items
                results = [(key, exc) for key, _request in chunk.items]
        latency.observe(time.perf_counter() - started)
        queue.complete(chunk, results)
