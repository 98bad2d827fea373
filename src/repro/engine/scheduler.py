"""Pull-based work-queue scheduling across engines, plans and backends.

The executor backends historically received one static stride per worker
and barriered per engine group: a sweep over three hardware configs ran
three fan-outs back to back, and within each fan-out the fastest worker
idled until the slowest finished its pre-assigned chunk.  This module
replaces that with one global queue of ``(engine, chunk)`` items drained
by *pullers* — one per backend slot — so

* engine groups overlap: a slot that finishes config A's chunks
  immediately pulls config B's instead of waiting for the group barrier;
* fast slots steal the tail of slow slots' load: chunks carry a *home*
  slot (the static assignment they would have had) and a pull by any
  other slot counts as a steal;
* stragglers re-split: when an idle slot finds no queued work but a
  chunk has been in flight past ``steal_deadline`` seconds, it clones
  the chunk's still-unfilled items and races the straggler — first
  writer wins per item, so results stay deterministic.

Determinism: every simulation is a pure function of (config, params,
layer, mapping), so results are bit-identical to ``--executor serial``
no matter which slot runs a chunk or how often a straggler's items are
duplicated — first-writer-wins only ever picks between identical
payloads.  Counters (pulls, steals, re-splits, idle time) are exact
under an injectable clock, which is how the test suite pins them.

Chunk grouping: a chunk is executed by the backend's ``run_chunk``,
which groups the chunk's items by layer (dataclass equality) and makes
one controller batch-kernel call per multi-item group — each chunk
already belongs to exactly one engine, so (engine fingerprint,
structural layer) is the effective grouping key.  Singleton groups run
through the scalar ``simulate_layer`` seam; results are bit-identical
either way (see :func:`repro.engine.backends.simulate_chunk`).

:func:`run_plan_groups` is the entry point: the sweep runner hands it
every engine's plans at once; ``EvaluationEngine.run_plans`` is the
single-group special case.  Backends opt in by returning two or more
slot tokens from ``pull_slots``; everything else (serial, third-party
backends, single-worker pools) keeps the legacy one-batch-per-group
path, bit-for-bit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER

#: Seconds a chunk may be in flight before idle slots re-split it.
DEFAULT_STEAL_DEADLINE_S = 5.0

#: Auto chunk sizing: aim for this many chunks per slot per group (load
#: balancing granularity) ...
DEFAULT_CHUNKS_PER_SLOT = 4

#: ... without ever exceeding this many items per chunk (bounds the
#: work lost to a straggler and the latency of a steal).
MAX_CHUNK_ITEMS = 32

#: Seconds an idle puller sleeps between straggler checks.
_IDLE_POLL_S = 0.02

#: Every counter the scheduler reports (and accumulates per backend).
COUNTER_KEYS = (
    "chunks_pulled",
    "steals",
    "resplits",
    "idle_time_s",
)


def zero_counters() -> Dict[str, Any]:
    """A fresh all-zero scheduler counter dict."""
    return {key: 0.0 if key == "idle_time_s" else 0 for key in COUNTER_KEYS}


class Chunk:
    """One pullable unit: a few work items of one engine group.

    ``slots`` are the items' positions in the group's flattened work
    list; ``home`` is the slot the chunk would have belonged to under
    static fan-out (the steal baseline).  A re-split duplicate records
    its original in ``resplit_of`` so it is never itself re-split.
    """

    __slots__ = (
        "engine",
        "group",
        "slots",
        "items",
        "home",
        "started_at",
        "puller",
        "resplit_of",
        "resplit_issued",
    )

    def __init__(
        self,
        engine,
        group: int,
        slots: List[int],
        items: List[Tuple[Optional[Hashable], Any]],
        home: Optional[int] = None,
        resplit_of: Optional["Chunk"] = None,
    ) -> None:
        self.engine = engine
        self.group = group
        self.slots = slots
        self.items = items
        self.home = home
        self.started_at: Optional[float] = None
        self.puller = None
        self.resplit_of = resplit_of
        self.resplit_issued = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chunk(group={self.group}, items={len(self.items)}, "
            f"home={self.home})"
        )


class WorkQueue:
    """The shared pull queue: steal accounting, re-splits, results.

    Thread-safe; all bookkeeping happens under one condition variable.
    ``clock`` is injectable so tests can pin steal/re-split decisions
    (and the idle-time estimate) exactly.  The queue owns the per-group
    result arrays: :meth:`complete` fills them first-writer-wins, which
    is what makes racing re-split duplicates safe.
    """

    def __init__(
        self,
        num_groups: int,
        group_sizes: Sequence[int],
        clock=None,
        steal_deadline: Optional[float] = None,
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.steal_deadline = (
            steal_deadline
            if steal_deadline is not None
            else DEFAULT_STEAL_DEADLINE_S
        )
        self._cond = threading.Condition()
        self._queued: deque = deque()
        self._in_flight: Dict[int, Chunk] = {}
        self._filled: List[List[bool]] = [
            [False] * size for size in group_sizes
        ]
        #: Per-group result arrays, filled first-writer-wins.
        self.results: List[List[Optional[Tuple]]] = [
            [None] * size for size in group_sizes
        ]
        self._pending_slots = sum(group_sizes)
        self.counters = zero_counters()
        assert num_groups == len(group_sizes)

    # ------------------------------------------------------------------
    def add(self, chunk: Chunk) -> None:
        """Enqueue a chunk."""
        with self._cond:
            self._queued.append(chunk)
            self._cond.notify()

    @property
    def done(self) -> bool:
        with self._cond:
            return self._pending_slots == 0

    # ------------------------------------------------------------------
    def pull(self, slot_id) -> Optional[Chunk]:
        """The next chunk for ``slot_id``; None when all work is done.

        Order of preference: queued work (counting a steal when the
        chunk's home is another slot), then a re-split of the oldest
        straggler past the deadline, then wait.  Returns None once every
        item has a result.
        """
        with self._cond:
            idle_started: Optional[float] = None
            while True:
                chunk = self._next_locked(slot_id)
                if chunk is not _WAIT:
                    if idle_started is not None:
                        self.counters["idle_time_s"] += (
                            self._clock() - idle_started
                        )
                    return chunk
                if idle_started is None:
                    idle_started = self._clock()
                self._cond.wait(timeout=_IDLE_POLL_S)

    def _next_locked(self, slot_id):
        if self._pending_slots == 0:
            self._cond.notify_all()
            return None
        if self._queued:
            chunk = self._queued.popleft()
            self.counters["chunks_pulled"] += 1
            if chunk.home is not None and chunk.home != slot_id:
                self.counters["steals"] += 1
            return self._start(chunk, slot_id)
        resplit = self._make_resplit(slot_id)
        if resplit is not None:
            return resplit
        return _WAIT

    def _start(self, chunk: Chunk, slot_id) -> Chunk:
        chunk.started_at = self._clock()
        chunk.puller = slot_id
        self._in_flight[id(chunk)] = chunk
        return chunk

    def _make_resplit(self, slot_id) -> Optional[Chunk]:
        """Duplicate the oldest over-deadline straggler's unfilled items.

        Each original chunk is re-split at most once, and duplicates are
        never re-split themselves, so duplication is bounded at 2x.
        """
        now = self._clock()
        straggler: Optional[Chunk] = None
        for chunk in self._in_flight.values():
            if (
                chunk.resplit_of is not None
                or chunk.resplit_issued
                or chunk.started_at is None
                or now - chunk.started_at < self.steal_deadline
            ):
                continue
            if straggler is None or chunk.started_at < straggler.started_at:
                straggler = chunk
        if straggler is None:
            return None
        filled = self._filled[straggler.group]
        remaining = [
            index
            for index, position in enumerate(straggler.slots)
            if not filled[position]
        ]
        if not remaining:
            return None
        straggler.resplit_issued = True
        duplicate = Chunk(
            engine=straggler.engine,
            group=straggler.group,
            slots=[straggler.slots[i] for i in remaining],
            items=[straggler.items[i] for i in remaining],
            home=slot_id,
            resplit_of=straggler,
        )
        self.counters["resplits"] += 1
        self.counters["chunks_pulled"] += 1
        return self._start(duplicate, slot_id)

    # ------------------------------------------------------------------
    def complete(self, chunk: Chunk, results: Sequence[Tuple]) -> None:
        """Record a chunk's results (first writer wins per item)."""
        with self._cond:
            self._in_flight.pop(id(chunk), None)
            filled = self._filled[chunk.group]
            out = self.results[chunk.group]
            for position, result in zip(chunk.slots, results):
                if not filled[position]:
                    filled[position] = True
                    out[position] = result
                    self._pending_slots -= 1
            self._cond.notify_all()


class _Wait:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<wait>"


_WAIT = _Wait()


# ----------------------------------------------------------------------
# per-backend cumulative counters (typed, in the metrics registry)
# ----------------------------------------------------------------------
#: Registry namespace the scheduler's counters live under.
SCHEDULER_METRIC_PREFIX = "scheduler."


def backend_metrics(backend) -> Optional[MetricsRegistry]:
    """The backend's metrics registry, attaching one on first use.

    :class:`~repro.engine.backends.ExecutorBackend` exposes a lazily
    created ``metrics`` property; duck-typed third-party backends get a
    registry set as a plain attribute.  Returns None only for
    ``__slots__`` objects that cannot carry one.
    """
    registry = getattr(backend, "metrics", None)
    if isinstance(registry, MetricsRegistry):
        return registry
    registry = MetricsRegistry()
    try:
        backend.metrics = registry
    except AttributeError:
        return None
    return registry


def backend_counters(backend) -> Dict[str, Any]:
    """Cumulative scheduler counters of a backend (zeros if never used).

    The counters are typed :class:`~repro.obs.metrics.Counter`
    instruments under ``scheduler.<key>`` in the backend's registry;
    this is the plain-dict view reports and the CLI print.
    """
    out = zero_counters()
    registry = getattr(backend, "metrics", None)
    if isinstance(registry, MetricsRegistry):
        recorded = registry.counters_with_prefix(SCHEDULER_METRIC_PREFIX)
        for key in COUNTER_KEYS:
            if key in recorded:
                out[key] = recorded[key]
    return out


def _accumulate(backend, report: Dict[str, Any]) -> None:
    registry = backend_metrics(backend)
    if registry is None:  # __slots__ backends cannot carry a registry
        return
    for key in COUNTER_KEYS:
        value = report.get(key, 0)
        if value:
            registry.counter(SCHEDULER_METRIC_PREFIX + key).inc(value)


# ----------------------------------------------------------------------
# chunking
# ----------------------------------------------------------------------
def _auto_chunk_size(work_size: int, num_slots: int) -> int:
    """Items per chunk: ~DEFAULT_CHUNKS_PER_SLOT chunks per slot, capped."""
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
    max_workers: Optional[int] = None,
    executor=None,
    return_errors: bool = False,
    chunk_size: Optional[int] = None,
    steal_deadline: Optional[float] = None,
    clock=None,
) -> Dict[str, Any]:
    """Execute the pending misses of several engines' plans as one queue.

    ``groups`` is ``[(engine, [BatchPlan, ...]), ...]``.  Each group's
    misses are flattened with cross-plan dedup (the engine's own
    :meth:`~repro.engine.EvaluationEngine.run_plans` semantics), then —
    when the shared backend advertises two or more pull slots — chunked
    onto one :class:`WorkQueue` and drained by one puller thread per
    slot.  Otherwise each group runs through the backend's legacy
    ``run`` batch, bit-identically to the pre-scheduler behaviour.

    Returns the scheduler counter report for this invocation (all-zero
    ``mode: "static"`` when the pull path was not engaged).  Errors obey
    ``return_errors`` exactly like ``run_plans``: every plan is fully
    resolved, then the first per-item error (in group, then submission
    order) is raised.
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
    for engine, plans in groups:
        work, owners = engine._collect_pending(plans)
        collected.append((engine, plans, work, owners))

    report = zero_counters()
    report["mode"] = "static"
    if not collected:
        return report

    lead_engine = collected[0][0]
    backends = {
        id(engine._resolve_backend(executor, max_workers)): engine
        for engine, _plans, _work, _owners in collected
    }
    backend = lead_engine._resolve_backend(executor, max_workers)
    workers = max_workers if max_workers is not None else lead_engine.max_workers
    if chunk_size is None:
        chunk_size = getattr(lead_engine, "chunk_size", None)
    if steal_deadline is None:
        steal_deadline = getattr(lead_engine, "steal_deadline", None)

    total_items = sum(len(work) for _e, _p, work, _o in collected)
    slots: List = []
    if len(backends) == 1 and total_items > 1:
        slots = backend.pull_slots(lead_engine, max_workers=workers)

    if len(slots) > 1:
        report = _run_scheduled(
            collected,
            backend,
            slots,
            chunk_size=chunk_size,
            steal_deadline=steal_deadline,
            clock=clock,
        )
        report["mode"] = "pull"
        _accumulate(backend, report)
    else:
        # Legacy path: one static backend batch per group.  Serial
        # execution, third-party backends and single-slot pools land here.
        for engine, _plans, work, owners in collected:
            if not work:
                continue
            group_backend = engine._resolve_backend(executor, max_workers)
            group_workers = (
                max_workers if max_workers is not None else engine.max_workers
            )
            run = group_backend.run(engine, work, max_workers=group_workers)
            engine._merge_results(work, owners, run)

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
    slots: List,
    chunk_size: Optional[int],
    steal_deadline: Optional[float],
    clock,
) -> Dict[str, Any]:
    """The pull path: chunk, enqueue, drain with one puller per slot."""
    with TRACER.span(
        "scheduler.pull", category="scheduler",
        groups=len(collected), slots=len(slots),
    ):
        return _run_scheduled_inner(
            collected, backend, slots, chunk_size, steal_deadline, clock,
        )


def _run_scheduled_inner(
    collected,
    backend,
    slots: List,
    chunk_size: Optional[int],
    steal_deadline: Optional[float],
    clock,
) -> Dict[str, Any]:
    group_sizes = [len(work) for _e, _p, work, _o in collected]
    queue = WorkQueue(
        num_groups=len(collected),
        group_sizes=group_sizes,
        clock=clock,
        steal_deadline=steal_deadline,
    )

    per_group: List[List[Chunk]] = []
    for group, (engine, _plans, work, _owners) in enumerate(collected):
        size = (
            chunk_size
            if chunk_size is not None and chunk_size >= 1
            else _auto_chunk_size(len(work), len(slots))
        )
        per_group.append(_chunk_group(engine, group, work, size))
    ordered = _interleave(per_group)
    # Home = the slot static round-robin fan-out would have assigned;
    # a pull by any other slot is a steal.
    for index, chunk in enumerate(ordered):
        chunk.home = slots[index % len(slots)]
        queue.add(chunk)

    pullers = [
        threading.Thread(
            target=_drain,
            args=(queue, backend, slot),
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
    # single-threaded, exactly like the legacy path.
    for group, (engine, _plans, work, owners) in enumerate(collected):
        if work:
            engine._merge_results(work, owners, queue.results[group])

    return dict(queue.counters)


def _slot_lane(slot) -> str:
    """A trace lane per backend slot (remote tokens flattened)."""
    if isinstance(slot, tuple):
        return "slot-" + "-".join(str(part) for part in slot)
    return f"slot-{slot}"


def _chunk_span_name(chunk: Chunk, slot) -> str:
    """Distinct event names per lifecycle kind, so steals and re-splits
    are visually distinguishable in a Chrome trace."""
    if chunk.resplit_of is not None:
        return "scheduler.resplit"
    if chunk.home is not None and chunk.home != slot:
        return "scheduler.steal"
    return "scheduler.chunk"


def _drain(queue: WorkQueue, backend, slot) -> None:
    """One puller: pull, execute, complete, until the queue is done."""
    lane = _slot_lane(slot)
    registry = backend_metrics(backend)
    latency = (
        registry.histogram(SCHEDULER_METRIC_PREFIX + "chunk_latency_s")
        if registry is not None
        else None
    )
    while True:
        chunk = queue.pull(slot)
        if chunk is None:
            return
        started = time.perf_counter()
        with TRACER.span(
            _chunk_span_name(chunk, slot), category="scheduler", lane=lane,
            items=len(chunk.items), group=chunk.group, home=str(chunk.home),
        ):
            try:
                results = backend.run_chunk(
                    chunk.engine, chunk.items, slot=slot
                )
            except Exception as exc:  # infrastructure failure: fail items
                results = [(key, exc) for key, _request in chunk.items]
        if latency is not None:
            latency.observe(time.perf_counter() - started)
        queue.complete(chunk, results)
