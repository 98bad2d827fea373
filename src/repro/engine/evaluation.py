"""The evaluation engine: registry dispatch + memoization + batching.

See the package docstring (:mod:`repro.engine`) for the architecture
overview.  The key design points:

* **Content-addressed keys.**  :func:`evaluation_key` fingerprints the
  *structure* of the evaluation — layer fields (name excluded), mapping
  tiles, and a precomputed digest of (SimulatorConfig, CycleModelParams)
  — so identical work is recognized across layers, sessions and tuner
  runs.  The config/params digest is computed once per engine, keeping
  the per-evaluation key a cheap tuple of scalars.
* **Shared, immutable records.**  A cache hit is the cached (frozen)
  :class:`~repro.stonne.stats.SimulationStats` itself, renamed to the
  requesting layer only when the names differ
  (:meth:`~repro.stonne.stats.SimulationStats.renamed` builds the new
  record), so records stay attributable even when they were produced by
  a different layer of the same shape, and no hit costs a copy.
* **One evaluation path.**  ``evaluate_many`` splits a batch into cache
  hits and misses and hands the misses to the pull scheduler
  (:mod:`repro.engine.scheduler`), which runs them on an executor
  backend (:mod:`repro.engine.backends`): serial, threaded, one worker
  process per slot, or a fleet.  ``evaluate`` is a one-request batch,
  so a single evaluation takes the same path.  Batch-internal
  duplicates simulate once.  Controllers hold no state after
  construction, so every thread slot shares :attr:`controller`; worker
  processes build one controller each and return ``(key, stats)`` pairs
  that merge into the parent cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.stonne.config import SimulatorConfig
from repro.stonne.controller import AcceleratorController, make_controller
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.stats import SimulationStats, field_names

from repro.engine.backends import ExecutorBackend, make_backend
from repro.engine.cache import StatsCache
from repro.obs.trace import TRACER

Layer = Union[ConvLayer, FcLayer, GemmLayer]
Mapping = Union[ConvMapping, FcMapping]


def fingerprint_config(
    config: SimulatorConfig, params: CycleModelParams, controller_cls: type
) -> str:
    """Digest of a (SimulatorConfig, CycleModelParams, controller) triple.

    Canonical JSON over sorted keys (the config's ``to_dict``), hashed.
    The controller class is part of the digest so hot-swapped
    registrations (same ``controller_type``, different model) never share
    cache entries.
    """
    payload = json.dumps(
        {
            "config": config.to_dict(),
            "params": asdict(params),
            "controller": f"{controller_cls.__module__}.{controller_cls.__qualname__}",
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@lru_cache(maxsize=4096)
def _layer_key(layer: Layer) -> Tuple:
    """Structural identity of a layer: every field except its name.

    Memoized on the layer itself — the layers are frozen, hashable
    dataclasses, and a tuner batch keys the same few layer objects
    thousands of times.
    """
    return tuple(
        getattr(layer, name) for name in field_names(type(layer)) if name != "name"
    )


def evaluation_key(
    config_fingerprint: str, layer: Layer, mapping: Optional[Mapping]
) -> Hashable:
    """The cache key for simulating ``layer`` under ``mapping``."""
    mapping_key = None if mapping is None else mapping.as_tuple()
    return (
        config_fingerprint,
        type(layer).__name__,
        _layer_key(layer),
        type(mapping).__name__ if mapping is not None else None,
        mapping_key,
    )


@dataclass(frozen=True)
class EvalRequest:
    """One unit of work for :meth:`EvaluationEngine.evaluate_many`."""

    layer: Layer
    mapping: Optional[Mapping] = None


class BatchPlan:
    """A planned ``evaluate_many`` call whose misses are still pending.

    Produced by :meth:`EvaluationEngine.plan_many`: cache hits are
    resolved immediately into :attr:`results`, batch-internal duplicate
    keys are parked, and the deduplicated misses wait in the plan until
    :meth:`EvaluationEngine.run_plans` executes them.  Splitting the two
    phases is what lets a sweep driver collect the plans of *several*
    scenarios first and then flatten all their misses into one executor
    batch — cross-scenario duplicates simulate once and the pool sees
    the widest possible batch.
    """

    __slots__ = (
        "engine",
        "requests",
        "results",
        "_pending",
        "_duplicates",
        "_miss_stats",
        "_miss_errors",
    )

    def __init__(self, engine: "EvaluationEngine", requests: List[EvalRequest]):
        self.engine = engine
        self.requests = requests
        #: One slot per request; hits are filled at plan time, misses
        #: (and their duplicates) after :meth:`EvaluationEngine.run_plans`.
        self.results: List[Optional[SimulationStats]] = [None] * len(requests)
        self._pending: List[Tuple[Optional[Hashable], int]] = []
        self._duplicates: List[Tuple[int, Hashable]] = []
        self._miss_stats: dict = {}
        self._miss_errors: dict = {}

    @property
    def num_pending(self) -> int:
        """Deduplicated misses still waiting for execution."""
        return len(self._pending)

    def counters(self) -> dict:
        """This plan's own bookkeeping (scenario-scoped, unlike the
        engine's cumulative :meth:`EvaluationEngine.counters`).

        ``cache_hits`` counts results resolved at plan time,
        ``batch_duplicates`` the in-plan repeats of a pending key, and
        ``unique_misses`` the work this plan contributed to the flattened
        batch — which may still simulate on another plan's behalf (the
        engine, not the plan, knows what actually ran).
        """
        return {
            "num_evaluations": len(self.requests),
            "cache_hits": (
                len(self.requests)
                - len(self._pending)
                - len(self._duplicates)
            ),
            "batch_duplicates": len(self._duplicates),
            "unique_misses": len(self._pending),
        }

    def _record(self, position: int, key, payload) -> None:
        """Store one executed miss (stats or captured exception)."""
        if isinstance(payload, Exception):
            self._miss_errors[key] = payload
        else:
            self._miss_stats[key] = payload
        self.results[position] = payload

    def _resolve_duplicates(self) -> None:
        """Fill the parked duplicate slots from the cache (or the
        batch-local result when the LRU bound already evicted it).

        One ``get`` per slot, as a serial loop would count them: two
        repeats of an evicted key are two misses.  Repeats are rare and
        their first occurrence was just written, so they stay out of
        the plan's one ``get_many``.
        """
        get = self.engine.cache.get
        for position, key in self._duplicates:
            if key in self._miss_errors:
                # The first occurrence failed; its error stands in here too.
                self.results[position] = self._miss_errors[key]
                continue
            cached = get(key)
            if cached is None:
                # Already evicted (LRU bound smaller than the batch's
                # distinct misses); serve the batch-local result instead.
                cached = self._miss_stats[key]
            self.results[position] = cached.renamed(
                self.requests[position].layer.name
            )


class EvaluationEngine:
    """Cached, batched evaluation of one accelerator configuration.

    Args:
        config: Hardware configuration; resolved through the controller
            registry.
        params: Cycle-model calibration constants.
        cache: A shared :class:`StatsCache`; a private one is created
            when omitted.  Sharing a cache across engines is safe — the
            config/params fingerprint is part of every key.  Any object
            serves whose ``get_many``, ``get`` and ``put_many`` match
            the :class:`StatsCache` ones: one ``get_many`` per plan, one
            ``get`` per in-plan repeat of a miss, one ``put_many`` per
            merge (:meth:`counters` also reads ``hits``, ``misses``,
            ``hit_rate`` and ``len``).
        cache_enabled: When False every evaluation simulates (the cache
            is neither consulted nor populated); counters still track.
        functional: When True every *simulation* also executes the exact
            datapath (im2col GEMM) with synthetic tensors, reproducing
            real STONNE's cost profile where the exact objective requires
            a full simulation.  Statistics are identical either way.
        executor: How :meth:`evaluate_many` runs cache misses: a backend
            name from :func:`repro.engine.backends.registered_backends`
            ("serial"/"thread"/"process") or an
            :class:`~repro.engine.backends.ExecutorBackend` instance.
            ``None`` keeps the historical default — threads when
            ``max_workers`` asks for parallelism, inline otherwise.
        max_workers: Pool width of the executor backend.
        chunk_size: Items per scheduler chunk
            (:mod:`repro.engine.scheduler`); ``None`` sizes chunks
            automatically from the batch and slot count.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
        cache: Optional[StatsCache] = None,
        cache_enabled: bool = True,
        functional: bool = False,
        executor: Union[str, ExecutorBackend, None] = None,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.cache = cache if cache is not None else StatsCache()
        self.cache_enabled = cache_enabled
        self.functional = functional
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.backend: ExecutorBackend = make_backend(executor, max_workers)
        self.controller: AcceleratorController = make_controller(config, params)
        self.num_evaluations = 0
        self.num_simulations = 0
        self._fingerprint = fingerprint_config(
            config, params, type(self.controller)
        )
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def requires_mapping(self) -> bool:
        """Whether the configured architecture consumes dataflow mappings."""
        return self.controller.requires_mapping

    @property
    def fingerprint(self) -> str:
        """Digest identifying this engine's (config, params) pair."""
        return self._fingerprint

    # ------------------------------------------------------------------
    def evaluate(
        self, layer: Layer, mapping: Optional[Mapping] = None
    ) -> SimulationStats:
        """Stats for simulating ``layer``: a one-request
        :meth:`evaluate_many`, so it takes the same cache-first path and
        runs a miss on the engine's executor backend like any batch."""
        return self.evaluate_many([EvalRequest(layer, mapping)])[0]

    def plan_many(
        self, requests: Iterable[Union[EvalRequest, Layer]]
    ) -> BatchPlan:
        """Resolve a batch's cache hits and collect its pending misses.

        The first half of :meth:`evaluate_many`: bare layers are
        normalized to mapping-less requests, cache hits fill their
        result slots immediately, batch-internal duplicate keys are
        parked, and the deduplicated misses wait in the returned
        :class:`BatchPlan` until :meth:`run_plans` executes them.
        Sweep drivers call this once per scenario and then run every
        plan in one flattened executor batch.
        """
        with TRACER.span("engine.plan_many", category="engine") as span:
            plan = self._plan_many(requests)
            span.set(requests=len(plan.requests), pending=plan.num_pending)
            return plan

    def _plan_many(
        self, requests: Iterable[Union[EvalRequest, Layer]]
    ) -> BatchPlan:
        normalized: List[EvalRequest] = [
            r if isinstance(r, EvalRequest) else EvalRequest(layer=r)
            for r in requests
        ]
        for request in normalized:
            if not isinstance(request.layer, (ConvLayer, FcLayer, GemmLayer)):
                raise SimulationError(
                    f"EvaluationEngine expects ConvLayer/FcLayer/GemmLayer, "
                    f"got {type(request.layer).__name__}"
                )
        plan = BatchPlan(self, normalized)
        with self._counter_lock:
            self.num_evaluations += len(normalized)

        if not self.cache_enabled:
            # No keys, no dedup: every request simulates.
            plan._pending = [(None, position) for position in range(len(normalized))]
            return plan

        fingerprint = self._fingerprint
        keys = [
            evaluation_key(fingerprint, request.layer, request.mapping)
            for request in normalized
        ]
        pending_keys: set = set()
        with TRACER.span("cache.lookup", category="cache") as span:
            found = self.cache.get_many(keys)
            for position, (key, cached) in enumerate(zip(keys, found)):
                if cached is not None:
                    plan.results[position] = cached.renamed(
                        normalized[position].layer.name
                    )
                elif key in pending_keys:
                    # A repeat of a miss: resolved from the cache after
                    # the first occurrence runs, as a serial loop would.
                    plan._duplicates.append((position, key))
                else:
                    pending_keys.add(key)
                    plan._pending.append((key, position))
            span.set(
                lookups=len(normalized),
                hits=len(normalized) - len(plan._pending) - len(plan._duplicates),
                misses=len(plan._pending),
                duplicates=len(plan._duplicates),
            )
        return plan

    def _collect_pending(
        self, plans: Sequence[BatchPlan]
    ) -> Tuple[List[Tuple[Optional[Hashable], EvalRequest]], List[List[Tuple[BatchPlan, int]]]]:
        """Flatten several plans' misses into one deduplicated work list.

        Returns ``(work, owners)``: one ``(key, request)`` item per
        distinct pending key across all plans, plus the (plan, position)
        slots each item must fill — cross-plan duplicates share one
        work item with multiple owners.
        """
        work: List[Tuple[Optional[Hashable], EvalRequest]] = []
        owners: List[List[Tuple[BatchPlan, int]]] = []
        slot_by_key: dict = {}
        for plan in plans:
            for key, position in plan._pending:
                if key is not None:
                    slot = slot_by_key.get(key)
                    if slot is not None:
                        owners[slot].append((plan, position))
                        continue
                    slot_by_key[key] = len(work)
                work.append((key, plan.requests[position]))
                owners.append([(plan, position)])
        return work, owners

    def _merge_results(
        self,
        work: Sequence[Tuple[Optional[Hashable], EvalRequest]],
        owners: Sequence[List[Tuple[BatchPlan, int]]],
        run: Sequence[Tuple[Optional[Hashable], object]],
    ) -> None:
        """Merge executed work back into the cache (one ``put_many``) and
        the owning plans.

        Single-threaded by design (cache writes and plan mutation never
        race); counts each distinct successful item as one simulation
        regardless of which slot executed it, so counters stay
        deterministic.
        """
        simulated = 0
        puts: List[Tuple[Hashable, SimulationStats]] = []
        for slot, result in enumerate(run):
            key, payload = result if result is not None else (work[slot][0], None)
            if payload is None:
                payload = SimulationError(
                    "backend returned no result for a submitted item"
                )
            if isinstance(payload, Exception):
                for plan, position in owners[slot]:
                    plan._record(position, key, payload)
            else:
                simulated += 1
                if self.cache_enabled and key is not None:
                    puts.append((key, payload))
                for index, (plan, position) in enumerate(owners[slot]):
                    stats = payload
                    if index > 0:
                        # Cross-plan shared result: every other plan
                        # gets it attributed to its own layer.
                        stats = payload.renamed(
                            plan.requests[position].layer.name
                        )
                    plan._record(position, key, stats)
        if puts:
            # One call per merge: the SQLite tier commits it as one
            # transaction instead of one per simulated layer.
            with TRACER.span("cache.put_many", category="cache",
                             items=len(puts)):
                self.cache.put_many(puts)
        with self._counter_lock:
            self.num_simulations += simulated

    def run_plans(
        self,
        plans: Sequence[BatchPlan],
        return_errors: bool = False,
    ) -> dict:
        """Execute the pending misses of one or more plans as one batch.

        The misses of every plan are flattened into a single backend
        batch with *cross-plan* key dedup — a layer shared by several
        plans (scenarios of a sweep) simulates exactly once and every
        plan receives it attributed to its own layer.  Results merge
        into the cache and into each plan's ``results``; parked
        duplicates resolve afterwards.

        The work runs through the pull scheduler
        (:func:`repro.engine.scheduler.run_plan_groups`); results are
        bit-identical on every backend.

        Per-request failures abort by re-raising the first one unless
        ``return_errors`` is True, in which case the failed slots hold
        the exception instances instead of stats (every plan is still
        fully resolved before the raise).  Returns the scheduler's
        counter report for this call.
        """
        from repro.engine.scheduler import run_plan_groups

        for plan in plans:
            if plan.engine is not self:
                raise SimulationError(
                    "run_plans received a BatchPlan built by a different engine"
                )
        with TRACER.span(
            "engine.run_plans", category="engine",
            plans=len(plans),
            pending=sum(plan.num_pending for plan in plans),
        ):
            return run_plan_groups(
                [(self, plans)], return_errors=return_errors
            )

    def evaluate_many(
        self,
        requests: Iterable[Union[EvalRequest, Layer]],
        return_errors: bool = False,
    ) -> List[SimulationStats]:
        """Evaluate a batch, preserving order.

        Bare layers are accepted as shorthand for mapping-less requests.
        The batch is split into cache hits and misses; misses — deduped,
        so a key appearing twice in one batch simulates once — run on the
        engine's executor backend and merge back into the cache.
        Internally this is a single-plan sweep batch:
        :meth:`plan_many` followed by :meth:`run_plans`, the same path
        multi-scenario sweeps use.

        Per-request failures abort the batch by re-raising the first one
        unless ``return_errors`` is True, in which case the failed slots
        hold the exception instances instead of stats.
        """
        plan = self.plan_many(requests)
        if not plan.requests:
            return []
        self.run_plans([plan], return_errors=return_errors)
        return plan.results

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    def counters(self) -> dict:
        """Snapshot of the engine's bookkeeping, for reports/benchmarks."""
        return {
            "num_evaluations": self.num_evaluations,
            "num_simulations": self.num_simulations,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_size": len(self.cache),
            "cache_hit_rate": self.cache.hit_rate,
            "executor": self.backend.name,
        }

    def close(self) -> None:
        """Release the backend's pools (worker threads/processes), if any."""
        self.backend.close()
