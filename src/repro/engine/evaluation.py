"""The evaluation engine: registry dispatch + memoization + batching.

See the package docstring (:mod:`repro.engine`) for the architecture
overview.  The key design points:

* **Content-addressed keys.**  :func:`evaluation_key` fingerprints the
  *structure* of the evaluation — layer fields (name excluded), mapping
  tiles, and a precomputed digest of (SimulatorConfig, CycleModelParams)
  — so identical work is recognized across layers, sessions and tuner
  runs.  The config/params digest is computed once per engine, keeping
  the per-evaluation key a cheap tuple of scalars.
* **Copy-on-hit.**  Cache hits return an independent
  :class:`~repro.stonne.stats.SimulationStats` with ``layer_name``
  rewritten to the requesting layer's name, so records stay attributable
  even when they were produced by a different layer of the same shape.
* **Pluggable batching.**  ``evaluate_many`` splits a batch into cache
  hits and misses and hands the misses to an executor backend
  (:mod:`repro.engine.backends`): serial, threaded, or one worker
  process per slot.  Batch-internal duplicates simulate once.  Worker
  threads lazily build their own controller (controllers keep internal
  tallies, e.g. the accumulation buffer's write counters, which must
  not race); worker processes return ``(key, stats)`` pairs that merge
  into the parent cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.stonne.controller import AcceleratorController, make_controller
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.stats import SimulationStats

from repro.engine.backends import ExecutorBackend, make_backend
from repro.engine.cache import StatsCache
from repro.obs.trace import TRACER

Layer = Union[ConvLayer, FcLayer, GemmLayer]
Mapping = Union[ConvMapping, FcMapping]


def fingerprint_config(
    config, params: CycleModelParams, controller_cls: Optional[type] = None
) -> str:
    """Digest of a (SimulatorConfig, CycleModelParams[, controller]) triple.

    Canonical JSON over sorted keys, hashed; any object with ``to_dict``
    (or plain attributes) works, so mock configs fingerprint too.  The
    controller class is part of the digest so hot-swapped registrations
    (same ``controller_type``, different model) never share cache entries.
    """
    if hasattr(config, "to_dict"):
        config_dict = config.to_dict()
    else:  # mock / duck-typed configs
        config_dict = {
            k: str(v) for k, v in vars(config).items() if not k.startswith("_")
        }
    payload = json.dumps(
        {
            "config": config_dict,
            "params": asdict(params),
            "controller": (
                f"{controller_cls.__module__}.{controller_cls.__qualname__}"
                if controller_cls is not None
                else None
            ),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Per-class cache of non-name field names: ``dataclasses.fields`` builds
#: a fresh tuple of Field objects on every call, which showed up in
#: profiles when keying generation-sized tuner batches.
_LAYER_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _layer_field_names(cls: type) -> Tuple[str, ...]:
    names = _LAYER_FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls) if f.name != "name")
        _LAYER_FIELD_NAMES[cls] = names
    return names


@lru_cache(maxsize=4096)
def _layer_key_cached(layer) -> Tuple:
    return tuple(getattr(layer, name) for name in _layer_field_names(type(layer)))


def _layer_key(layer: Layer) -> Tuple:
    """Structural identity of a layer: every field except its name.

    Memoized on the layer itself — the built-in layers are frozen,
    hashable dataclasses, and a tuner batch keys the same few layer
    objects thousands of times.  Unhashable duck-typed layers fall back
    to direct reflection.
    """
    try:
        return _layer_key_cached(layer)
    except TypeError:
        return tuple(
            getattr(layer, f.name) for f in fields(layer) if f.name != "name"
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
        batch-local result when the LRU bound already evicted it)."""
        for position, key in self._duplicates:
            if key in self._miss_errors:
                # The first occurrence failed; its error stands in here too.
                self.results[position] = self._miss_errors[key]
                continue
            cached = self.engine.cache.get(key)
            if cached is None:
                # Already evicted (LRU bound smaller than the batch's
                # distinct misses); serve the batch-local result instead.
                cached = self._miss_stats[key]
            # Attribute a copy — never rename a shared object in place
            # (a duck-typed cache may have returned its stored record).
            self.results[position] = cached.clone(
                layer_name=self.requests[position].layer.name
            )


class EvaluationEngine:
    """Cached, batched evaluation of one accelerator configuration.

    Args:
        config: Hardware configuration; resolved through the controller
            registry.
        params: Cycle-model calibration constants.
        cache: A shared :class:`StatsCache`; a private one is created
            when omitted.  Sharing a cache across engines is safe — the
            config/params fingerprint is part of every key.
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
        max_workers: Default pool width for :meth:`evaluate_many`.
        chunk_size: Items per scheduler chunk
            (:mod:`repro.engine.scheduler`); ``None`` sizes chunks
            automatically from the batch and slot count.
    """

    def __init__(
        self,
        config,
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
        self._thread_local = threading.local()
        #: Per-call override backends, keyed by (executor name, width).
        self._override_backends: dict = {}

    # ------------------------------------------------------------------
    @property
    def requires_mapping(self) -> bool:
        """Whether the configured architecture consumes dataflow mappings."""
        return self.controller.requires_mapping

    @property
    def fingerprint(self) -> str:
        """Digest identifying this engine's (config, params) pair."""
        return self._fingerprint

    def _local_controller(self) -> AcceleratorController:
        """A per-thread controller (cycle-model tallies must not race).

        Instantiates the class resolved at engine construction rather than
        re-querying the registry, so a later registry hot-swap cannot make
        worker threads disagree with :attr:`controller` or the fingerprint.
        """
        controller = getattr(self._thread_local, "controller", None)
        if controller is None:
            controller = type(self.controller)(self.config, self.params)
            self._thread_local.controller = controller
        return controller

    # ------------------------------------------------------------------
    def _simulate(self, layer: Layer, mapping: Optional[Mapping]) -> SimulationStats:
        from repro.engine.backends import simulate_layer

        return simulate_layer(
            self._local_controller(), layer, mapping, self.functional
        )

    # ------------------------------------------------------------------
    def evaluate(
        self, layer: Layer, mapping: Optional[Mapping] = None
    ) -> SimulationStats:
        """Stats for simulating ``layer`` (cache-first, then simulate)."""
        if not isinstance(layer, (ConvLayer, FcLayer, GemmLayer)):
            raise SimulationError(
                f"EvaluationEngine expects ConvLayer/FcLayer/GemmLayer, "
                f"got {type(layer).__name__}"
            )
        with self._counter_lock:
            self.num_evaluations += 1
        if not self.cache_enabled:
            stats = self._simulate(layer, mapping)
            with self._counter_lock:
                self.num_simulations += 1
            return stats

        key = evaluation_key(self._fingerprint, layer, mapping)
        cached = self.cache.get(key)
        if cached is not None:
            # Attribute a copy rather than renaming in place: the
            # built-in tiers return private copies, but a duck-typed
            # cache may hand back its stored record, and mutating that
            # would rename every earlier hit of the same key.
            return cached.clone(layer_name=layer.name)
        stats = self._simulate(layer, mapping)
        with self._counter_lock:
            self.num_simulations += 1
        self.cache.put(key, stats)
        return stats

    def evaluate_request(self, request: EvalRequest) -> SimulationStats:
        return self.evaluate(request.layer, request.mapping)

    def _resolve_backend(
        self,
        executor: Union[str, ExecutorBackend, None],
        max_workers: Optional[int],
    ) -> ExecutorBackend:
        """The backend one ``evaluate_many`` call should use.

        An explicit ``executor`` wins; an explicit ``max_workers`` keeps
        the historical behaviour (threads above 1, inline otherwise);
        everything else uses the engine's configured backend.  Override
        backends are cached per (name, width) so repeated calls reuse
        one pool, and :meth:`close` shuts them all down.
        """
        if executor is None and max_workers is None:
            return self.backend
        if isinstance(executor, ExecutorBackend):
            return executor  # caller-owned; the caller closes it
        key = (executor, max_workers)
        backend = self._override_backends.get(key)
        if backend is None:
            backend = make_backend(executor, max_workers)
            self._override_backends[key] = backend
        return backend

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

        pending_keys: set = set()
        with TRACER.span("cache.lookup", category="cache") as span:
            for position, request in enumerate(normalized):
                key = evaluation_key(
                    self._fingerprint, request.layer, request.mapping
                )
                if key in pending_keys:
                    # Resolved from the cache after the first occurrence
                    # runs, mirroring what a serial loop would do.
                    plan._duplicates.append((position, key))
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    # An attributed *copy*, mirroring run_plans'
                    # semantics: renaming the returned object in place
                    # would alias two plans onto one record whenever the
                    # cache's get() does not copy (duck-typed caches),
                    # letting the second scenario rename the first's
                    # result.
                    plan.results[position] = cached.clone(
                        layer_name=request.layer.name
                    )
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
                        # gets an independent, re-attributed copy.
                        stats = payload.clone()
                        stats.layer_name = (
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
        max_workers: Optional[int] = None,
        executor: Union[str, ExecutorBackend, None] = None,
        return_errors: bool = False,
    ) -> dict:
        """Execute the pending misses of one or more plans as one batch.

        The misses of every plan are flattened into a single backend
        batch with *cross-plan* key dedup — a layer shared by several
        plans (scenarios of a sweep) simulates exactly once and every
        plan receives an independently attributed copy.  Results merge
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
                [(self, plans)],
                max_workers=max_workers,
                executor=executor,
                return_errors=return_errors,
            )

    def evaluate_many(
        self,
        requests: Iterable[Union[EvalRequest, Layer]],
        max_workers: Optional[int] = None,
        executor: Union[str, ExecutorBackend, None] = None,
        return_errors: bool = False,
    ) -> List[SimulationStats]:
        """Evaluate a batch, preserving order.

        Bare layers are accepted as shorthand for mapping-less requests.
        The batch is split into cache hits and misses; misses — deduped,
        so a key appearing twice in one batch simulates once — run on the
        executor backend (the engine's, or a per-call override via
        ``executor``/``max_workers``) and merge back into the cache.
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
        self.run_plans(
            [plan],
            max_workers=max_workers,
            executor=executor,
            return_errors=return_errors,
        )
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
        """Release backend pools (worker threads/processes), if any —
        the engine's own backend plus any cached per-call overrides."""
        self.backend.close()
        for backend in self._override_backends.values():
            backend.close()
        self._override_backends.clear()
