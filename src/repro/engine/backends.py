"""Executor backends: how a batch of simulations is actually run.

The evaluation engine separates *what* to simulate (cache-missing
``EvalRequest``s) from *how* to run the misses.  The "how" is an
:class:`ExecutorBackend`, selected by name through a registry that
mirrors the controller registry (:mod:`repro.stonne.controller`):

* :class:`SerialBackend` — inline, one chunk at a time;
* :class:`ThreadBackend` — a thread pool.  Same-layer work in a chunk
  executes as one numpy batch kernel (:func:`simulate_chunk`), and
  numpy releases the GIL inside its array loops, so grouped chunks
  genuinely overlap across threads; only singleton scalar simulations
  still serialize on the GIL;
* :class:`ProcessBackend` — a process pool.  Controllers are pure
  functions of (config, params, layer, mapping) and every piece
  pickles cleanly, so workers rebuild the controller once per process,
  simulate their chunk (grouped through the same batch kernels), and
  ship ``(key, stats)`` pairs back for the parent to merge into its
  :class:`~repro.engine.cache.StatsCache`.

Backends receive work as ``(key, EvalRequest)`` pairs — ``key`` is the
content-addressed cache key (``None`` when caching is off) — and return
``(key, stats_or_exception)`` pairs in submission order.  Exceptions are
captured per item rather than aborting the batch, so one invalid mapping
cannot poison a generation of tuner proposals.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Callable,
    ClassVar,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import ConfigError

#: One unit of backend work: (cache key or None, EvalRequest).
WorkItem = Tuple[Optional[Hashable], "EvalRequest"]  # noqa: F821
#: One backend result: the key plus either stats or the captured error.
WorkResult = Tuple[Optional[Hashable], object]


def _default_workers(requested: Optional[int]) -> int:
    if requested is not None and requested > 0:
        return requested
    return max(2, os.cpu_count() or 2)


class ExecutorBackend:
    """How the engine executes a batch of cache-missing simulations.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`run`.  Backends hold no simulation state of their own — the
    engine passes itself in so backends can reach its config, params and
    functional flag — which keeps one backend shareable across engines.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    def run(
        self,
        engine,
        items: Sequence[WorkItem],
        max_workers: Optional[int] = None,
    ) -> List[WorkResult]:
        """Simulate every item, returning ``(key, stats | exception)``
        pairs in submission order."""
        raise NotImplementedError

    def pull_slots(self, engine, max_workers: Optional[int] = None) -> List:
        """Slot identities for pull-mode scheduling.

        Each slot is an opaque token naming one concurrent execution
        lane (a pool worker, a fleet capacity unit).  The work-stealing
        scheduler spawns one puller per slot; an empty list (the
        default) means the backend only supports static :meth:`run`
        batches.
        """
        return []

    def run_chunk(
        self, engine, items: Sequence[WorkItem], slot=None
    ) -> List[WorkResult]:
        """Execute one scheduler chunk on ``slot``, in submission order.

        Called concurrently from scheduler puller threads, one per slot
        from :meth:`pull_slots` — implementations must be thread-safe
        across distinct slots.  The default runs inline (correct for
        thread-pool semantics, where the puller thread *is* the lane),
        grouping the chunk's same-layer items through the controller's
        batch kernels (:func:`simulate_chunk`).
        """
        local = getattr(engine, "_local_controller", None)
        if local is None:  # duck-typed engines without the controller seam
            return [_simulate_item(engine, item) for item in items]
        pairs = [(request.layer, request.mapping) for _, request in items]
        payloads = simulate_chunk(
            local(), pairs, getattr(engine, "functional", False)
        )
        return [(key, payload) for (key, _), payload in zip(items, payloads)]

    @property
    def metrics(self):
        """The backend's :class:`~repro.obs.metrics.MetricsRegistry`.

        Created lazily on first access (subclasses do not all route
        through a common ``__init__``).  The scheduler accumulates its
        typed counters here under ``scheduler.*`` — see
        :func:`repro.engine.scheduler.backend_counters` for the plain
        dict view — and backends may add their own instruments (the
        remote backend records per-worker fleet health).
        """
        registry = self.__dict__.get("_metrics_registry")
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            self.__dict__["_metrics_registry"] = registry
        return registry

    def close(self) -> None:
        """Release pooled resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def simulate_layer(controller, layer, mapping, functional: bool):
    """Run one cycle-model simulation (plus the exact datapath when
    ``functional``) on an already-built controller.

    This is the single definition of "simulate" shared by the engine's
    in-process path and the process-pool workers, so the two can never
    drift apart.  Outputs of the functional datapath are discarded —
    they never affect stats.
    """
    import numpy as np

    from repro.stonne.layer import ConvLayer, FcLayer

    if isinstance(layer, ConvLayer):
        stats = controller.run_conv(layer, mapping)
    elif isinstance(layer, FcLayer):
        stats = controller.run_fc(layer, mapping)
    else:
        stats = controller.run_gemm(layer)
    if functional:
        from repro.stonne.simulator import _conv_via_gemm

        if isinstance(layer, ConvLayer):
            if layer.layout == "NHWC":
                # NHWC activations / RSCK kernels, transposed around the
                # NCHW core exactly like StonneBifrostApi.conv2d_nhwc.
                from repro.topi.layout import nchw_to_nhwc, nhwc_to_nchw, rsck_to_kcrs

                data = np.ones((layer.N, layer.H, layer.W, layer.C))
                weights = np.ones((layer.R, layer.S, layer.C // layer.G, layer.K))
                out = _conv_via_gemm(
                    nhwc_to_nchw(data), rsck_to_kcrs(weights), layer
                )
                nchw_to_nhwc(out)
            else:
                data = np.ones((layer.N, layer.C, layer.H, layer.W))
                weights = np.ones((layer.K, layer.C // layer.G, layer.R, layer.S))
                _conv_via_gemm(data, weights, layer)
        elif isinstance(layer, FcLayer):
            data = np.ones((layer.batch, layer.in_features))
            weights = np.ones((layer.out_features, layer.in_features))
            data @ weights.T
        else:
            np.ones((layer.M, layer.K)) @ np.ones((layer.K, layer.N))
    return stats


def simulate_layer_batch(controller, layer, mappings) -> List:
    """Simulate one layer under many mappings through the controller's
    batch kernels; returns stats-or-exception per item, in order.

    Each controller has a single cycle model: MAERI's batch kernels
    evaluate it on int64 columns (Python ints for the layers int64
    cannot hold), and the mapping-free fabrics run it once and copy the
    result, so a batch returns exactly what the per-item scalar calls
    would.  A GEMM carries no mapping, so its ``n`` items are ``n``
    copies of one ``run_gemm``.  Duck-typed controllers without the
    batch surface fall back to a scalar loop — batching is an
    optimization, never a requirement.
    """
    from repro.stonne.controller import AcceleratorController, _lowered_gemm_batch
    from repro.stonne.layer import ConvLayer, FcLayer

    if isinstance(layer, ConvLayer):
        batch = getattr(controller, "run_conv_batch", None)
        if batch is not None:
            return batch(layer, mappings)
    elif isinstance(layer, FcLayer):
        batch = getattr(controller, "run_fc_batch", None)
        if batch is not None:
            return batch(layer, mappings)
    elif isinstance(controller, AcceleratorController):
        return _lowered_gemm_batch(controller, layer, mappings)
    results: List = []
    for mapping in mappings:
        try:
            results.append(simulate_layer(controller, layer, mapping, False))
        except Exception as exc:
            results.append(exc)
    return results


def simulate_chunk(controller, pairs, functional: bool) -> List:
    """Payloads (stats or the captured exception) for a chunk of
    ``(layer, mapping)`` pairs, in submission order.

    The chunk-grouping rule: pairs sharing a layer (dataclass equality —
    the engine's structural dedup already collapses same-shape duplicates
    at plan time) form one group, and each multi-item group is simulated
    by a single controller batch-kernel call.  Singleton groups,
    unhashable duck-typed layers and functional mode go through the
    scalar :func:`simulate_layer` seam one at a time, preserving its
    exact behaviour (including test monkeypatching) where batching buys
    nothing.
    """
    groups: Dict = {}
    singles: List[int] = []
    if functional:
        singles = list(range(len(pairs)))
    else:
        for index, (layer, _) in enumerate(pairs):
            try:
                groups.setdefault(layer, []).append(index)
            except TypeError:  # unhashable duck-typed layer
                singles.append(index)
    results: List = [None] * len(pairs)
    for layer, indices in groups.items():
        if len(indices) == 1:
            singles.extend(indices)
            continue
        payloads = simulate_layer_batch(
            controller, layer, [pairs[i][1] for i in indices]
        )
        for index, payload in zip(indices, payloads):
            results[index] = payload
    for index in sorted(singles):
        layer, mapping = pairs[index]
        try:
            results[index] = simulate_layer(controller, layer, mapping, functional)
        except Exception as exc:
            results[index] = exc
    return results


def _simulate_item(engine, item: WorkItem) -> WorkResult:
    """Run one simulation in the calling thread, capturing errors."""
    key, request = item
    try:
        return key, engine._simulate(request.layer, request.mapping)
    except Exception as exc:  # per-item isolation, re-raised by callers
        return key, exc


class SerialBackend(ExecutorBackend):
    """Inline execution — the baseline every other backend must beat.

    Static batches run as one inline chunk, so same-layer groups still
    collapse into batch-kernel calls: the serial default benefits from
    vectorization exactly like the pooled backends.
    """

    name = "serial"

    def run(self, engine, items, max_workers=None):
        return self.run_chunk(engine, items)


class _PooledBackend(ExecutorBackend):
    """Shared pool lifecycle for the thread and process backends.

    The pool is created lazily on first parallel batch, reused across
    batches (spawn cost is paid once per backend), recreated when the
    requested width changes, and released by :meth:`close`.  Batches too
    small to benefit run inline.
    """

    #: concurrent.futures executor class; subclasses set this.
    _pool_factory: ClassVar[type]

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool = None
        self._pool_width = 0

    def _ensure_pool(self, workers: int):
        if self._pool is None or self._pool_width != workers:
            self.close()
            self._pool = self._pool_factory(max_workers=workers)
            self._pool_width = workers
        return self._pool

    def run(self, engine, items, max_workers=None):
        workers = _default_workers(max_workers or self.max_workers)
        if len(items) <= 1 or workers <= 1:
            return [_simulate_item(engine, item) for item in items]
        return self._run_pooled(engine, items, self._ensure_pool(workers))

    def _run_pooled(self, engine, items, pool) -> List[WorkResult]:
        raise NotImplementedError

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_width = 0


class ThreadBackend(_PooledBackend):
    """Thread-pooled execution.

    Each worker thread lazily builds its own controller through the
    engine (cycle-model tallies must not race).  Historically this
    backend "helped little" — not because of anything subtle, but
    because the cycle models were pure Python and therefore fully
    GIL-bound.  With chunks grouped into numpy batch kernels
    (:func:`simulate_chunk`) the array math releases the GIL, so
    scheduler-driven thread runs now overlap for real; see
    ``benchmarks/bench_scheduler.py`` for the measured scenario.
    Per-item static batches (this class's :meth:`run`) remain
    GIL-bound scalar simulations.
    """

    name = "thread"
    _pool_factory = ThreadPoolExecutor

    def _run_pooled(self, engine, items, pool):
        return list(pool.map(lambda item: _simulate_item(engine, item), items))

    def pull_slots(self, engine, max_workers=None):
        workers = _default_workers(max_workers or self.max_workers)
        if workers <= 1:
            return []
        # Pullers are scheduler-owned threads; each builds its own
        # thread-local controller through the engine, so no pool here.
        return list(range(workers))


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
#: Per-worker-process controller cache, keyed by the engine fingerprint.
#: Workers rebuild a controller once and reuse it across chunks, which is
#: what makes generation-sized batches cheap to fan out.
_WORKER_CONTROLLERS: Dict[str, object] = {}


def _process_chunk(spec: Tuple, chunk: List[Tuple]) -> List[Tuple]:
    """Worker entry point: simulate one chunk of (position, key, layer,
    mapping) items under the controller described by ``spec``.

    Runs in the worker process.  Same-layer items group into one batch
    kernel call (:func:`simulate_chunk`).  Returns (position, key,
    stats-or-error) triples; errors are captured so a bad mapping never
    kills the pool.
    """
    fingerprint, controller_cls, config, params, functional = spec
    controller = _WORKER_CONTROLLERS.get(fingerprint)
    if controller is None:
        controller = controller_cls(config, params)
        _WORKER_CONTROLLERS[fingerprint] = controller

    pairs = [(layer, mapping) for _, _, layer, mapping in chunk]
    payloads = simulate_chunk(controller, pairs, functional)
    return [
        (position, key, payload)
        for (position, key, _, _), payload in zip(chunk, payloads)
    ]


class ProcessBackend(_PooledBackend):
    """Process-pooled execution for CPU-bound sweeps.

    Processes sidestep the GIL entirely, which made this the only real
    fan-out for the historical pure-Python models; with chunks grouped
    into numpy batch kernels the thread backend competes again, but
    processes still win when chunks degenerate to singleton scalar
    simulations.  Work is split into one chunk per worker to amortize
    pickling, each worker simulates its chunk with a per-process cached
    controller, and the parent merges the returned ``(key, stats)``
    pairs into its cache.
    """

    name = "process"
    _pool_factory = ProcessPoolExecutor

    def _run_pooled(self, engine, items, pool):
        spec = (
            engine.fingerprint,
            type(engine.controller),
            engine.config,
            engine.params,
            engine.functional,
        )
        indexed = [
            (position, key, request.layer, request.mapping)
            for position, (key, request) in enumerate(items)
        ]
        chunks = [indexed[i :: self._pool_width] for i in range(self._pool_width)]
        chunks = [chunk for chunk in chunks if chunk]
        results: List[WorkResult] = [None] * len(items)  # type: ignore
        for chunk_results in pool.map(
            _process_chunk, [spec] * len(chunks), chunks
        ):
            for position, key, payload in chunk_results:
                results[position] = (key, payload)
        return results

    def pull_slots(self, engine, max_workers=None):
        workers = _default_workers(max_workers or self.max_workers)
        if workers <= 1:
            return []
        self._ensure_pool(workers)
        return list(range(workers))

    def run_chunk(self, engine, items, slot=None):
        if self._pool is None:
            return [_simulate_item(engine, item) for item in items]
        spec = (
            engine.fingerprint,
            type(engine.controller),
            engine.config,
            engine.params,
            engine.functional,
        )
        chunk = [
            (position, key, request.layer, request.mapping)
            for position, (key, request) in enumerate(items)
        ]
        results: List[WorkResult] = [None] * len(items)  # type: ignore
        for position, key, payload in self._pool.submit(
            _process_chunk, spec, chunk
        ).result():
            results[position] = (key, payload)
        return results


# ----------------------------------------------------------------------
# registry (mirrors repro.stonne.controller)
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ExecutorBackend]] = {}


def register_backend(
    name: str,
) -> Callable[[Type[ExecutorBackend]], Type[ExecutorBackend]]:
    """Class decorator registering an executor backend under ``name``."""

    def decorator(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"executor backend {name!r} is already registered to "
                f"{existing.__name__}; unregister it first"
            )
        _REGISTRY[name] = cls
        # Stamp the registry name onto classes that don't declare their
        # own; never mutate one that does (registering a built-in under
        # an alias must not corrupt its original name).
        if "name" not in cls.__dict__:
            cls.name = name
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registration (tests and hot-swapping extensions)."""
    _REGISTRY.pop(name, None)


def _ensure_builtin_backends() -> None:
    for cls in (SerialBackend, ThreadBackend, ProcessBackend):
        _REGISTRY.setdefault(cls.name, cls)
    # The remote backend lives in repro.fleet (it drags in the wire
    # protocol); importing it registers it, making "remote" a first-class
    # registry citizen everywhere backends are listed or resolved.
    try:
        import repro.fleet.remote_backend  # noqa: F401  (import = register)
    except ImportError:  # pragma: no cover - stripped-down installs only;
        pass  # anything else (a real bug in fleet code) must surface


def backend_class(name: str) -> Type[ExecutorBackend]:
    """The registered backend class for ``name``."""
    if name not in _REGISTRY:
        _ensure_builtin_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"no executor backend registered for {name!r}; "
            f"known backends: {sorted(_REGISTRY)}"
        ) from None


def make_backend(
    executor: Union[str, ExecutorBackend, None],
    max_workers: Optional[int] = None,
) -> ExecutorBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to :class:`ThreadBackend` when ``max_workers``
    asks for parallelism and :class:`SerialBackend` otherwise, matching
    the engine's historical defaults.
    """
    if isinstance(executor, ExecutorBackend):
        return executor
    if executor is None:
        executor = "thread" if max_workers is not None and max_workers > 1 else "serial"
    cls = backend_class(executor)
    try:
        return cls(max_workers=max_workers)
    except TypeError:  # backends without pools take no width argument
        return cls()


def registered_backends() -> List[str]:
    """Sorted registry keys, built-ins included."""
    _ensure_builtin_backends()
    return sorted(_REGISTRY)


_ensure_builtin_backends()
