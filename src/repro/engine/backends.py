"""Executor backends: how a batch of simulations is actually run.

The evaluation engine separates *what* to simulate (cache-missing
``EvalRequest``s) from *how* to run the misses.  The "how" is an
:class:`ExecutorBackend`, selected by name through a registry that
mirrors the controller registry (:mod:`repro.stonne.controller`):

* :class:`SerialBackend` — one inline slot: the scheduler drains each
  group as a single chunk on the caller's thread;
* :class:`ThreadBackend` — one scheduler puller thread per slot.
  Same-layer work in a chunk executes as one numpy batch kernel
  (:func:`simulate_chunk`), and numpy releases the GIL inside its array
  loops, so grouped chunks genuinely overlap across threads; only
  singleton scalar simulations still serialize on the GIL;
* :class:`ProcessBackend` — one worker process per pull slot, each on
  its own pipe (slot = worker = pipe).  Controllers are pure functions
  of (config, params, layer, mapping) and every piece pickles cleanly,
  so workers rebuild the controller once per process, simulate their
  chunk (grouped through the same batch kernels), and ship
  ``(key, stats)`` pairs back for the parent to merge into its
  :class:`~repro.engine.cache.StatsCache`.  Workers start with the
  platform's default start method; a dead worker is respawned before
  its slot's next chunk, and one that dies mid-chunk fails that chunk
  with a typed :class:`~repro.errors.SimulationError`.

Every backend runs work through :meth:`ExecutorBackend.run_chunk`, one
scheduler chunk at a time, on the slots its
:meth:`~ExecutorBackend.pull_slots` names
(:mod:`repro.engine.scheduler`).  The thread and process backends set
:attr:`~ExecutorBackend.slots_share_host`: under automatic chunking
every group runs as one chunk on the caller's thread, in-process, and
only an explicit ``chunk_size`` reaches the slots.  On a 2-vCPU host
the 2-worker process pool lost to serial on every cold case measured:
one 33-item group took 3.8–9.4 ms against 1.0 ms, one 256-item group
14–30 ms against 5.4–7.3 ms, and a ``functional`` 9-scenario sweep
still ran slower pooled than serial.

Backends receive work as ``(key, EvalRequest)`` pairs — ``key`` is the
content-addressed cache key (``None`` when caching is off) — and return
``(key, stats_or_exception)`` pairs in submission order.  Exceptions are
captured per item rather than aborting the batch, so one invalid mapping
cannot poison a generation of tuner proposals.
"""

from __future__ import annotations

import os
import threading
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

from repro.errors import ConfigError, SimulationError

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

    Subclasses set :attr:`name` (the registry key) and may override
    :meth:`run_chunk` and :meth:`pull_slots`; a backend that overrides
    neither runs inline on one slot.  Backends hold no simulation state
    of their own — the engine passes itself in so backends can reach
    its config, params and functional flag — which keeps one backend
    shareable across engines.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    #: True when every slot runs on this host's CPUs (threads, local
    #: worker processes).  Under automatic chunking the scheduler then
    #: runs every group as one chunk on the caller's thread instead of
    #: sending it to a slot (:mod:`repro.engine.scheduler`).
    slots_share_host: ClassVar[bool] = False

    def pull_slots(self, engine, max_workers: Optional[int] = None) -> List:
        """Slot identities for the pull scheduler (at least one).

        Each slot is an opaque token naming one concurrent execution
        lane (a worker process, a fleet capacity unit).  The scheduler
        spawns one puller per slot, or drains on the caller's thread
        when there is only one (the default).
        """
        return [0]

    def run(
        self,
        engine,
        items: Sequence[WorkItem],
        max_workers: Optional[int] = None,
    ) -> List[WorkResult]:
        """:meth:`run_chunk` on no particular slot.  The library never
        calls it; it stays because the end-to-end benchmark's span table
        (``bench/spans.py``) wraps it by name."""
        return self.run_chunk(engine, items)

    def run_chunk(
        self, engine, items: Sequence[WorkItem], slot=None
    ) -> List[WorkResult]:
        """Execute one scheduler chunk on ``slot``, in submission order.

        Called concurrently from scheduler puller threads, one per slot
        from :meth:`pull_slots` — implementations must be thread-safe
        across distinct slots.  The default runs inline (correct for
        thread semantics, where the puller thread *is* the lane),
        grouping the chunk's same-layer items through the controller's
        batch kernels (:func:`simulate_chunk`).
        """
        pairs = [(request.layer, request.mapping) for _, request in items]
        payloads = simulate_chunk(engine.controller, pairs, engine.functional)
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
        """Release worker resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def simulate_layer(controller, layer, mapping, functional: bool):
    """Run one cycle-model simulation (plus the exact datapath when
    ``functional``) on a controller, which may be shared across threads.

    This is the single definition of "simulate": :func:`simulate_chunk`
    runs every singleton group and every functional item through it, in
    every backend's slots alike.  The datapath is TOPI's conv2d
    (:mod:`repro.topi.conv2d`, the operator the Bifrost API runs) or a
    GEMM on all-ones tensors; its outputs are discarded — they never
    affect stats.
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
        if isinstance(layer, ConvLayer):
            from repro.topi import conv2d

            args = (
                (layer.stride_h, layer.stride_w), (layer.pad_h, layer.pad_w),
                (layer.dil_h, layer.dil_w), layer.G,
            )
            if layer.layout == "NHWC":
                # NHWC activations / RSCK kernels, transposed around the
                # NCHW core like StonneBifrostApi.conv2d_nhwc.
                data = np.ones((layer.N, layer.H, layer.W, layer.C))
                weights = np.ones((layer.R, layer.S, layer.C // layer.G, layer.K))
                conv2d.conv2d_nhwc(data, weights, *args)
            else:
                data = np.ones((layer.N, layer.C, layer.H, layer.W))
                weights = np.ones((layer.K, layer.C // layer.G, layer.R, layer.S))
                conv2d.conv2d_nchw(data, weights, *args)
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
    cannot hold), and the mapping-free fabrics run it once and share
    the (immutable) result, so a batch returns exactly what the
    per-item scalar calls would.  A GEMM carries no mapping, so its
    ``n`` items are one ``run_gemm`` record ``n`` times.
    """
    from repro.stonne.controller import _lowered_gemm_batch
    from repro.stonne.layer import ConvLayer, FcLayer

    if isinstance(layer, ConvLayer):
        return controller.run_conv_batch(layer, mappings)
    if isinstance(layer, FcLayer):
        return controller.run_fc_batch(layer, mappings)
    return _lowered_gemm_batch(controller, layer, mappings)


def simulate_chunk(controller, pairs, functional: bool) -> List:
    """Payloads (stats or the captured exception) for a chunk of
    ``(layer, mapping)`` pairs, in submission order.

    The chunk-grouping rule: pairs sharing a layer (dataclass equality —
    the engine's structural dedup already collapses same-shape duplicates
    at plan time) form one group, and each multi-item group is simulated
    by a single controller batch-kernel call.  Singleton groups and
    functional mode go through the scalar :func:`simulate_layer` seam one
    at a time, preserving its exact behaviour (including test
    monkeypatching) where batching buys nothing.
    """
    groups: Dict = {}
    singles: List[int] = []
    if functional:
        singles = list(range(len(pairs)))
    else:
        for index, (layer, _) in enumerate(pairs):
            groups.setdefault(layer, []).append(index)
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


class SerialBackend(ExecutorBackend):
    """Inline execution — the baseline every other backend must beat.

    One slot, so the scheduler runs each group as one inline chunk and
    same-layer groups still collapse into batch-kernel calls: the serial
    default benefits from vectorization exactly like the parallel
    backends.
    """

    name = "serial"
    run = ExecutorBackend.run  # wrapped by name in bench/spans.py


class ThreadBackend(ExecutorBackend):
    """Threaded execution: one scheduler puller thread per slot.

    Every puller runs on the engine's one controller: controllers hold
    no state after construction, so slots share it without a lock.
    Chunks run grouped into numpy batch kernels (:func:`simulate_chunk`)
    whose array math releases the GIL, so thread slots overlap;
    ``benchmarks/bench_scheduler.py`` measures it with an explicit
    ``chunk_size``.  Under automatic
    chunking every group runs as one chunk on the caller's thread and
    no puller starts.
    """

    name = "thread"
    slots_share_host = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def pull_slots(self, engine, max_workers=None):
        return list(range(_default_workers(max_workers or self.max_workers)))


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
#: Per-worker-process controller cache, keyed by the engine fingerprint.
#: Workers rebuild a controller once and reuse it across chunks, which is
#: what makes generation-sized batches cheap to fan out.
_WORKER_CONTROLLERS: Dict[str, object] = {}


def _process_chunk(spec: Tuple, chunk: List[Tuple]) -> List[Tuple]:
    """Simulate one chunk of (position, key, layer, mapping) items under
    the controller described by ``spec``.

    Runs in the worker process.  Same-layer items group into one batch
    kernel call (:func:`simulate_chunk`).  Returns (position, key,
    stats-or-error) triples; errors are captured so a bad mapping never
    kills the worker.
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


#: Seconds a worker gets to exit (after the sentinel, or after its pipe
#: broke) before it is terminated.
_JOIN_TIMEOUT_S = 5.0


def _worker_loop(conn) -> None:
    """Worker process body: answer ``(spec, chunk)`` messages on ``conn``
    with :func:`_process_chunk`'s triples until the ``None`` sentinel
    (or until the parent is gone)."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        try:
            reply = _process_chunk(*message)
        except Exception as exc:  # re-raised in the parent's run_chunk
            reply = exc
        conn.send(reply)


class _Worker:
    """One slot's worker process, the parent's end of its pipe, and the
    lock that serializes round trips on it."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.start()

    def start(self) -> None:
        import multiprocessing

        context = multiprocessing.get_context()
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_worker_loop, args=(child,), daemon=True
        )
        self.process.start()
        child.close()

    def reap(self, timeout: float) -> Optional[int]:
        """Wait up to ``timeout`` for the process to exit, terminate it if
        it has not, and return its exit code."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        return self.process.exitcode

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except OSError:  # already dead
            pass
        self.reap(_JOIN_TIMEOUT_S)
        self.conn.close()


class ProcessBackend(ExecutorBackend):
    """Process-parallel execution for CPU-bound sweeps: one worker
    process per pull slot, each on its own pipe.

    Processes sidestep the GIL, but every chunk pays a pickle and pipe
    round trip, which on a 2-vCPU host outweighed the batch kernels at
    every group size measured.  So under automatic chunking every group
    runs as one chunk on the caller's thread, in-process, and no worker
    starts; only an explicit ``chunk_size`` sends groups through the
    workers.  That also means only an explicit ``chunk_size`` isolates
    the caller from a simulation that kills its interpreter.  A single
    ``EvaluationEngine.evaluate`` is a one-request batch and follows the
    same rule: inline under automatic chunking, on a worker under an
    explicit ``chunk_size``.

    Slot ``i`` is worker ``i`` is pipe ``i`` (``slot=None`` is worker 0).
    :meth:`run_chunk` sends the chunk down its slot's pipe and blocks
    for the reply; the worker simulates it with a per-process cached
    controller (:func:`_process_chunk`) and the parent merges the
    returned ``(key, stats)`` pairs into its cache.  A per-worker lock
    serializes callers sharing a slot, so a steal is a chunk run by a
    different process.

    The first multi-slot :meth:`pull_slots` starts the workers with the
    platform's default start method (fork on Linux, so workers inherit
    the parent's module state); the scheduler calls it only under an
    explicit ``chunk_size``, so an automatically chunked run forks
    nothing.  Workers
    are reused across batches, restarted when the requested width
    changes, and stopped by :meth:`close`.  A worker found dead is
    respawned before its slot's next chunk; one that dies mid-chunk
    fails exactly that chunk with a
    :class:`~repro.errors.SimulationError` naming the slot and exit
    code.  A single-worker backend starts no process and runs inline.
    """

    name = "process"
    slots_share_host = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._workers: List[_Worker] = []
        #: Guards every change to the worker processes.
        self._lock = threading.Lock()

    def pull_slots(self, engine, max_workers=None):
        workers = _default_workers(max_workers or self.max_workers)
        with self._lock:
            if workers > 1 and len(self._workers) != workers:
                self._stop_workers()
                self._workers = [_Worker() for _ in range(workers)]
        return list(range(workers))

    def run_chunk(self, engine, items, slot=None):
        workers = self._workers
        if not workers:
            return super().run_chunk(engine, items, slot)
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
        worker = workers[slot or 0]
        with worker.lock:
            if not worker.process.is_alive():
                with self._lock:
                    worker.reap(0)
                    worker.conn.close()
                    worker.start()
            try:
                worker.conn.send((spec, chunk))
                reply = worker.conn.recv()
            except (EOFError, OSError):
                code = worker.reap(_JOIN_TIMEOUT_S)
                raise SimulationError(
                    f"process worker for slot {slot or 0} died (exit code "
                    f"{code}) while running a {len(items)}-item chunk"
                ) from None
            except BaseException:
                # An interrupted round trip leaves a reply in flight that
                # the slot's next chunk would read as its own: retire the
                # worker so that chunk gets a fresh one.
                worker.reap(0)
                raise
        if isinstance(reply, Exception):
            raise reply
        results: List[WorkResult] = [None] * len(items)  # type: ignore
        for position, key, payload in reply:
            results[position] = (key, payload)
        return results

    def close(self) -> None:
        with self._lock:
            self._stop_workers()

    def _stop_workers(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []


# ----------------------------------------------------------------------
# registry (mirrors repro.stonne.controller)
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ExecutorBackend]] = {}


def register_backend(
    name: str,
) -> Callable[[Type[ExecutorBackend]], Type[ExecutorBackend]]:
    """Class decorator registering an executor backend under ``name``."""

    def decorator(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        if not (isinstance(cls, type) and issubclass(cls, ExecutorBackend)):
            raise ConfigError(
                f"executor backend {name!r} must subclass ExecutorBackend, "
                f"got {cls!r}"
            )
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
