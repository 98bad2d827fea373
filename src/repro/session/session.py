"""The Session facade: one object that owns the whole measurement stack.

The paper's Bifrost frontend is "one API, seven steps" (§V), and
:class:`Session` is that single surface: build it from a
:class:`~repro.session.config.SessionConfig` (or any of that class's
layers), use it as a context manager, and every resource — the
:class:`~repro.engine.EvaluationEngine`, the cache tiers, the fleet
client, the packed-func registration — is created in one place and
torn down deterministically by :meth:`close`.

Typical use::

    from repro.session import Session

    with Session.from_file("repro.toml") as s:
        report = s.run("alexnet")          # zoo model -> RunReport
        print(report.total_cycles)
        print(report.to_json())

    with Session(executor="process", max_workers=4) as s:
        tuned = s.tune("lenet", "conv1")   # -> TuneReport
        print(tuned.best_mapping, tuned.best_cost)

Graph workloads go through the same object::

    with Session(arch="maeri", mapping="mrna") as s:
        report = s.run(model, input_batch)       # torch-like module
        report = s.run_graph(graph, {"data": x}) # raw IR graph

Teardown is guaranteed: ``close()`` (or leaving the ``with`` block)
drains executor pools (thread/process workers), disconnects fleet
workers, closes SQLite connections and JSONL spills, and uninstalls
packed functions — the resource leaks of the pre-Session entry points
cannot recur.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError, TuningError
from repro.obs.trace import TRACER
from repro.session.config import SessionConfig
from repro.session.reports import CompareReport, RunReport, TuneReport
from repro.zoo import zoo_layers


class Session:
    """A configured measurement session over one simulated accelerator.

    Args:
        config: A resolved :class:`SessionConfig`.  When omitted, one is
            built from ``overrides`` (kwargs layer) over the ``REPRO_*``
            environment over defaults.
        simulator_config: A prebuilt (validated) hardware config that
            bypasses the architecture section, for callers that
            hand-roll :class:`~repro.stonne.config.SimulatorConfig`
            objects.
        params: Cycle-model calibration constants.
        **overrides: Flat config keys (see
            :func:`repro.session.config.known_keys`) overriding
            ``config``.

    Attributes:
        config: The resolved :class:`SessionConfig`.
        simulator_config: The validated hardware configuration.
        corrections: Auto-corrections the configurator applied.
        engine: The session's :class:`~repro.engine.EvaluationEngine`.
        api: The :class:`~repro.bifrost.api.StonneBifrostApi` packed-func
            endpoint bound to this session's engine.
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        simulator_config=None,
        params=None,
        **overrides: Any,
    ) -> None:
        from repro.bifrost.api import StonneBifrostApi
        from repro.bifrost.mapping_config import MappingConfigurator, MappingStrategy
        from repro.engine import EvaluationEngine, StatsCache, make_stats_cache
        from repro.fleet.remote_backend import resolve_executor
        from repro.stonne.params import DEFAULT_PARAMS

        if config is None:
            config = SessionConfig.resolve(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.params = params if params is not None else DEFAULT_PARAMS

        # [observability] trace: this session owns the global tracer's
        # lifecycle only if it was the one to enable it — nested
        # sessions inside an already-traced program contribute spans
        # without clearing or closing the outer trace.
        self._trace_owner = False
        self._trace_path: Optional[str] = None
        self._last_metrics: Dict[str, Any] = {}
        if config.observability.trace and not TRACER.enabled:
            TRACER.enable()
            self._trace_owner = True

        if simulator_config is not None:
            self.simulator_config = simulator_config
            self.corrections: List[str] = []
        else:
            self.simulator_config, self.corrections = (
                config.build_simulator_config()
            )

        cache_cfg = config.cache
        if cache_cfg.path is not None:
            self._cache = make_stats_cache(
                cache_cfg.path,
                max_entries=cache_cfg.max_entries,
                max_rows=cache_cfg.max_rows,
            )
        else:
            self._cache = StatsCache(max_entries=cache_cfg.max_entries)

        # fleet.autostart: spawn local worker daemons on free ports and
        # fold their addresses into the fleet, so `fleet_autostart = N`
        # is all a config needs for a self-contained distributed session.
        # Skipped when a non-remote executor is explicitly requested —
        # daemons nothing would talk to must not be spawned.
        self._fleet_procs: List[Any] = []
        workers = list(config.fleet.workers)
        if config.fleet.autostart > 0 and config.engine.executor in (
            None, "remote",
        ):
            from repro.fleet.worker import spawn_local_workers

            try:
                self._fleet_procs = spawn_local_workers(
                    config.fleet.autostart,
                    cache_path=cache_cfg.path,
                    cache_max_rows=cache_cfg.max_rows,
                    capacity=config.fleet.capacity,
                    secret=config.fleet.secret,
                )
            except BaseException:
                close = getattr(self._cache, "close", None)
                if close is not None:
                    close()
                raise
            workers.extend(proc.address for proc in self._fleet_procs)

        # From here on a failure must not leak what was already built:
        # close() can never run on a half-constructed session, so reap
        # the autostarted daemons and the cache tier in place.
        try:
            executor = resolve_executor(
                config.engine.executor,
                workers or None,
                config.engine.max_workers,
                shard_timeout=config.fleet.shard_timeout,
                secret=config.fleet.secret,
            )
            self.engine = EvaluationEngine(
                self.simulator_config,
                self.params,
                cache=self._cache,
                executor=executor,
                max_workers=config.engine.max_workers,
                functional=config.engine.functional,
                chunk_size=config.engine.chunk_size,
            )
            self.mappings = MappingConfigurator(
                config=self.simulator_config,
                strategy=MappingStrategy(config.tuning.mapping),
                tuning=config.tuning,
                engine=self.engine,
            )
            self.api = StonneBifrostApi(
                config=self.simulator_config,
                mappings=self.mappings,
                params=self.params,
                _engine=self.engine,
            )
        except BaseException:
            for proc in self._fleet_procs:
                proc.stop()
            engine = getattr(self, "engine", None)
            if engine is not None:
                engine.close()
            close = getattr(self._cache, "close", None)
            if close is not None:
                close()
            raise
        self._installed = False
        self._closed = False
        #: Engines and mapping memos every sweep of this session shares
        #: (a :class:`~repro.sweep.runner.SweepEngines`, built by the
        #: first sweep).
        self._sweep_engines = None

    # ------------------------------------------------------------------
    # construction layers
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path, **overrides: Any) -> "Session":
        """A session from a TOML/JSON config file (kwargs override it)."""
        return cls(SessionConfig.resolve(file=path, **overrides))

    @classmethod
    def from_env(cls, environ=None, **overrides: Any) -> "Session":
        """A session from the ``REPRO_*`` environment (kwargs override)."""
        return cls(SessionConfig.resolve(env=environ, **overrides))

    @classmethod
    def from_dict(cls, data: Dict[str, Any], **overrides: Any) -> "Session":
        """A session from a nested config dict (kwargs override it)."""
        return cls(SessionConfig.from_dict(data).with_overrides(**overrides))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Deterministic teardown (idempotent).

        Uninstalls packed functions if installed, drains the engine's
        executor pools (thread/process workers, fleet connections),
        closes persistent cache tiers (SQLite connections, JSONL
        spills), and reaps any worker daemons ``fleet.autostart``
        spawned — no lingering processes survive a closed session.
        """
        if self._closed:
            return
        self._closed = True
        self._sweep_engines = None
        try:
            if self._installed:
                self.uninstall()
            self.engine.close()
            close = getattr(self._cache, "close", None)
            if close is not None:
                close()
        finally:
            for proc in self._fleet_procs:
                proc.stop()
            if self._trace_owner:
                self._finalize_trace()

    def _finalize_trace(self) -> None:
        """Write the trace file and release the global tracer."""
        from repro.obs.trace import write_trace

        path = self.config.observability.trace_path or "repro_trace.json"
        try:
            self._trace_path = write_trace(
                path,
                TRACER.spans(),
                metrics=self._last_metrics,
                meta={
                    "arch": self.config.architecture.arch,
                    "executor": self.engine.backend.name,
                },
            )
        finally:
            TRACER.disable()

    @property
    def trace_path(self) -> Optional[str]:
        """Where :meth:`close` wrote the trace file (None until then,
        and None unless this session enabled tracing)."""
        return self._trace_path

    @property
    def fleet_workers(self) -> List[str]:
        """Addresses of the worker daemons this session autostarted."""
        return [proc.address for proc in self._fleet_procs]

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("this Session is closed")

    # ------------------------------------------------------------------
    # packed-func registration
    # ------------------------------------------------------------------
    def install(self) -> "Session":
        """Bind this session's API as the global "stonne" target and
        register its packed functions (``tvm.contrib.stonne.*``).

        Graph runs do this automatically for their own duration; call it
        directly only to drive the packed-func registry by hand.
        """
        from repro.bifrost.strategies import install_session

        self._check_open()
        install_session(self.api)
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Remove this session's global registrations (idempotent)."""
        from repro.bifrost.strategies import active_session, uninstall_session

        if active_session() is self.api:
            uninstall_session()
        self._installed = False

    # ------------------------------------------------------------------
    # measurement entry points
    # ------------------------------------------------------------------
    def run(self, model, input_batch=None) -> RunReport:
        """Run a model and return a structured :class:`RunReport`.

        Two forms:

        * ``run("alexnet")`` — a zoo model name: executed as a
          single-scenario sweep, so its layer descriptors are simulated
          in one engine batch (repeated shapes served from the stats
          cache, misses fanned out on the configured executor) on the
          same path multi-scenario matrices use.
        * ``run(module, input_batch)`` — a torch-like module tree plus a
          real input batch: the graph executes end to end with
          conv2d/dense offloaded to the simulated accelerator, and the
          report carries the real output tensors.
        """
        self._check_open()
        label = model if isinstance(model, str) else type(model).__name__
        with TRACER.span("session.run", category="session", model=label):
            if isinstance(model, str):
                from repro.sweep import SweepPlan

                zoo_layers(model)  # validate the name before planning
                return self.sweep(
                    SweepPlan.single(self.config, model=model)
                ).scenarios[0].report
            if input_batch is None:
                raise ReproError(
                    "Session.run(model, input_batch) requires an input "
                    "batch for non-zoo models"
                )
            import numpy as np

            from repro.frontends.torchlike import from_torchlike

            shape = tuple(np.asarray(input_batch).shape)
            graph = from_torchlike(model, shape)
            first_input = graph.nodes[graph.input_ids[0]].name
            return self.run_graph(
                graph, {first_input: np.asarray(input_batch)}
            )

    def run_layers(self, layers) -> List:
        """Simulate bare layer descriptors through the session engine
        in one batch (repeated shapes served from the stats cache).

        One implementation serves both API generations:
        :func:`repro.bifrost.runner.run_layers` does the work, and this
        method is its session-scoped spelling.
        """
        from repro.bifrost.runner import run_layers as _run_layers

        self._check_open()
        return _run_layers(layers, self.api)

    def run_graph(self, graph, feeds: Dict[str, Any]) -> RunReport:
        """Execute an IR graph with conv2d/dense offloaded to this
        session; returns a :class:`RunReport` carrying the outputs."""
        from repro.bifrost.runner import run_graph as _run_graph

        self._check_open()
        result = _run_graph(graph, feeds, self.api)
        return RunReport(
            model=None,
            architecture=str(self.simulator_config.controller_type.value),
            layer_stats=result.layer_stats,
            counters=self.engine.counters(),
            outputs=result.outputs,
        )

    def tune(
        self,
        model,
        layer: Optional[str] = None,
        *,
        tuner: Optional[str] = None,
        objective: Optional[str] = None,
        trials: Optional[int] = None,
        early_stopping: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> TuneReport:
        """Tune one layer's mapping; keyword overrides beat the config.

        ``model`` is a zoo model name (then ``layer`` names the layer)
        or a bare :class:`~repro.stonne.layer.ConvLayer` /
        :class:`~repro.stonne.layer.FcLayer` descriptor.  Executes as a
        single-scenario sweep, so standalone tunes and tune matrices
        share one measurement path (and one cache key space).
        """
        from repro.sweep import SweepPlan

        self._check_open()
        model_name: Optional[str] = None
        target = None
        if isinstance(model, str):
            model_name = model
            layers = {l.name: l for l in zoo_layers(model)}
            if layer not in layers:
                raise TuningError(
                    f"model {model!r} has no layer {layer!r}; "
                    f"choose from {sorted(layers)}"
                )
        else:
            target = model
        overrides = {
            key: value
            for key, value in (
                ("tuner", tuner),
                ("objective", objective),
                ("trials", trials),
                ("early_stopping", early_stopping),
                ("seed", seed),
            )
            if value is not None
        }
        config = (
            self.config.with_overrides(**overrides) if overrides
            else self.config
        )
        plan = SweepPlan.single(
            config, model=model_name, kind="tune", layer=layer, target=target,
        )
        with TRACER.span(
            "session.tune", category="session",
            model=model_name, layer=layer,
        ):
            return self.sweep(plan).scenarios[0].report

    def compare(self, model: str) -> CompareReport:
        """Default vs AutoTVM vs mRNA mappings for a zoo model's
        accelerated layers (the Figure 12 view), as a
        :class:`CompareReport`.  Executes as a single-scenario sweep."""
        from repro.sweep import SweepPlan

        self._check_open()
        plan = SweepPlan.single(self.config, model=model, kind="compare")
        with TRACER.span("session.compare", category="session", model=model):
            return self.sweep(plan).scenarios[0].report

    def sweep(self, plan, progress=None, resume=None) -> "SweepReport":
        """Execute a :class:`~repro.sweep.SweepPlan` across scenarios.

        All scenarios run against this session's resources — one stats
        cache, one executor backend (process workers / fleet), one engine
        per distinct hardware configuration — and their pending
        evaluations are flattened into shared engine batches, so layers
        shared between scenarios simulate exactly once and the executor
        tiers stay saturated across the whole matrix.  Returns a
        :class:`~repro.sweep.SweepReport`.

        The engines and their mapping memos outlive the call: a later
        sweep on this session reuses them (a bounded LRU of
        :data:`~repro.sweep.runner.ENGINE_ENTRIES` hardware configs
        besides the session's own), so repeating a sweep recomputes no
        mRNA or tuned mapping.  :meth:`close` drops them.

        ``progress`` is an optional per-milestone event callback (see
        :class:`~repro.sweep.SweepRunner`); raising
        :class:`~repro.errors.SweepCancelled` from it aborts between
        scenarios with a resumable partial report attached.  ``resume``
        is an archived :class:`~repro.sweep.SweepReport` whose
        config-hash-matched scenarios are adopted instead of re-run.
        """
        from repro.sweep import SweepPlan
        from repro.sweep.runner import SweepRunner

        self._check_open()
        if not isinstance(plan, SweepPlan):
            raise ReproError(
                f"Session.sweep expects a SweepPlan, got {type(plan).__name__}"
            )
        with TRACER.span(
            "session.sweep", category="session",
            scenarios=len(plan.scenarios),
        ):
            return SweepRunner(self, progress=progress).execute(
                plan, resume=resume
            )

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        """Engine bookkeeping snapshot (evaluations, simulations, cache
        hits/misses, executor name)."""
        return self.engine.counters()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.config.architecture.arch}, "
            f"executor={self.engine.backend.name!r}, {state})"
        )
