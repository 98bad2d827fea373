"""Planned cross-scenario execution: one engine batch per hardware config.

The runner is what makes a sweep cheaper than the equivalent shell loop.
For every scenario it *plans* the evaluations first
(:meth:`~repro.engine.EvaluationEngine.plan_many` resolves cache hits and
collects pending misses), then flattens the plans of **all** scenarios
that share a hardware configuration into one
:meth:`~repro.engine.EvaluationEngine.run_plans` batch:

* cross-scenario key dedup — a layer shared by several scenarios (two
  profiles of the same model, two models with a common shape) simulates
  exactly once;
* tier saturation — the process workers / fleet see the union of every
  scenario's misses as a single wide batch instead of one small batch
  per run.

Resource sharing is strict: every engine the sweep materializes uses the
driving session's stats cache and executor backend, so a shared
``.sqlite`` cache path and one set of process workers serve the whole
matrix.
Engines are keyed by their ``(SimulatorConfig, functional)`` pair —
scenarios that differ only in non-hardware knobs (tuning budget, cache
bounds, executor hints) reuse one engine and therefore one key space.
The cycle-model params and the controller registry are fixed per
session, so equal hardware configs have equal fingerprints.

Engines and their mapping memos are session-scoped
(:class:`SweepEngines`): a later sweep on the same session — every job
of ``repro serve`` — reuses the engines and the mRNA/tuned mappings an
earlier sweep built, so a warm job goes straight to its cache lookups.
The table is a bounded LRU of :data:`ENGINE_ENTRIES` hardware configs
besides the session's own.  Mappers are pure functions of (hardware,
layer, tuning section), so reuse never changes a result.

``Session.run``/``tune``/``compare`` construct single-scenario plans and
execute through this same runner, so there is exactly one measurement
path to maintain.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SweepCancelled, TuningError
from repro.obs.trace import TRACER
from repro.session.reports import CompareReport, RunReport, TuneReport
from repro.sweep.plan import Scenario, SweepPlan
from repro.sweep.report import ScenarioResult, SweepReport
from repro.sweep.resume import scenario_fingerprint, split_resume

#: Counter keys aggregated per engine into the sweep-scoped delta.
_ENGINE_COUNTERS = ("num_evaluations", "num_simulations")
_CACHE_COUNTERS = ("cache_hits", "cache_misses")

#: LRU bound on the hardware configs a session keeps sweep engines (and
#: their mapping memos) for, besides its own.  Tracemalloc over the
#: first 200 points of the benchmark's seed-1 ``dse_sweep`` (3 models x
#: MAERI/SIGMA/TPU, which fill the table) measured 0.89 MB held by a
#: full table, about 3.5 KB per entry.
ENGINE_ENTRIES = 256


class Hardware(NamedTuple):
    """One hardware config's engine and its mappers by tuning section."""

    engine: Any
    sim_config: Any
    mappers: Dict[Any, Any]


class SweepEngines:
    """A session's sweep engines and mapping memos, kept for its life.

    Engines are keyed by ``(SimulatorConfig, functional)``.  Each entry
    holds its engine's MappingConfigurators by tuning section, so a
    mapping memo lives exactly as long as the engine (fingerprint) it
    maps for.  The session's own engine and mapper are the seed entry
    and are never evicted.  The other entries form an LRU that
    :meth:`trim` cuts to :data:`ENGINE_ENTRIES` after each sweep — never
    during one, so a sweep resolves each hardware config to one engine
    however many configs it spans.
    """

    def __init__(self, session) -> None:
        self._session = session
        self._own_key = (session.simulator_config, session.engine.functional)
        self._own = Hardware(
            session.engine,
            session.simulator_config,
            {session.config.tuning: session.mappings},
        )
        self._lru: "OrderedDict[Tuple[Any, bool], Hardware]" = OrderedDict()
        # (architecture section, functional) -> LRU key, for the sweep in
        # progress: a sweep builds each distinct config once, however
        # many scenarios share it.  trim() clears it.
        self._keys: Dict[Tuple[Any, bool], Tuple[Any, bool]] = {}

    def __len__(self) -> int:
        """Entries besides the session's own."""
        return len(self._lru)

    def hardware_for(self, config) -> Hardware:
        """The entry executing a scenario resolved to ``config``.

        Scenarios whose architecture section (and functional flag) match
        the session reuse its engine — which also honours a hand-built
        ``Session(simulator_config=...)``.  Anything else builds a
        hardware config from the scenario's architecture section and
        reuses one engine per hardware config, always sharing the
        session's cache and executor backend.
        """
        from repro.engine import EvaluationEngine

        session = self._session
        functional = config.engine.functional
        if (
            config.architecture == session.config.architecture
            and functional == session.config.engine.functional
        ):
            return self._own
        section = (config.architecture, functional)
        key = self._keys.get(section)
        if key is None:
            sim_config, _ = config.build_simulator_config()
            key = self._keys[section] = (sim_config, functional)
        hardware = self._lru.get(key)
        if hardware is not None:
            self._lru.move_to_end(key)
            return hardware
        if key == self._own_key:
            return self._own
        # The engine holds no resources of its own — the backend
        # instance below is the session's.
        sim_config = key[0]
        engine = EvaluationEngine(
            sim_config,
            session.params,
            cache=session.engine.cache,
            executor=session.engine.backend,
            max_workers=session.config.engine.max_workers,
            functional=functional,
            chunk_size=session.config.engine.chunk_size,
        )
        hardware = self._lru[key] = Hardware(engine, sim_config, {})
        return hardware

    @staticmethod
    def mapper_for(hardware: Hardware, tuning):
        """The entry's MappingConfigurator for one tuning section."""
        from repro.bifrost.mapping_config import (
            MappingConfigurator,
            MappingStrategy,
        )

        mapper = hardware.mappers.get(tuning)
        if mapper is None:
            mapper = hardware.mappers[tuning] = MappingConfigurator(
                config=hardware.sim_config,
                strategy=MappingStrategy(tuning.mapping),
                tuning=tuning,
                engine=hardware.engine,
            )
        return mapper

    def trim(self) -> None:
        """End a sweep: evict the least recently used entries beyond the
        bound and forget the sweep's resolved configs."""
        self._keys.clear()
        while len(self._lru) > ENGINE_ENTRIES:
            self._lru.popitem(last=False)


class SweepRunner:
    """Executes a :class:`SweepPlan` against one driving session.

    ``progress``, when given, is called with one event dict per
    milestone (``start``, ``plan``, ``execute``, ``scenario``, ``done``)
    — the hook the sweep service streams to watching clients.  Events
    double as cancellation checkpoints: a callback that raises
    :class:`~repro.errors.SweepCancelled` aborts the sweep between
    scenarios, and the exception is re-raised with ``partial`` set to a
    :class:`SweepReport` of everything finished so far (resumable via
    ``--resume``).

    The runner holds no engines or mappers: it looks them up in the
    session's :class:`SweepEngines` table.
    """

    def __init__(self, session, progress=None) -> None:
        self.session = session
        self._progress = progress
        if session._sweep_engines is None:
            session._sweep_engines = SweepEngines(session)
        self._engines: SweepEngines = session._sweep_engines

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, plan: SweepPlan, resume: Optional[SweepReport] = None
    ) -> SweepReport:
        """Run every scenario, batching run-kind evaluations per engine.

        ``resume`` is an archived :class:`SweepReport`: scenarios whose
        :func:`~repro.sweep.resume.scenario_fingerprint` matches an
        archived cell adopt its report instead of re-running
        (``counters["resumed_scenarios"]`` counts them).
        """
        with TRACER.span(
            "sweep.execute", category="sweep", scenarios=len(plan.scenarios)
        ):
            try:
                return self._execute(plan, resume)
            finally:
                self._engines.trim()

    # ------------------------------------------------------------------
    # progress / cancellation
    # ------------------------------------------------------------------
    def _emit(
        self,
        event: Dict[str, Any],
        plan: SweepPlan,
        completed: Dict[str, ScenarioResult],
    ) -> None:
        """Deliver one progress event; translate a callback's
        :class:`SweepCancelled` into one carrying the partial report."""
        if self._progress is None:
            return
        try:
            self._progress(dict(event))
        except SweepCancelled as exc:
            if exc.partial is None:
                exc.partial = self._partial_report(plan, completed)
            raise

    def _partial_report(
        self, plan: SweepPlan, completed: Dict[str, ScenarioResult]
    ) -> SweepReport:
        """The resumable report of everything finished at cancel time."""
        scenarios = [
            completed[s.name] for s in plan.scenarios if s.name in completed
        ]
        return SweepReport(
            scenarios=scenarios,
            counters={"scenarios": len(scenarios), "cancelled": True},
        )

    def _execute(
        self, plan: SweepPlan, resume: Optional[SweepReport] = None
    ) -> SweepReport:
        from repro.engine import EvalRequest
        from repro.zoo import zoo_layers

        started = time.perf_counter()
        tier_baseline = self._tier_counters()
        # Engine counters at first touch, per engine this sweep uses: the
        # session's table outlives the sweep, so a baseline over all of
        # it would cost every hardware point the session ever saw.
        baseline: Dict[int, Tuple[Any, Dict[str, int]]] = {}
        cache = self.session.engine.cache
        cache_baseline = {k: getattr(cache, k.split("_", 1)[1])
                          for k in _CACHE_COUNTERS}

        # Each scenario's engine, and the hash its result is archived
        # and resumed under, are resolved once per sweep.
        hardware, hashes = {}, {}
        for s in plan.scenarios:
            hardware[s.name] = entry = self._engines.hardware_for(s.config)
            hashes[s.name] = scenario_fingerprint(s, entry.engine.fingerprint)
        if resume is not None:
            pending, reused = split_resume(plan, hashes, resume)
        else:
            pending, reused = list(plan.scenarios), {}
        total = len(plan.scenarios)
        completed: Dict[str, ScenarioResult] = dict(reused)

        self._emit(
            {
                "event": "start",
                "total": total,
                "pending": len(pending),
                "resumed": len(reused),
            },
            plan, completed,
        )
        for name in reused:
            self._emit(
                {"event": "scenario", "name": name, "status": "resumed",
                 "completed": len(reused), "total": total},
                plan, completed,
            )

        # Phase 1: plan every run-kind scenario (cache hits resolve now,
        # misses stay pending) so phase 2 can flatten across scenarios.
        entries: List[Tuple[Scenario, Any, Any, Any]] = []
        batches: Dict[int, Tuple[Any, List[Any]]] = {}
        for scenario in pending:
            self._emit(
                {"event": "plan", "name": scenario.name,
                 "completed": len(completed), "total": total},
                plan, completed,
            )
            entry = hardware[scenario.name]
            engine, sim_config = entry.engine, entry.sim_config
            if id(engine) not in baseline:
                baseline[id(engine)] = (
                    engine,
                    {k: getattr(engine, k) for k in _ENGINE_COUNTERS},
                )
            batch_plan = None
            if scenario.kind == "run":
                mapper = self._engines.mapper_for(
                    entry, scenario.config.tuning
                )
                requests = []
                for layer in zoo_layers(scenario.model):
                    mapping = (
                        mapper.mapping_for(layer)
                        if engine.requires_mapping
                        else None
                    )
                    requests.append(EvalRequest(layer=layer, mapping=mapping))
                with TRACER.span(
                    "sweep.plan", category="sweep", scenario=scenario.name
                ):
                    batch_plan = engine.plan_many(requests)
                engine_id = id(engine)
                if engine_id not in batches:
                    batches[engine_id] = (engine, [])
                batches[engine_id][1].append(batch_plan)
            entries.append((scenario, engine, sim_config, batch_plan))

        # Phase 2: every engine group through one work-stealing queue —
        # cross-scenario duplicates simulate once, engine groups overlap
        # instead of running back to back, and fast executor slots steal
        # the tail of slow ones' load.  (Single-slot backends drain each
        # group as one inline chunk, and so do thread and process pools
        # unless a chunk size is set.)
        from repro.engine.scheduler import run_plan_groups

        self._emit(
            {"event": "execute", "pending": len(entries),
             "completed": len(completed), "total": total},
            plan, completed,
        )
        scheduler_report = run_plan_groups(list(batches.values()))

        # Phase 3: assemble per-scenario reports (tune/compare scenarios
        # execute here, still through the shared engines and cache).
        for scenario, engine, sim_config, batch_plan in entries:
            if scenario.kind == "run":
                # Counters are scenario-scoped (this plan's hits/misses),
                # not the engine's cumulative snapshot — in a batched
                # sweep the engine numbers describe the whole matrix and
                # would repeat identically on every scenario.
                report: Any = RunReport(
                    model=scenario.model,
                    architecture=str(sim_config.controller_type.value),
                    layer_stats=list(batch_plan.results),
                    counters={
                        **batch_plan.counters(),
                        "executor": engine.backend.name,
                        "scheduler": dict(scheduler_report),
                    },
                )
            elif scenario.kind == "tune":
                report = self._tune_scenario(scenario, engine, sim_config)
            else:
                report = self._compare_scenario(scenario, engine, sim_config)
            completed[scenario.name] = ScenarioResult(
                name=scenario.name,
                kind=scenario.kind,
                report=report,
                model=scenario.model,
                profile=scenario.profile,
                overrides=dict(scenario.overrides),
                config_hash=hashes[scenario.name],
            )
            self._emit(
                {"event": "scenario", "name": scenario.name, "status": "done",
                 "kind": scenario.kind, "completed": len(completed),
                 "total": total},
                plan, completed,
            )

        results = [completed[s.name] for s in plan.scenarios]

        counters: Dict[str, Any] = {"scenarios": len(plan.scenarios)}
        if reused:
            counters["resumed_scenarios"] = len(reused)
        for key in _ENGINE_COUNTERS:
            counters[key] = sum(
                getattr(engine, key) - before[key]
                for engine, before in baseline.values()
            )
        for key in _CACHE_COUNTERS:
            counters[key] = (
                getattr(cache, key.split("_", 1)[1]) - cache_baseline[key]
            )
        counters["scheduler"] = dict(scheduler_report)

        obs = self.session.config.observability
        metrics: Dict[str, Any] = {}
        if obs.metrics or obs.trace:
            # Built for either flag: --metrics attaches it to the
            # reports, --trace embeds it in the trace document (so the
            # summary's hit-rate lines work without --metrics).
            built = self._build_metrics(
                counters,
                wall_s=time.perf_counter() - started,
                tier_baseline=tier_baseline,
            )
            self.session._last_metrics = dict(built)
            if obs.metrics:
                metrics = built
                for result in results:
                    if result.kind == "run":
                        result.report.metrics = dict(metrics)
        report = SweepReport(
            scenarios=results, counters=counters, metrics=metrics
        )
        self._emit(
            {"event": "done", "completed": len(results), "total": total},
            plan, completed,
        )
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _tier_counters(self) -> Dict[str, int]:
        """The shared cache's per-tier counters (zeros for duck caches)."""
        tiers = getattr(self.session.engine.cache, "tier_counters", None)
        return dict(tiers()) if callable(tiers) else {}

    def _build_metrics(
        self,
        counters: Dict[str, Any],
        wall_s: float,
        tier_baseline: Dict[str, int],
    ) -> Dict[str, Any]:
        """The report's ``metrics`` section for this sweep.

        Everything here is a *sweep-scoped delta* except the backend
        snapshot, which is cumulative over the backend's lifetime (a
        shared pool may have served earlier sweeps of the same session).
        """
        sims = counters.get("num_simulations", 0)
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        lookups = hits + misses
        tiers_now = self._tier_counters()
        tier_delta = {
            key: value - tier_baseline.get(key, 0)
            for key, value in tiers_now.items()
        }
        metrics: Dict[str, Any] = {
            "wall_s": wall_s,
            "evaluations": counters.get("num_evaluations", 0),
            "simulations": sims,
            "simulations_per_s": sims / wall_s if wall_s > 0 else 0.0,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
                "tiers": tier_delta,
            },
            "scheduler": dict(counters.get("scheduler", {})),
        }
        metrics["backend"] = self.session.engine.backend.metrics.snapshot()
        return metrics

    # ------------------------------------------------------------------
    # scenario kinds beyond plain runs
    # ------------------------------------------------------------------
    def _tune_scenario(
        self, scenario: Scenario, engine, sim_config
    ) -> TuneReport:
        """Tune one layer's mapping under the scenario's tuning config."""
        from repro.zoo import zoo_layers
        from repro.tuner import tune_layer

        target = scenario.target
        if target is None:
            layers = {l.name: l for l in zoo_layers(scenario.model)}
            if scenario.layer not in layers:
                raise TuningError(
                    f"model {scenario.model!r} has no layer "
                    f"{scenario.layer!r}; choose from {sorted(layers)}"
                )
            target = layers[scenario.layer]
        tuning = scenario.config.tuning
        mapping, result = tune_layer(target, sim_config, tuning, engine)
        return TuneReport(
            model=scenario.model,
            layer=target.name,
            objective=tuning.objective,
            tuner=tuning.tuner,
            seed=tuning.seed,
            best_mapping=tuple(mapping.as_tuple()),
            best_cost=result.best_cost,
            num_trials=result.num_trials,
            stopped_early=result.stopped_early,
            records=result.records,
        )

    def _compare_scenario(
        self, scenario: Scenario, engine, sim_config
    ) -> CompareReport:
        """Default vs AutoTVM vs mRNA mappings (the Figure 12 view)."""
        from repro.engine import EvalRequest
        from repro.mrna import MrnaMapper
        from repro.zoo import zoo_layers
        from repro.stonne.layer import ConvLayer
        from repro.stonne.mapping import ConvMapping, FcMapping
        from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask

        mapper = MrnaMapper(sim_config)
        schemes = ("default", "AutoTVM", "mRNA")
        layers = zoo_layers(scenario.model)
        requests: List[EvalRequest] = []
        for layer in layers:
            is_conv = isinstance(layer, ConvLayer)
            if is_conv:
                task = MaeriConvTask(
                    layer, sim_config, objective="psums",
                    max_options_per_tile=4, engine=engine,
                )
            else:
                task = MaeriFcTask(
                    layer, sim_config, objective="psums", engine=engine,
                )
            tuned = task.best_mapping(
                GridSearchTuner(task).tune(n_trials=10 ** 9).best_config
            )
            mrna = mapper.map_conv(layer) if is_conv else mapper.map_fc(layer)
            basic = ConvMapping.basic() if is_conv else FcMapping.basic()
            requests.extend(
                EvalRequest(layer, mapping) for mapping in (basic, tuned, mrna)
            )
        # One batch for every layer's three mappings, in scheme order.
        stats = engine.evaluate_many(requests)
        rows: List[Dict[str, Any]] = [
            {
                "layer": layer.name,
                "cycles": {
                    scheme: stats[3 * index + offset].cycles
                    for offset, scheme in enumerate(schemes)
                },
            }
            for index, layer in enumerate(layers)
        ]
        return CompareReport(
            model=scenario.model, schemes=schemes, rows=rows
        )
