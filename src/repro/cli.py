"""Command-line interface: the Bifrost workflow without writing Python.

Every subcommand is a thin adapter over :class:`repro.session.Session`,
and every configuration flag is *derived* from
:class:`~repro.session.SessionConfig` field metadata — the config
object, the ``REPRO_*`` environment variables and the CLI flags are one
namespace with one documented precedence:

    CLI flags > kwargs > REPRO_* environment > --config file > defaults

Subcommands:

* ``features`` — print the Table I feature matrix;
* ``run`` — simulate a zoo model end to end on an architecture and print
  per-layer cycles (and optionally energy);
* ``tune`` — tune one layer's mapping with a chosen tuner/objective;
* ``compare`` — default vs AutoTVM vs mRNA mappings for a zoo model's
  accelerated layers (the Figure 12 view);
* ``sweep`` — run a whole scenario matrix (``--models`` × ``--profiles``
  × ``--axis`` overrides) in one session: evaluations are flattened
  across scenarios so shared layers simulate once and the executor
  tiers stay saturated; ``--report-json`` archives the SweepReport;
* ``report diff`` — typed per-scenario cycle/energy deltas between two
  archived report files, with ``--fail-on-regression PCT`` for CI
  gating (exit 3 past the threshold);
* ``config show [--json]`` — print the fully-resolved effective config
  (the text form is valid TOML — including any ``[profile.X]`` sections
  of the source file — so ``repro config show > repro.toml`` produces a
  working ``--config`` file);
* ``worker`` — a fleet worker daemon serving simulation batches over
  TCP (its cache settings come from the same config sections);
* ``serve`` — the resident sweep service: one daemon-owned session
  (shared cache + fleet) running submitted scenario matrices as jobs;
* ``submit`` / ``jobs`` / ``status`` / ``result`` / ``cancel`` — the
  service's client verbs: submit a matrix (optionally ``--resume``
  from an archived report, optionally ``--watch`` progress), list the
  queue, poll one job, fetch or cancel it;
* ``trace`` — inspect trace files recorded with ``--trace``
  (``summary`` for the self-time/hit-rate table, ``export`` for a
  plain Chrome trace-event file);
* ``cache`` — maintenance of persistent stats caches (``compact``).

Every measurement subcommand accepts ``--config path.toml`` plus the
derived flags (``--executor``, ``--cache-path``, ``--cache-max-rows``,
``--workers``, ...).  Entry point: ``python -m repro.cli <subcommand>``
(argument lists are plain data, so the test suite drives :func:`main`
directly).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _print_corrections(session) -> None:
    for correction in session.corrections:
        print(f"note: {correction}")


def _print_fleet_report(engine) -> None:
    """One-line fleet summary for runs on the remote backend.

    ``fallback batches: 0`` is the proof that the fleet actually served
    the run — the remote backend degrades to inline execution silently,
    so scripted checks (CI's distributed smoke) gate on this line rather
    than on results alone, which fallback would leave identical.
    """
    from repro.engine.scheduler import backend_counters

    backend = engine.backend
    counters = backend_counters(backend)
    if counters.get("chunks_pulled"):
        print(f"scheduler: {counters['chunks_pulled']} chunks pulled, "
              f"{counters['steals']} steals")
    if not hasattr(backend, "fallback_batches"):
        return
    print(f"fleet: {backend.fallback_batches} fallback batches, "
          f"{backend.retried_shards} retried shards")


def _print_cache_report(engine, cache_path: Optional[str]) -> None:
    """One-line hit/miss summary for runs using a persistent cache.

    Persistent tiers append their per-tier breakdown (L1 memory hits
    vs JSONL/SQLite fallthrough, evictions), so the line shows *which*
    tier served the run, not just that some tier did.
    """
    if not cache_path:
        return
    counters = engine.counters()
    tiers = getattr(engine.cache, "tier_counters", None)
    tier_text = ""
    if callable(tiers):
        parts = ", ".join(
            f"{key}={value}" for key, value in sorted(tiers().items())
        )
        tier_text = f" [{parts}]"
    print(f"stats cache: {counters['cache_hits']} hits / "
          f"{counters['cache_misses']} misses "
          f"({counters['cache_hit_rate']:.1%}){tier_text} -> {cache_path}")


def _print_trace_report(session) -> None:
    """Where the session's trace landed (printed after close)."""
    if session.trace_path:
        print(f"trace written to {session.trace_path} "
              f"(load in chrome://tracing, or: repro trace summary "
              f"{session.trace_path})")


def _cmd_features(args) -> int:
    from repro.bifrost.reporting import feature_table

    print(feature_table())
    return 0


def _cmd_run(args) -> int:
    from repro.bifrost.reporting import stats_table
    from repro.session import Session, config_from_args
    from repro.stonne.energy import attach_energy

    config = config_from_args(args)
    with Session(config) as session:
        _print_corrections(session)
        report = session.run(args.model)
        print(stats_table(report.layer_stats))
        if args.energy:
            total = sum(attach_energy(s).energy for s in report.layer_stats)
            print(f"total energy: {total:,.0f} MAC-units")
        if args.report_json:
            from pathlib import Path

            Path(args.report_json).write_text(report.to_json() + "\n")
            print(f"run report written to {args.report_json}")
        _print_cache_report(session.engine, config.cache.path)
        _print_fleet_report(session.engine)
    _print_trace_report(session)
    return 0


def _cmd_tune(args) -> int:
    from repro.session import Session, config_from_args
    from repro.zoo import zoo_layers

    config = config_from_args(args)
    layers = {layer.name: layer for layer in zoo_layers(args.model)}
    if args.layer not in layers:
        print(f"error: model {args.model!r} has no layer {args.layer!r}; "
              f"choose from {sorted(layers)}", file=sys.stderr)
        return 2
    with Session(config) as session:
        _print_corrections(session)
        report = session.tune(layers[args.layer])
        print(f"explored {report.num_trials} configs"
              f"{' (early stop)' if report.stopped_early else ''}")
        print(f"best mapping: {report.best_mapping}")
        print(f"best {report.objective}: {report.best_cost:,.0f}")
        _print_cache_report(session.engine, config.cache.path)
        _print_fleet_report(session.engine)
        if args.log:
            report.records.save_jsonl(args.log)
            print(f"tuning log written to {args.log}")
    _print_trace_report(session)
    return 0


def _cmd_compare(args) -> int:
    from repro.bifrost.reporting import LayerComparison, comparison_table
    from repro.session import Session, config_from_args

    config = config_from_args(args)
    with Session(config) as session:
        _print_corrections(session)
        report = session.compare(args.model)
        rows = [
            LayerComparison(row["layer"], dict(row["cycles"]))
            for row in report.rows
        ]
        print(comparison_table(rows, list(report.schemes)))
        _print_cache_report(session.engine, config.cache.path)
        _print_fleet_report(session.engine)
    _print_trace_report(session)
    return 0


def _build_matrix_plan(args, config):
    """The SweepPlan for --models/--profiles/--axis flags, or an exit
    code on malformed flags (shared by ``sweep`` and ``submit``)."""
    from repro.session import load_profiles
    from repro.sweep import SweepPlan

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    profiles = None
    if args.profiles:
        if not args.config:
            print("error: --profiles requires --config (profiles live in "
                  "the config file)", file=sys.stderr)
            return 2
        names = [p.strip() for p in args.profiles.split(",") if p.strip()]
        available = load_profiles(args.config)
        missing = [name for name in names if name not in available]
        if missing:
            print(f"error: config file {args.config} defines no profile "
                  f"{', '.join(missing)}; available: "
                  f"{', '.join(sorted(available)) or '(none)'}",
                  file=sys.stderr)
            return 2
        profiles = {name: available[name] for name in names}
    axes = {}
    for item in args.axis or []:
        key, sep, values = item.partition("=")
        if not sep or not values:
            print(f"error: --axis expects KEY=V1,V2,..., got {item!r}",
                  file=sys.stderr)
            return 2
        if key in axes:
            print(f"error: --axis {key} given twice; list every value in "
                  f"one flag ({key}=V1,V2,...)", file=sys.stderr)
            return 2
        axes[key] = [v.strip() for v in values.split(",") if v.strip()]
    return SweepPlan.matrix(config, models=models, profiles=profiles,
                            axes=axes or None)


def _load_resume(path):
    """An archived SweepReport for --resume, or an exit code."""
    from repro.sweep import SweepReport

    try:
        with open(path, "r", encoding="utf-8") as handle:
            import json

            return SweepReport.from_dict(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load resume archive {path!r}: {exc}",
              file=sys.stderr)
        return 2


def _cmd_fuzz(args, config) -> int:
    """The ``sweep --fuzz`` / ``--fuzz-repro`` correctness oracle:
    generate (or reload) scenarios, cross-check every executor backend
    for bit-identical stats, shrink and re-emit any divergence."""
    from repro import fuzz as fuzz_mod

    if args.fuzz_repro:
        plan, config = fuzz_mod.load_repro(args.fuzz_repro)
        seed = None
    else:
        seed = config.tuning.seed
        plan = fuzz_mod.generate_plan(args.fuzz, seed, config)
    executors = list(fuzz_mod.DEFAULT_EXECUTORS)
    if config.fleet.workers:
        executors.append("remote")
    seed_text = f", seed {seed}" if seed is not None else ""
    print(f"fuzz: {len(plan.scenarios)} scenario(s) x {len(executors)} "
          f"executors ({', '.join(executors)}){seed_text}")
    result = fuzz_mod.cross_check(plan, base=config, executors=executors)
    for name in sorted(result.digests):
        print(f"  {name}: {result.digests[name][executors[0]]}")
    print(f"fuzz: plan digest {result.plan_digest()}")
    if result.ok:
        print(f"fuzz: all {len(result.digests)} scenario(s) bit-identical "
              f"across {', '.join(executors)}")
        return 0
    divergent = result.divergent
    print(f"fuzz: {len(divergent)} divergent scenario(s): "
          f"{', '.join(divergent)}", file=sys.stderr)
    scenario = next(s for s in plan.scenarios if s.name == divergent[0])
    minimal = fuzz_mod.shrink(scenario, executors)
    out = args.fuzz_repro_out
    fuzz_mod.write_repro(
        out, scenario.config, minimal, seed=seed,
        note=f"divergent scenario {scenario.name}",
    )
    print(f"fuzz: shrunk {scenario.name} to {len(minimal)} layer(s); "
          f"repro written to {out} "
          f"(re-run: repro sweep --fuzz-repro {out})", file=sys.stderr)
    return 4


def _cmd_sweep(args) -> int:
    """Execute a scenario matrix: models × profiles × axis overrides."""
    from repro.session import Session, config_from_args

    config = config_from_args(args)
    fuzz_modes = sum(1 for flag in (args.models, args.fuzz, args.fuzz_repro)
                     if flag)
    if fuzz_modes != 1:
        print("error: give exactly one of --models, --fuzz N or "
              "--fuzz-repro FILE", file=sys.stderr)
        return 2
    if args.fuzz or args.fuzz_repro:
        return _cmd_fuzz(args, config)
    plan = _build_matrix_plan(args, config)
    if isinstance(plan, int):
        return plan
    resume = None
    if args.resume:
        resume = _load_resume(args.resume)
        if isinstance(resume, int):
            return resume
    with Session(config) as session:
        _print_corrections(session)
        report = session.sweep(plan, resume=resume)
        print(report.summary(metric=args.metric))
        resumed = report.counters.get("resumed_scenarios")
        if resumed:
            print(f"resume: {resumed} of {len(report.scenarios)} scenarios "
                  f"adopted from {args.resume} (config-hash matched)")
        if args.report_json:
            from pathlib import Path

            Path(args.report_json).write_text(report.to_json() + "\n")
            print(f"sweep report written to {args.report_json}")
        _print_cache_report(session.engine, config.cache.path)
        _print_fleet_report(session.engine)
    _print_trace_report(session)
    return 0


def _cmd_report(args) -> int:
    """Diff archived report JSON files (run/tune/compare/sweep)."""
    from repro.sweep import diff_reports, load_report

    if args.report_command == "diff":
        diff = diff_reports(
            load_report(args.before),
            load_report(args.after),
            metrics=args.metric or None,
        )
        if args.json:
            print(diff.to_json())
        else:
            print(diff.summary())
        if args.fail_on_regression is not None:
            if diff.only_before:
                # A benchmark that vanished from the candidate report
                # must not read as "no regression".
                print(f"error: scenario(s) missing from the after "
                      f"report: {', '.join(diff.only_before)}",
                      file=sys.stderr)
                return 3
            if diff.max_regression > args.fail_on_regression:
                print(f"error: max regression "
                      f"{diff.max_regression:+.2f}% exceeds the "
                      f"--fail-on-regression {args.fail_on_regression:g}% "
                      f"gate", file=sys.stderr)
                return 3
        return 0
    print(f"error: unknown report command {args.report_command!r}",
          file=sys.stderr)
    return 2


def _cmd_config(args) -> int:
    from repro.session import config_from_args, load_profiles

    config = config_from_args(args)
    if args.config_command == "show":
        if args.json:
            print(config.to_json())
        else:
            # Text form is valid TOML for --config; profiles defined by
            # the source file are re-emitted as [profile.X.section]
            # tables so the snapshot keeps them selectable.
            profiles = (
                load_profiles(args.config)
                if getattr(args, "config", None)
                else {}
            )
            print(config.to_toml(profiles=profiles), end="")
        return 0
    print(f"error: unknown config command {args.config_command!r}",
          file=sys.stderr)
    return 2


def _cmd_worker(args) -> int:
    from repro.fleet.worker import serve
    from repro.session import config_from_args

    config = config_from_args(args)
    return serve(
        args.listen,
        cache_path=config.cache.path,
        cache_max_rows=config.cache.max_rows,
        quiet=args.quiet,
        capacity=config.fleet.capacity,
        secret=config.fleet.secret,
    )


def _cmd_serve(args) -> int:
    from repro.serve import serve
    from repro.session import config_from_args

    config = config_from_args(args)
    return serve(
        args.listen,
        config=config,
        archive_dir=args.archive_dir,
        quiet=args.quiet,
    )


def _client_secret(args=None, config=None):
    """The shared secret a client command should present.

    Every service client verb (submit/jobs/status/result/cancel)
    resolves its config the same way, so ``fleet.secret`` from a
    ``--config`` file authenticates all of them alike; the environment
    (the same REPRO_FLEET_SECRET the config layer reads) is the
    fallback when no config resolved a secret."""
    import os

    if config is not None and config.fleet.secret:
        return config.fleet.secret
    return os.environ.get("REPRO_FLEET_SECRET") or None


def _job_line(job) -> str:
    state = job.get("state", "?")
    done = job.get("completed", 0)
    total = job.get("scenarios", 0)
    label = f"  [{job['label']}]" if job.get("label") else ""
    error = f"  ({job['error']})" if job.get("error") else ""
    return (f"{job.get('id', '?'):<10} {state:<10} "
            f"{done}/{total} scenarios{label}{error}")


def _cmd_submit(args) -> int:
    """Submit a scenario matrix to a resident sweep service."""
    from repro.serve import ServeClient
    from repro.session import config_from_args

    if args.plan is not None:
        # `repro submit plan.toml` — the positional is the config file.
        args.config = args.plan
    config = config_from_args(args)
    plan = _build_matrix_plan(args, config)
    if isinstance(plan, int):
        return plan
    resume = None
    if args.resume:
        resume = _load_resume(args.resume)
        if isinstance(resume, int):
            return resume
    with ServeClient(
        args.connect, secret=_client_secret(args, config)
    ) as client:
        job = client.submit(plan, resume=resume, label=args.label)
        print(f"submitted {job['id']}: {len(plan.scenarios)} scenarios, "
              f"state {job['state']}")
        if not args.watch:
            return 0
        final = client.watch(
            job["id"],
            callback=lambda event: print(
                f"  {event.get('event', '?')}: "
                f"{event.get('name', '')} "
                f"[{event.get('completed', 0)}/{event.get('total', 0)}]"
                .rstrip()
            ),
        )
        print(_job_line(final))
        return 0 if final.get("state") == "done" else 1


def _cmd_jobs(args) -> int:
    from repro.serve import ServeClient
    from repro.session import config_from_args

    config = config_from_args(args)
    with ServeClient(
        args.connect, secret=_client_secret(args, config)
    ) as client:
        jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(_job_line(job))
    return 0


def _cmd_status(args) -> int:
    from repro.serve import ServeClient
    from repro.session import config_from_args

    config = config_from_args(args)
    with ServeClient(
        args.connect, secret=_client_secret(args, config)
    ) as client:
        print(_job_line(client.status(args.job)))
    return 0


def _cmd_result(args) -> int:
    from repro.serve import ServeClient
    from repro.session import config_from_args

    config = config_from_args(args)
    with ServeClient(
        args.connect, secret=_client_secret(args, config)
    ) as client:
        report = client.result(args.job)
    if args.report_json:
        from pathlib import Path

        Path(args.report_json).write_text(report.to_json() + "\n")
        print(f"sweep report written to {args.report_json}")
    else:
        print(report.summary(metric=args.metric))
    return 0


def _cmd_cancel(args) -> int:
    from repro.serve import ServeClient
    from repro.session import config_from_args

    config = config_from_args(args)
    with ServeClient(
        args.connect, secret=_client_secret(args, config)
    ) as client:
        job = client.cancel(args.job)
    print(_job_line(job))
    return 0


def _cmd_trace(args) -> int:
    """Inspect and convert trace files written by ``--trace``."""
    import json

    from repro.obs import chrome_events, read_trace, spans_from_document
    from repro.obs import summarize_spans

    try:
        doc = read_trace(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.input!r}: {exc}",
              file=sys.stderr)
        return 2
    spans = spans_from_document(doc)
    if args.trace_command == "export":
        out = {
            "displayTimeUnit": "ms",
            "traceEvents": chrome_events(spans),
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{len(spans)} spans exported to {args.output} "
              f"(chrome://tracing / Perfetto)")
        return 0
    if args.trace_command == "summary":
        section = doc.get("reproTrace")
        metrics = (
            section.get("metrics", {}) if isinstance(section, dict) else {}
        )
        print(summarize_spans(spans, metrics, top=args.top))
        return 0
    print(f"error: unknown trace command {args.trace_command!r}",
          file=sys.stderr)
    return 2


def _cmd_cache(args) -> int:
    from repro.engine import make_stats_cache

    if args.cache_command == "compact":
        import os.path

        if not os.path.exists(args.path):
            # make_stats_cache would create an empty cache here, turning
            # a typo'd path into a silent no-op success.
            print(f"error: no cache file at {args.path!r}", file=sys.stderr)
            return 2
        cache = make_stats_cache(args.path)
        try:
            kept, dropped = cache.compact()
        finally:
            cache.close()
        print(f"compacted {args.path}: {kept} live records kept, "
              f"{dropped} superseded/corrupt lines dropped")
        return 0
    print(f"error: unknown cache command {args.cache_command!r}",
          file=sys.stderr)
    return 2


#: --help epilog: the layered config + distributed workflow in one screen.
FLEET_EPILOG = """\
layered configuration:
  Every flag below can also come from a config file or the environment
  (precedence: flags > REPRO_* environment > --config file > defaults):
      repro config show > repro.toml      # snapshot the effective config
      repro run alexnet --config repro.toml
      REPRO_EXECUTOR=process repro run alexnet

scenario matrices:
  One config file can hold named profiles ([profile.edge],
  [profile.cloud]); `repro sweep` expands models x profiles x axis
  overrides and executes the whole matrix in one session — shared
  layers simulate once and the process workers or fleet see one wide
  batch instead of many small ones:
      repro sweep --config m.toml --profiles edge,cloud \\
          --models mlp,lenet --axis architecture.ms_size=64,128 \\
          --executor process --report-json sweep.json
  Archived reports diff (and gate CI):
      repro report diff baseline.json sweep.json --fail-on-regression 5

workload zoo & fuzzing:
  Models are looked up in one zoo registry (repro.zoo).  Besides the
  classic paper networks (alexnet, lenet, vgg_small, mlp) it registers
  modern workloads: a transformer encoder block (QKV/attention/FFN as
  dense GEMMs), depthwise_sep, grouped_conv, dilated_conv and
  nhwc_conv — all runnable by name wherever a model is named:
      repro run transformer --arch sigma
      repro sweep --models transformer,depthwise_sep --arch maeri \\
          --axis architecture.ms_size=64,128
  SIGMA/MAGMA sparsity is a first-class sweep axis in ratio form:
      repro sweep --models alexnet --arch sigma \\
          --axis architecture.sparsity_ratio=0.0,0.5,0.9
  `repro sweep --fuzz N --seed S` turns the sweep tier into a
  correctness oracle: N seeded random scenarios (random layer shapes,
  accelerator configs and mapping spaces) run once per executor
  backend (serial/thread/process, remote when fleet workers are
  configured) and every simulation statistic is cross-checked for
  bit-identical results.  Same seed, same plan, same digests.  A
  divergence is shrunk to a minimal reproducing scenario and written
  as a ready-to-run TOML (exit 4):
      repro sweep --fuzz 25 --seed 7
      repro sweep --fuzz-repro fuzz_repro.toml   # replay the repro

distributed sweeps:
  Start one worker daemon per machine (or core group) — or let the
  session do it with `fleet_autostart = N` in the [fleet] section:
      repro worker --listen 0.0.0.0:9461 --cache-path shared.sqlite
  then point any run/tune/compare/sweep at the fleet:
      repro tune alexnet conv1 --objective cycles \\
          --workers hostA:9461,hostB:9461 --cache-path sweep.sqlite
  The remote executor shards each evaluation batch across the workers,
  retries dead workers' shards on survivors, and falls back to inline
  execution when no worker is reachable — results are bit-identical to
  --executor serial.  A shared .sqlite cache path lets concurrent
  sweeps and workers reuse each other's measurements mid-run (bound it
  with --cache-max-rows); compact long-lived JSONL spills with:
  repro cache compact PATH

sweep service:
  For the many-users-one-substrate traffic model, run one resident
  daemon owning the shared cache and fleet, and submit matrices to it
  instead of running them locally:
      repro serve --listen 0.0.0.0:9462 --cache-path shared.sqlite \\
          --archive-dir archive/
      repro submit plan.toml --models alexnet,lenet \\
          --axis architecture.ms_size=64,128 --watch
      repro jobs                       # queue in submission order
      repro status job-0001            # one job's state/progress
      repro result job-0001 --report-json mine.json
      repro cancel job-0002            # stops at the next scenario
  Jobs run one at a time against the daemon's single session; clients
  overlap through the shared stats cache, so a scenario any earlier job
  simulated is a cache hit for every later one — results stay
  bit-identical to `repro sweep` run locally.  Finished (and cancelled)
  reports land in --archive-dir as plain SweepReport JSON: diff them
  with `repro report diff`, or resubmit with --resume ARCHIVED.json
  (also on plain `repro sweep`) to re-run only scenarios whose hash
  (engine fingerprint, tuning, workload) is absent from the archive.
  Set fleet.secret / REPRO_FLEET_SECRET on daemons and clients to
  require a shared-secret handshake on every connection (workers
  honour the same knob).
  SIGTERM/SIGINT shut daemons down gracefully: in-flight work drains,
  a running job's partial report is archived resumable, caches close,
  exit 0.

saturation scheduling:
  Every batch of cache misses drains through one pull-based work
  queue: each executor slot (thread, process, or fleet capacity unit)
  pulls the next chunk as it finishes, so fast slots steal slow slots'
  queued tails and engine groups overlap instead of running back to
  back.  Serial runs are one slot, drained inline as one chunk per
  group.  A worker started with --fleet-capacity N advertises N pull
  slots, so it runs N chunks at once.
  Tune the queue with --chunk-size (items per pull, default auto).
  With auto sizing, thread and process pools run every group inline
  as one chunk on the caller's thread, like serial: on a 2-vCPU host a
  round trip to a local slot cost more than the simulations it moved.
  An explicit --chunk-size sends every group through the pool, and
  only then does --executor process keep a simulation that crashes
  its interpreter out of the calling process.
  Stealing never moves a chunk a slot is already running:
  --fleet-shard-timeout is the only bound on a slow or wedged worker.
  Results stay bit-identical to --executor serial; per-run pull/steal
  counters land in the report JSON under counters.scheduler.

tracing and metrics:
  Any run/tune/compare/sweep records spans with --trace: session ->
  sweep -> engine -> per-slot scheduler chunks (steals as a
  distinct span name) -> cache tier events, plus
  one lane per fleet worker with the worker's own batch timing shipped
  back in the wire protocol.  The file loads directly in
  chrome://tracing / Perfetto:
      repro sweep --models mlp,lenet --executor process \\
          --trace --trace-path sweep_trace.json --metrics
      repro trace summary sweep_trace.json   # top spans by self-time,
                                             # hit rates, slot usage
      repro trace export sweep_trace.json chrome.json
  --metrics attaches a metrics section (per-tier cache hit rates,
  simulations/sec, chunk-latency histogram, fleet worker health) to
  the report JSON; `repro report diff` shows its deltas when both
  archives carry one.  Disabled tracing is a no-op check per span
  (<2% overhead, gated by benchmarks/bench_obs_overhead.py).
"""


def _add_service_client_args(parser) -> None:
    """The flags every lightweight service-client verb shares, so
    jobs/status/result/cancel resolve the shared secret exactly the way
    ``repro submit`` does (config file and REPRO_FLEET_SECRET alike)."""
    parser.add_argument(
        "--connect", default="127.0.0.1:9462", metavar="HOST:PORT",
        help="sweep service address (default 127.0.0.1:9462)")
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="layered config file; resolves fleet.secret for the "
             "handshake (REPRO_FLEET_SECRET also works)")
    parser.add_argument(
        "--profile", metavar="NAME", default=None,
        help="named [profile.NAME] overlay from the --config file")


def build_parser() -> argparse.ArgumentParser:
    from repro.session import add_config_arguments
    from repro.zoo import zoo_models

    # Resolved at parser-build time so late zoo registrations (plugins,
    # fuzz models) are included in the choices.
    MODELS = zoo_models()

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bifrost reproduction CLI",
        epilog=FLEET_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("features", help="print the Table I feature matrix")

    run = sub.add_parser("run", help="simulate a zoo model end to end")
    run.add_argument("model", choices=MODELS)
    add_config_arguments(run)
    run.add_argument("--energy", action="store_true",
                     help="also report total energy")
    run.add_argument("--report-json", dest="report_json", metavar="FILE",
                     help="also write the structured RunReport as JSON")

    tune = sub.add_parser("tune", help="tune one layer's mapping (MAERI)")
    tune.add_argument("model", choices=MODELS)
    tune.add_argument("layer", help="layer name, e.g. conv3 or fc1")
    add_config_arguments(tune)
    tune.add_argument("--log", help="write the tuning history as JSONL")

    compare = sub.add_parser(
        "compare", help="default vs AutoTVM vs mRNA mappings (MAERI)"
    )
    compare.add_argument("model", choices=MODELS)
    add_config_arguments(compare)

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario matrix (models x profiles x axis overrides) "
             "with cross-scenario batching and dedup",
    )
    sweep.add_argument(
        "--models", metavar="M1,M2,...",
        help=f"comma-separated zoo models ({', '.join(MODELS)})")
    sweep.add_argument(
        "--fuzz", type=int, metavar="N",
        help="instead of --models: generate N seeded random scenarios "
             "(random layers/configs/mappings), run them once per "
             "executor backend (serial/thread/process, remote when "
             "fleet workers are configured) and cross-check for "
             "bit-identical stats; divergences shrink to a minimal "
             "repro TOML (exit 4).  Seeded by --seed")
    sweep.add_argument(
        "--fuzz-repro", dest="fuzz_repro", metavar="FILE",
        help="re-run a divergence repro file written by --fuzz")
    sweep.add_argument(
        "--fuzz-repro-out", dest="fuzz_repro_out", metavar="FILE",
        default="fuzz_repro.toml",
        help="where --fuzz writes the shrunk divergence repro "
             "(default fuzz_repro.toml)")
    add_config_arguments(sweep)
    sweep.add_argument(
        "--profiles", metavar="P1,P2,...",
        help="config profiles from the --config file to expand over "
             "([profile.P1], [profile.P2], ...)")
    sweep.add_argument(
        "--axis", action="append", metavar="KEY=V1,V2,...",
        help="sweep a config knob over values (dotted section.name or "
             "flat key; repeatable, axes cross-multiply)")
    sweep.add_argument(
        "--metric", default="total_cycles",
        help="summary-table metric (default total_cycles)")
    sweep.add_argument(
        "--report-json", dest="report_json", metavar="FILE",
        help="also write the structured SweepReport as JSON "
             "(diffable via: repro report diff)")
    sweep.add_argument(
        "--resume", metavar="ARCHIVED.json",
        help="skip scenarios whose hash (engine fingerprint, tuning, "
             "workload) matches this archived SweepReport (interrupted "
             "matrices pick up where they left off)")

    config = sub.add_parser(
        "config",
        help="inspect the layered session configuration",
    )
    config_sub = config.add_subparsers(dest="config_command", required=True)
    show = config_sub.add_parser(
        "show",
        help="print the fully-resolved effective config (flags > env > "
             "--config file > defaults); the default output is valid "
             "TOML for --config",
    )
    add_config_arguments(show)
    show.add_argument("--json", action="store_true",
                      help="emit JSON (round-trips through "
                           "SessionConfig.from_dict)")

    worker = sub.add_parser(
        "worker",
        help="serve simulation batches to remote executors (fleet daemon)",
    )
    worker.add_argument(
        "--listen", default="127.0.0.1:9461", metavar="HOST:PORT",
        help="address to bind (default 127.0.0.1:9461; port 0 picks a "
             "free port)")
    add_config_arguments(worker)
    worker.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner")

    serve = sub.add_parser(
        "serve",
        help="run the resident sweep service: one shared session, a job "
             "queue, and a report archive served to many clients",
    )
    serve.add_argument(
        "--listen", default="127.0.0.1:9462", metavar="HOST:PORT",
        help="address to bind (default 127.0.0.1:9462; port 0 picks a "
             "free port)")
    add_config_arguments(serve)
    serve.add_argument(
        "--archive-dir", dest="archive_dir", metavar="DIR",
        default="serve-archive",
        help="directory for finished-job SweepReport JSON (default "
             "serve-archive/; files feed repro report diff and --resume)")
    serve.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner")

    submit = sub.add_parser(
        "submit",
        help="submit a scenario matrix to a running sweep service",
    )
    submit.add_argument(
        "plan", nargs="?", metavar="PLAN.toml",
        help="config file describing the base config (and profiles) of "
             "the matrix; equivalent to --config PLAN.toml")
    submit.add_argument(
        "--models", required=True, metavar="M1,M2,...",
        help=f"comma-separated zoo models ({', '.join(MODELS)})")
    add_config_arguments(submit)
    submit.add_argument(
        "--profiles", metavar="P1,P2,...",
        help="config profiles from the plan file to expand over")
    submit.add_argument(
        "--axis", action="append", metavar="KEY=V1,V2,...",
        help="sweep a config knob over values (repeatable)")
    submit.add_argument(
        "--connect", default="127.0.0.1:9462", metavar="HOST:PORT",
        help="sweep service address (default 127.0.0.1:9462)")
    submit.add_argument(
        "--resume", metavar="ARCHIVED.json",
        help="archived SweepReport; the service skips config-hash-matched "
             "scenarios and folds the archived results into the job")
    submit.add_argument(
        "--label", metavar="TEXT", help="free-form job label")
    submit.add_argument(
        "--watch", action="store_true",
        help="stream scenario-level progress until the job lands "
             "(exit 0 only if it lands done)")

    jobs = sub.add_parser(
        "jobs", help="list a sweep service's jobs in submission order"
    )
    _add_service_client_args(jobs)

    status = sub.add_parser("status", help="one job's current state")
    status.add_argument("job", help="job id (repro jobs)")
    _add_service_client_args(status)

    result = sub.add_parser(
        "result",
        help="fetch a finished job's archived SweepReport",
    )
    result.add_argument("job", help="job id (repro jobs)")
    _add_service_client_args(result)
    result.add_argument(
        "--metric", default="total_cycles",
        help="summary-table metric (default total_cycles)")
    result.add_argument(
        "--report-json", dest="report_json", metavar="FILE",
        help="write the report JSON instead of printing the summary "
             "(diffable via repro report diff, resumable via --resume)")

    cancel = sub.add_parser(
        "cancel",
        help="cancel a queued or running job (running jobs stop at the "
             "next scenario boundary; the partial report stays resumable)",
    )
    cancel.add_argument("job", help="job id (repro jobs)")
    _add_service_client_args(cancel)

    report = sub.add_parser(
        "report", help="work with archived report JSON files"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    diff = report_sub.add_parser(
        "diff",
        help="typed per-scenario cycle/energy deltas between two report "
             "files (RunReport or SweepReport JSON); gate CI with "
             "--fail-on-regression",
    )
    diff.add_argument("before", help="baseline report JSON")
    diff.add_argument("after", help="candidate report JSON")
    diff.add_argument(
        "--fail-on-regression", dest="fail_on_regression", type=float,
        metavar="PCT", default=None,
        help="exit 3 when any metric regresses by more than PCT percent "
             "(or a baseline scenario is missing from the after report)")
    diff.add_argument(
        "--metric", action="append", metavar="NAME", default=None,
        help="only diff this metric (repeatable; a name also matches its "
             "scheme-qualified forms, e.g. cycles selects cycles[mRNA])")
    diff.add_argument(
        "--json", action="store_true",
        help="emit the structured diff as JSON instead of the table")

    trace = sub.add_parser(
        "trace",
        help="inspect trace files recorded with --trace",
        description="Inspect and convert the trace files any "
                    "run/tune/compare/sweep writes under --trace "
                    "(Chrome trace-event JSON plus a lossless "
                    "reproTrace section).",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="write a plain Chrome trace-event file (traceEvents only) "
             "for chrome://tracing or Perfetto",
    )
    export.add_argument("input", help="trace file written by --trace")
    export.add_argument("output", help="Chrome trace-event JSON to write")
    summary = trace_sub.add_parser(
        "summary",
        help="print top spans by self-time, cache hit rates and "
             "scheduler slot utilization",
    )
    summary.add_argument("input", help="trace file written by --trace")
    summary.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="rows in the span table (default 12)")

    cache = sub.add_parser(
        "cache", help="maintain persistent stats caches"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    compact = cache_sub.add_parser(
        "compact",
        help="rewrite a cache keeping only live, deduplicated records "
             "(JSONL: last write per key wins, corrupt lines dropped; "
             "SQLite: VACUUM)",
    )
    compact.add_argument("path", help="cache file to compact")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "features": _cmd_features,
        "run": _cmd_run,
        "tune": _cmd_tune,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "config": _cmd_config,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "status": _cmd_status,
        "result": _cmd_result,
        "cancel": _cmd_cancel,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
