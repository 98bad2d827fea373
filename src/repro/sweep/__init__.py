"""repro.sweep — scenario matrices as the top of the measurement API.

The paper's experiments are cross-products (models × accelerator
configurations × mapping spaces); this package makes that product a
first-class object instead of a shell loop:

* :class:`Scenario` — one named cell: a resolved
  :class:`~repro.session.SessionConfig` plus a workload reference;
* :class:`SweepPlan` — matrix expansion of models × config profiles ×
  axis overrides (``SweepPlan.matrix(base, models, profiles, axes)``);
* :class:`~repro.sweep.runner.SweepRunner` — planned cross-scenario
  execution: all scenarios sharing a hardware config flatten into one
  engine batch, so shared layers simulate once and the process/fleet
  tiers stay saturated across the whole matrix
  (:meth:`repro.session.Session.sweep` is the public entry point);
* :class:`SweepReport` — typed results (scenario → run/tune/compare
  report) with JSON round-tripping, ``summary()``, ``best()`` and
  ``filter()``;
* :func:`diff_reports` / :func:`load_report` — typed deltas between
  archived reports, the engine behind ``repro report diff`` and its
  ``--fail-on-regression`` CI gate.

Typical use::

    from repro.session import Session, load_profiles
    from repro.sweep import SweepPlan

    with Session.from_file("repro.toml") as s:
        plan = SweepPlan.matrix(
            s.config,
            models=["mlp", "lenet"],
            profiles=load_profiles("repro.toml"),
            axes={"architecture.ms_size": [64, 128]},
        )
        report = s.sweep(plan)
        print(report.summary())
        print(report.best().name)
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweep.diff": (
        "MetricDelta", "ReportDiff", "ScenarioDelta", "diff_reports",
        "load_report",
    ),
    "repro.sweep.plan": (
        "SCENARIO_KINDS", "Scenario", "SweepPlan", "resolve_axis_key",
    ),
    "repro.sweep.report": ("ScenarioResult", "SweepReport", "scenario_metric"),
    "repro.sweep.resume": ("scenario_fingerprint", "split_resume"),
    "repro.sweep.runner": ("SweepRunner",),
})
