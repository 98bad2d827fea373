"""Typed report diffing: ``repro report diff a.json b.json``.

Archived reports (``RunReport``/``TuneReport``/``CompareReport``/
``SweepReport`` JSON) become comparable artifacts: :func:`diff_reports`
aligns two of them scenario by scenario and produces per-metric deltas
(cycles, energy, tuning cost), and :attr:`ReportDiff.max_regression`
feeds the ``--fail-on-regression PCT`` CI gate — a branch that slows a
tracked scenario past the threshold fails the pipeline with a distinct
exit code.

Every metric here is *higher-is-worse* (cycles, energy, cost), so a
positive percent delta is a regression and a negative one an
improvement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError
from repro.session.reports import (
    CompareReport,
    RunReport,
    TuneReport,
    report_from_dict,
)
from repro.sweep.report import SweepReport

AnyReport = Union[RunReport, TuneReport, CompareReport, SweepReport]


def load_report(path: Union[str, Path]) -> AnyReport:
    """Load any archived report JSON, dispatching on its ``kind`` tag."""
    p = Path(path)
    if not p.exists():
        raise ReproError(f"report file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ReproError(f"invalid JSON in report file {p}: {exc}") from None
    if not isinstance(data, dict):
        raise ReproError(f"report file {p} does not hold a report object")
    if data.get("kind") == "sweep":
        return SweepReport.from_dict(data)
    try:
        return report_from_dict(data)
    except (KeyError, ValueError) as exc:
        raise ReproError(f"cannot parse report file {p}: {exc}") from None


def _report_metrics(report) -> Dict[str, float]:
    """The diffable scalar metrics of one single-scenario report."""
    if isinstance(report, RunReport):
        from repro.stonne.energy import attach_energy

        return {
            "cycles": float(report.total_cycles),
            "energy": float(
                sum(attach_energy(s).energy for s in report.layer_stats)
            ),
        }
    if isinstance(report, TuneReport):
        return {"best_cost": float(report.best_cost)}
    if isinstance(report, CompareReport):
        metrics: Dict[str, float] = {}
        for scheme in report.schemes:
            metrics[f"cycles[{scheme}]"] = float(
                sum(row["cycles"][scheme] for row in report.rows)
            )
        return metrics
    raise ReproError(
        f"cannot diff report of type {type(report).__name__}"
    )


def _scenario_key(scenario) -> str:
    """The matrix-coordinate identity of one sweep cell.

    Scenarios are matched across reports on their *labels* (kind, model,
    profile, override axes) rather than their raw names, so renaming a
    scenario between two archived sweeps does not break the CI gate.
    Scenarios without labels fall back to the name.
    """
    labels = {k: v for k, v in scenario.labels().items() if v is not None}
    if not labels:
        return scenario.name
    labels["kind"] = scenario.kind
    return json.dumps(labels, sort_keys=True, default=str)


def _as_scenarios(report: AnyReport) -> Dict[str, Any]:
    """Flatten any report into ``{match key: (display name, metrics)}``."""
    if isinstance(report, SweepReport):
        counts: Dict[str, int] = {}
        for scenario in report.scenarios:
            key = _scenario_key(scenario)
            counts[key] = counts.get(key, 0) + 1
        out: Dict[str, Any] = {}
        for scenario in report.scenarios:
            key = _scenario_key(scenario)
            if counts[key] > 1:
                key = scenario.name  # ambiguous coordinates: name decides
            out[key] = (scenario.name, _report_metrics(scenario.report))
        return out
    name = getattr(report, "model", None) or getattr(report, "layer", None)
    return {name or "report": (name or "report", _report_metrics(report))}


def _metric_selected(metric: str, metrics: Optional[List[str]]) -> bool:
    """Whether ``metric`` passes the ``--metric`` filter.  A filter name
    also matches its scheme-qualified forms (``cycles`` selects
    ``cycles[mRNA]``), so compare reports stay filterable."""
    if not metrics:
        return True
    return any(
        metric == name or metric.startswith(name + "[") for name in metrics
    )


@dataclass
class MetricDelta:
    """One metric's before/after pair (higher is worse)."""

    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def percent(self) -> float:
        """Signed percent change; a zero baseline with any growth is an
        infinite regression (it can never pass a finite gate)."""
        if self.before == 0:
            return 0.0 if self.after == 0 else float("inf")
        return (self.after - self.before) / self.before * 100.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "percent": self.percent,
        }


@dataclass
class ScenarioDelta:
    """Every metric delta of one scenario present in both reports."""

    name: str
    metrics: List[MetricDelta]

    @property
    def regression_pct(self) -> float:
        return max((m.percent for m in self.metrics), default=0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metrics": [m.to_dict() for m in self.metrics],
        }


def _observability_deltas(before: AnyReport, after: AnyReport) -> Dict[str, Any]:
    """Informational deltas from the two reports' ``metrics`` sections.

    Present only when *both* archives carry a metrics section
    (``--metrics`` runs).  Strictly informational: throughput and hit
    rates depend on the machine, the cache's starting state and the
    executor, so they never feed ``max_regression``/``is_zero`` — the
    CI gate stays a pure measurement gate.
    """
    before_metrics = getattr(before, "metrics", None) or {}
    after_metrics = getattr(after, "metrics", None) or {}
    if not before_metrics or not after_metrics:
        return {}
    readers = (
        ("cache_hit_rate", lambda m: m.get("cache", {}).get("hit_rate")),
        ("simulations_per_s", lambda m: m.get("simulations_per_s")),
        ("wall_s", lambda m: m.get("wall_s")),
    )
    out: Dict[str, Any] = {}
    for name, read in readers:
        b, a = read(before_metrics), read(after_metrics)
        if isinstance(b, (int, float)) and isinstance(a, (int, float)):
            out[name] = {
                "before": float(b),
                "after": float(a),
                "delta": float(a) - float(b),
            }
    return out


@dataclass
class ReportDiff:
    """The typed comparison of two archived reports.

    ``observability`` carries informational metrics deltas (cache hit
    rate, simulations/sec, wall time) when both archives have a
    ``metrics`` section; it is excluded from ``max_regression`` and
    ``is_zero`` so environment-dependent throughput can never trip the
    ``--fail-on-regression`` gate.
    """

    scenarios: List[ScenarioDelta]
    only_before: List[str] = field(default_factory=list)
    only_after: List[str] = field(default_factory=list)
    observability: Dict[str, Any] = field(default_factory=dict)

    @property
    def max_regression(self) -> float:
        """Worst percent increase across every scenario and metric."""
        return max(
            (s.regression_pct for s in self.scenarios), default=0.0
        )

    @property
    def is_zero(self) -> bool:
        """True when both reports describe identical measurements."""
        return (
            not self.only_before
            and not self.only_after
            and all(
                m.delta == 0 for s in self.scenarios for m in s.metrics
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kind": "report_diff",
            "scenarios": [s.to_dict() for s in self.scenarios],
            "only_before": list(self.only_before),
            "only_after": list(self.only_after),
            "max_regression_percent": self.max_regression,
            "zero": self.is_zero,
        }
        if self.observability:
            data["observability"] = dict(self.observability)
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Aligned per-scenario metric deltas plus the verdict line."""
        rows = [("scenario", "metric", "before", "after", "delta", "pct")]
        for scenario in self.scenarios:
            for m in scenario.metrics:
                rows.append(
                    (
                        scenario.name,
                        m.metric,
                        f"{m.before:,.0f}",
                        f"{m.after:,.0f}",
                        f"{m.delta:+,.0f}",
                        f"{m.percent:+.2f}%" if m.percent != float("inf")
                        else "+inf%",
                    )
                )
        widths = [max(len(row[i]) for row in rows) for i in range(6)]
        lines = [
            "  ".join(
                cell.ljust(width) if i < 2 else cell.rjust(width)
                for i, (cell, width) in enumerate(zip(row, widths))
            ).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * width for width in widths))
        for name in self.only_before:
            lines.append(f"only in before: {name}")
        for name in self.only_after:
            lines.append(f"only in after: {name}")
        if self.observability:
            parts = []
            pair = self.observability.get("cache_hit_rate")
            if pair:
                parts.append(
                    f"cache hit rate {pair['before']:.1%} -> "
                    f"{pair['after']:.1%}"
                )
            pair = self.observability.get("simulations_per_s")
            if pair:
                parts.append(
                    f"{pair['before']:,.0f} -> {pair['after']:,.0f} "
                    f"simulations/s"
                )
            pair = self.observability.get("wall_s")
            if pair:
                parts.append(
                    f"wall {pair['before']:.2f}s -> {pair['after']:.2f}s"
                )
            if parts:
                lines.append(
                    "observability (informational): " + ", ".join(parts)
                )
        if self.is_zero:
            lines.append("no differences")
        else:
            lines.append(
                f"max regression: {self.max_regression:+.2f}%"
                if self.max_regression != float("inf")
                else "max regression: +inf%"
            )
        return "\n".join(lines)


def diff_reports(
    before: AnyReport,
    after: AnyReport,
    metrics: Optional[List[str]] = None,
) -> ReportDiff:
    """Compare two reports scenario by scenario.

    Sweep scenarios are matched on their matrix labels (kind, model,
    profile, override axes) so a rename between archives still pairs up;
    label-less reports (bare ``RunReport``/``TuneReport``) match by
    name.  Metrics present on both sides are diffed — restricted to
    ``metrics`` when given (``["cycles"]`` gates cycles without gating
    energy) — and scenarios present on only one side are listed
    separately so a silently dropped benchmark cannot read as "no
    regression".
    """
    before_scenarios = _as_scenarios(before)
    after_scenarios = _as_scenarios(after)
    deltas: List[ScenarioDelta] = []
    for key, (name, before_metrics) in before_scenarios.items():
        matched = after_scenarios.get(key)
        if matched is None:
            continue
        after_metrics = matched[1]
        shared = [
            MetricDelta(metric, before_metrics[metric], after_metrics[metric])
            for metric in before_metrics
            if metric in after_metrics and _metric_selected(metric, metrics)
        ]
        deltas.append(ScenarioDelta(name=name, metrics=shared))
    return ReportDiff(
        scenarios=deltas,
        only_before=[
            name for key, (name, _) in before_scenarios.items()
            if key not in after_scenarios
        ],
        only_after=[
            name for key, (name, _) in after_scenarios.items()
            if key not in before_scenarios
        ],
        observability=_observability_deltas(before, after),
    )
