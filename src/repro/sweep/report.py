"""Typed, diffable results of a scenario-matrix sweep.

:class:`SweepReport` maps every executed :class:`~repro.sweep.plan.Scenario`
to its single-scenario report (:class:`~repro.session.RunReport`,
:class:`~repro.session.TuneReport` or :class:`~repro.session.CompareReport`)
plus the sweep-scoped engine counters — ``num_simulations`` here is the
proof that cross-scenario dedup worked.  Reports are plain data:
``to_json``/``from_json`` round-trip bit-identically, ``summary()``
renders the tabular view, and ``best()``/``filter()`` answer the two
questions every sweep ends with ("which cell won?", "show me the edge
rows").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.session.reports import (
    CompareReport,
    RunReport,
    TuneReport,
    report_from_dict,
)


def scenario_metric(report, metric: str) -> Optional[float]:
    """Extract one scalar metric from a single-scenario report.

    ``total_cycles``/``cycles`` and ``total_psums``/``psums`` read run
    reports, ``energy`` sums the per-layer energy model over a run, and
    ``best_cost``/``cost`` reads tune reports.  Returns None when the
    report kind does not carry the metric (a compare scenario has no
    single total), so mixed-kind sweeps rank only the comparable cells.
    """
    if isinstance(report, RunReport):
        if metric in ("total_cycles", "cycles"):
            return float(report.total_cycles)
        if metric in ("total_psums", "psums"):
            return float(report.total_psums)
        if metric == "energy":
            from repro.stonne.energy import attach_energy

            return float(
                sum(attach_energy(s).energy for s in report.layer_stats)
            )
        return None
    if isinstance(report, TuneReport):
        if metric in ("best_cost", "cost"):
            return float(report.best_cost)
        return None
    return None


@dataclass
class ScenarioResult:
    """One executed sweep cell: its matrix coordinates plus its report.

    ``config_hash`` is the scenario's fingerprint
    (:func:`repro.sweep.resume.scenario_fingerprint`, over its engine's
    fingerprint and workload), stamped at execution time — it is what
    ``--resume`` matches an archived cell against a new plan with, so
    renamed scenarios still resume and ones on other hardware or params
    never do.  Archives predating it (no hash) are simply never matched.
    """

    name: str
    kind: str
    report: Any  # RunReport | TuneReport | CompareReport
    model: Optional[str] = None
    profile: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    config_hash: Optional[str] = None

    def labels(self) -> Dict[str, Any]:
        labels: Dict[str, Any] = {"model": self.model}
        if self.profile is not None:
            labels["profile"] = self.profile
        labels.update(self.overrides)
        return labels

    def metric(self, name: str = "total_cycles") -> Optional[float]:
        return scenario_metric(self.report, name)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "kind": self.kind,
            "model": self.model,
            "profile": self.profile,
            "overrides": dict(self.overrides),
            "report": self.report.to_dict(),
        }
        if self.config_hash is not None:
            data["config_hash"] = self.config_hash
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        return cls(
            name=data["name"],
            kind=data.get("kind", "run"),
            report=report_from_dict(data["report"]),
            model=data.get("model"),
            profile=data.get("profile"),
            overrides=dict(data.get("overrides", {})),
            config_hash=data.get("config_hash"),
        )


@dataclass
class SweepReport:
    """The full result of one :meth:`repro.session.Session.sweep` call.

    Attributes:
        scenarios: One :class:`ScenarioResult` per plan scenario, in
            plan order.
        counters: Sweep-scoped engine bookkeeping deltas —
            ``num_evaluations``, ``num_simulations`` (the dedup proof),
            ``cache_hits``/``cache_misses`` across every engine the
            sweep touched.
        metrics: Observability section (``--metrics``): wall time,
            simulations/sec, per-tier cache hit rates, scheduler
            chunk-latency histogram, fleet worker health.  Empty unless
            metrics were enabled; omitted from the JSON form when
            empty, so metrics-less archives stay byte-stable.
    """

    scenarios: List[ScenarioResult]
    counters: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.scenarios)

    def __getitem__(self, name: str) -> Any:
        """The single-scenario report for ``name`` (``report["mlp/edge"]``)."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario.report
        raise KeyError(
            f"no scenario {name!r} in this sweep; "
            f"scenarios: {', '.join(self.names)}"
        )

    @property
    def names(self) -> List[str]:
        return [scenario.name for scenario in self.scenarios]

    @property
    def reports(self) -> Dict[str, Any]:
        """``{scenario name: report}`` in plan order."""
        return {s.name: s.report for s in self.scenarios}

    # ------------------------------------------------------------------
    def best(self, metric: str = "total_cycles") -> ScenarioResult:
        """The scenario minimizing ``metric`` (cells without it are
        skipped; an all-incomparable sweep raises)."""
        ranked = [
            (value, scenario)
            for scenario in self.scenarios
            if (value := scenario.metric(metric)) is not None
        ]
        if not ranked:
            raise ReproError(
                f"no scenario in this sweep carries metric {metric!r}"
            )
        return min(ranked, key=lambda pair: pair[0])[1]

    def filter(
        self,
        predicate: Optional[Callable[[ScenarioResult], bool]] = None,
        **labels: Any,
    ) -> "SweepReport":
        """A sub-report of the scenarios matching every criterion.

        ``labels`` match the cell's matrix coordinates
        (``filter(model="mlp")``, ``filter(profile="edge")``, any axis
        key); ``predicate`` is an arbitrary test on the
        :class:`ScenarioResult`.
        """
        kept = []
        for scenario in self.scenarios:
            cell = scenario.labels()
            if any(
                key not in cell or cell[key] != value
                for key, value in labels.items()
            ):
                continue
            if predicate is not None and not predicate(scenario):
                continue
            kept.append(scenario)
        return SweepReport(
            scenarios=kept,
            counters=dict(self.counters),
            metrics=dict(self.metrics),
        )

    # ------------------------------------------------------------------
    def summary(self, metric: str = "total_cycles") -> str:
        """Aligned table: one row per scenario plus the dedup counters."""
        rows = [("scenario", "kind", metric)]
        for scenario in self.scenarios:
            value = scenario.metric(metric)
            rows.append(
                (
                    scenario.name,
                    scenario.kind,
                    f"{value:,.0f}" if value is not None else "-",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = [
            "  ".join(
                cell.ljust(width) if i < 2 else cell.rjust(width)
                for i, (cell, width) in enumerate(zip(row, widths))
            ).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * width for width in widths))
        if self.counters:
            lines.append(
                "sweep: {scenarios} scenarios, "
                "{num_evaluations} evaluations, "
                "{num_simulations} simulations, "
                "{cache_hits} cache hits".format(
                    scenarios=len(self.scenarios),
                    num_evaluations=self.counters.get("num_evaluations", 0),
                    num_simulations=self.counters.get("num_simulations", 0),
                    cache_hits=self.counters.get("cache_hits", 0),
                )
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kind": "sweep",
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "counters": dict(self.counters),
        }
        if self.metrics:
            data["metrics"] = dict(self.metrics)
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Sorted-key JSON; ``indent=None`` is compact, one line."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepReport":
        return cls(
            scenarios=[
                ScenarioResult.from_dict(entry)
                for entry in data.get("scenarios", [])
            ],
            counters=dict(data.get("counters", {})),
            metrics=dict(data.get("metrics", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_dict(json.loads(text))


__all__ = [
    "CompareReport",
    "RunReport",
    "ScenarioResult",
    "SweepReport",
    "TuneReport",
    "scenario_metric",
]
