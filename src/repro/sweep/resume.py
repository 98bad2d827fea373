"""Sweep resume: skip scenarios an archived report already answered.

A week-long matrix that dies at cell 37 should not re-simulate cells
1–36.  :func:`scenario_fingerprint` hashes what determines a cell's
report: the fingerprint of the engine the sweep runner resolved for it
(hardware, cycle-model params, controller class — what the stats cache
keys on), the ``functional`` flag, the tuning section and the workload
reference.  Renamed scenarios still match; a cell on other hardware or
params never does, however its architecture section is spelled; and
environmental knobs (executor, cache paths, fleet wiring, a rotated
``fleet.secret``) never invalidate a match.
:func:`split_resume` partitions a new plan against an archived
:class:`~repro.sweep.report.SweepReport` into the scenarios that must
still run and the results that carry over (re-labelled to the new
plan's coordinates).

Archives written before hashes existed carry no ``config_hash`` and are
never matched — resume degrades to a full run, never to a wrong reuse.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Tuple

from repro.sweep.plan import Scenario, SweepPlan
from repro.sweep.report import ScenarioResult, SweepReport


def scenario_fingerprint(
    scenario: Scenario, engine_fingerprint: str
) -> Optional[str]:
    """The hash identifying a scenario's result.

    ``engine_fingerprint`` is the
    :attr:`~repro.engine.EvaluationEngine.fingerprint` of the engine the
    scenario runs on.  Labels (name, profile, overrides), the raw
    architecture section and environmental knobs are deliberately
    excluded — two cells on the same engine with the same workload
    produce the same report, however they were spelled in the matrix
    and wherever they ran.

    Returns None for target-bearing scenarios (bare layer descriptors
    have no stable serialized form), which therefore never resume.
    """
    if scenario.target is not None:
        return None
    payload = {
        "engine": engine_fingerprint,
        "functional": scenario.config.engine.functional,
        "tuning": vars(scenario.config.tuning),
        "model": scenario.model,
        "kind": scenario.kind,
        "layer": scenario.layer,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def split_resume(
    plan: SweepPlan,
    hashes: Mapping[str, Optional[str]],
    archive: SweepReport,
) -> Tuple[List[Scenario], Dict[str, ScenarioResult]]:
    """Partition ``plan`` against ``archive`` into (pending, reused).

    ``hashes`` maps each scenario name to its
    :func:`scenario_fingerprint`.  ``pending`` keeps plan order;
    ``reused`` maps scenario *name* (from the new plan) to the archived
    result re-labelled to the new cell's coordinates, so the merged
    report reads as if the whole plan ran.  Each archived result is
    consumed at most once.
    """
    by_hash: Dict[str, ScenarioResult] = {}
    for result in archive.scenarios:
        if result.config_hash and result.config_hash not in by_hash:
            by_hash[result.config_hash] = result

    pending: List[Scenario] = []
    reused: Dict[str, ScenarioResult] = {}
    for scenario in plan.scenarios:
        fingerprint = hashes[scenario.name]
        archived = by_hash.pop(fingerprint, None) if fingerprint else None
        if archived is None:
            pending.append(scenario)
            continue
        reused[scenario.name] = ScenarioResult(
            name=scenario.name,
            kind=scenario.kind,
            report=archived.report,
            model=scenario.model,
            profile=scenario.profile,
            overrides=dict(scenario.overrides),
            config_hash=fingerprint,
        )
    return pending, reused


__all__ = ["scenario_fingerprint", "split_resume"]
