"""Scenario matrices: *what* a sweep evaluates, as first-class objects.

The paper's core experiment is a cross-product — DNN models × accelerator
configurations × mapping spaces — yet scripting that product by hand (one
``repro run`` per cell) loses cross-run caching and never saturates the
executor tiers.  :class:`Scenario` names one resolved cell (a
:class:`~repro.session.SessionConfig` plus a workload reference) and
:class:`SweepPlan` expands the matrix::

    plan = SweepPlan.matrix(
        base_config,
        models=["mlp", "lenet"],
        profiles=load_profiles("repro.toml"),      # [profile.edge] / [profile.cloud]
        axes={"architecture.ms_size": [64, 128]},  # any config knob, dotted or flat
    )
    report = session.sweep(plan)                   # -> SweepReport

Axis keys use either the flat spelling (``ms_size``) or the dotted
``section.name`` form; values pass through the config's own coercion
rules, so CLI strings and Python literals behave identically.  Every
expanded cell carries its labels (model, profile, axis assignments) for
:meth:`~repro.sweep.report.SweepReport.filter` and report diffing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError
from repro.session.config import SessionConfig, _SPECS_BY_FIELD, _SPECS_BY_KEY

#: Scenario kinds the sweep runner knows how to execute.
SCENARIO_KINDS = ("run", "tune", "compare")


def resolve_axis_key(key: str) -> str:
    """Normalize an axis key to its flat config spelling.

    Accepts the flat key (``ms_size``, ``cache_path``) or the dotted
    ``section.name`` form (``architecture.ms_size``).
    """
    if key in _SPECS_BY_KEY:
        return key
    section, _, name = key.partition(".")
    spec = _SPECS_BY_FIELD.get((section, name))
    if spec is not None:
        return spec.key
    raise ConfigError(
        f"unknown sweep axis {key!r}; use a flat config key "
        f"({', '.join(_SPECS_BY_KEY)}) or the dotted section.name form"
    )


@dataclass(frozen=True)
class Scenario:
    """One named cell of a sweep matrix: a resolved config + workload.

    Attributes:
        name: Unique label within the plan (``mlp/edge/ms_size=64``).
        config: The fully-resolved :class:`SessionConfig` for this cell.
        model: Zoo model name, or None when ``target`` carries a bare
            layer descriptor.
        kind: What to do with the workload — ``run`` (simulate every
            layer), ``tune`` (tune one layer's mapping) or ``compare``
            (the Figure 12 mapping-scheme comparison).
        layer: Layer name for ``tune`` scenarios on zoo models.
        profile: The config profile this cell was expanded from, if any.
        overrides: Axis assignments applied to this cell, as
            ``(flat_key, value)`` pairs in axis order.
        target: A bare layer descriptor standing in for (model, layer) —
            the adapter used by ``Session.tune(conv_layer)``.  Not part
            of equality or serialized labels.
    """

    name: str
    config: SessionConfig
    model: Optional[str] = None
    kind: str = "run"
    layer: Optional[str] = None
    profile: Optional[str] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()
    target: Optional[Any] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"scenario kind must be one of {SCENARIO_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.model is None and self.target is None:
            raise ConfigError(
                f"scenario {self.name!r} names neither a zoo model nor a "
                f"bare layer target"
            )
        if self.kind == "tune" and self.layer is None and self.target is None:
            raise ConfigError(
                f"tune scenario {self.name!r} must name a layer"
            )

    def labels(self) -> Dict[str, Any]:
        """The cell's coordinates in the matrix, for filtering/reports."""
        labels: Dict[str, Any] = {"model": self.model}
        if self.profile is not None:
            labels["profile"] = self.profile
        labels.update(self.overrides)
        return labels


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, validated set of scenarios to execute as one sweep."""

    scenarios: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("a SweepPlan needs at least one scenario")
        seen = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ConfigError(
                    f"duplicate scenario name {scenario.name!r} in sweep plan"
                )
            seen.add(scenario.name)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        config: SessionConfig,
        model: Optional[str] = None,
        kind: str = "run",
        layer: Optional[str] = None,
        target: Optional[Any] = None,
        name: Optional[str] = None,
    ) -> "SweepPlan":
        """A one-cell plan — how ``Session.run/tune/compare`` execute."""
        if name is None:
            name = model if model is not None else getattr(
                target, "name", "scenario"
            )
        return cls(
            scenarios=(
                Scenario(
                    name=name,
                    config=config,
                    model=model,
                    kind=kind,
                    layer=layer,
                    target=target,
                ),
            )
        )

    @classmethod
    def matrix(
        cls,
        base: SessionConfig,
        models: Sequence[str],
        profiles: Optional[Mapping[str, Mapping[str, Any]]] = None,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        kind: str = "run",
        layer: Optional[str] = None,
    ) -> "SweepPlan":
        """Expand models × profiles × axis values into scenarios.

        Args:
            base: The resolved base config every cell derives from.
            models: Zoo model names (validated eagerly).
            profiles: ``{name: nested section overlay}`` — the shape
                :func:`repro.session.load_profiles` returns.  Omitted
                or empty means one unnamed profile (the base itself).
            axes: ``{config key: [values]}``; keys may be flat or
                dotted ``section.name``, values are coerced by the
                config's own rules.  The cross-product of every axis is
                taken.
            kind: Scenario kind applied to every cell.
            layer: Layer name for ``tune`` matrices.

        Expansion order is models (outer) → profiles → axis
        combinations, so reports group naturally by model.
        """
        from repro.zoo import zoo_models

        models = list(models)
        if not models:
            raise ConfigError("a sweep matrix needs at least one model")
        known = zoo_models()
        for model in models:
            if model not in known:
                raise ReproError(
                    f"unknown model {model!r}; expected one of {known}"
                )
        profile_items = (
            list(profiles.items()) if profiles else [(None, None)]
        )
        axes = axes or {}
        axis_keys = [resolve_axis_key(key) for key in axes]
        if len(set(axis_keys)) != len(axis_keys):
            raise ConfigError(f"duplicate sweep axis in {list(axes)!r}")
        axis_values = [list(values) for values in axes.values()]
        for key, values in zip(axis_keys, axis_values):
            if not values:
                raise ConfigError(f"sweep axis {key!r} has no values")

        scenarios = []
        for model in models:
            for profile_name, overlay in profile_items:
                profiled = (
                    base.merged_with_dict(overlay) if overlay else base
                )
                for combo in itertools.product(*axis_values):
                    config = (
                        profiled.with_overrides(**dict(zip(axis_keys, combo)))
                        if combo
                        else profiled
                    )
                    # Labels carry the *coerced* value (what the config
                    # actually uses), so "64" from a CLI axis and 64
                    # from Python expand to the same scenario name.
                    flat = config.to_flat()
                    assignments = tuple((key, flat[key]) for key in axis_keys)
                    parts = [model]
                    if profile_name is not None:
                        parts.append(profile_name)
                    parts.extend(f"{key}={value}" for key, value in assignments)
                    scenarios.append(
                        Scenario(
                            name="/".join(parts),
                            config=config,
                            model=model,
                            kind=kind,
                            layer=layer,
                            profile=profile_name,
                            overrides=assignments,
                        )
                    )
        return cls(scenarios=tuple(scenarios))
