"""repro.fuzz — property fuzzing: the sweep tier as a correctness oracle.

PRs 6–9 accumulated "bit-identical to ``--executor serial``" guarantees
(batch kernels, the work-stealing scheduler, the process pool, the
fleet) that were only ever exercised on the same four classic models.
This module generates adversarial workloads and *checks the guarantee*:

1. :func:`generate_plan` — a seeded random scenario generator.  Random
   layer shapes bounded by paper-scale envelopes (conv with
   stride/padding/dilation/groups/layout, dense, raw GEMM), random
   accelerator configs drawn from the config schema (all four
   architectures, power-of-two network sizes, sparsity ratios), and
   random mapping spaces (default vs mRNA) — emitted as an ordinary
   :class:`~repro.sweep.SweepPlan` whose models are registered in the
   zoo, so nothing downstream knows it is fuzz.
2. :func:`cross_check` — executes the same plan once per executor
   backend (serial/thread/process, remote when workers are configured)
   in fresh sessions (separate caches, so a shared cache can never mask
   a divergence) and compares per-scenario digests of the full
   simulation stats.
3. :func:`shrink` — on divergence, greedily removes layers while the
   divergence persists, producing a minimal reproducing scenario.
4. :func:`write_repro` / :func:`load_repro` — the minimal scenario as a
   ready-to-run TOML file (`repro sweep --fuzz-repro FILE`).

Everything is deterministic in the seed: same seed, same plan, same
digests — which is itself a property `scripts/fuzz_smoke.py` checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, LayerError, ReproError
from repro.session.config import ARCHITECTURES, SessionConfig
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.sweep.plan import Scenario, SweepPlan
from repro.zoo import register_model, zoo_layers

#: Executor backends a cross-check covers by default (remote is added
#: when the base config names fleet workers).
DEFAULT_EXECUTORS = ("serial", "thread", "process")

#: Curated zoo models the first scenarios of every fuzz batch cover, so
#: modern workloads (transformer, depthwise, dilated, grouped, NHWC) are
#: always part of the oracle's diet before random shapes take over.
SEED_MODELS = (
    "transformer",
    "depthwise_sep",
    "dilated_conv",
    "grouped_conv",
    "nhwc_conv",
)

#: Paper-scale envelopes (Table III) for random accelerator configs.
_MS_SIZES = (16, 32, 64, 128, 256)
_DN_BWS = (8, 16, 32, 64, 128)
_RN_BWS = (4, 8, 16, 32, 64)
_TPU_DIMS = (4, 8, 16)
_SPARSITY_RATIOS = (0.0, 0.25, 0.5, 0.9)
_MAPPINGS = ("default", "mrna")


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _random_conv(rng: random.Random, name: str) -> ConvLayer:
    """One random conv layer inside the paper-scale envelope; rejection
    sampling keeps the (dilated) filter within the padded input."""
    for _ in range(64):
        groups = rng.choice((1, 1, 1, 2, 4))
        c_per_g = rng.randint(1, 8)
        k_per_g = rng.randint(1, 8)
        try:
            return ConvLayer(
                name=name,
                C=groups * c_per_g,
                H=rng.randint(4, 20),
                W=rng.randint(4, 20),
                K=groups * k_per_g,
                R=rng.randint(1, 3),
                S=rng.randint(1, 3),
                stride_h=rng.randint(1, 2),
                stride_w=rng.randint(1, 2),
                pad_h=rng.randint(0, 2),
                pad_w=rng.randint(0, 2),
                G=groups,
                dil_h=rng.randint(1, 2),
                dil_w=rng.randint(1, 2),
                layout=rng.choice(("NCHW", "NCHW", "NHWC")),
            )
        except LayerError:
            continue
    # The envelope makes rejection vanishingly rare; fall back to a
    # known-good shape rather than looping forever.
    return ConvLayer(name=name, C=4, H=8, W=8, K=4, R=3, S=3, pad_h=1, pad_w=1)


def _random_fc(rng: random.Random, name: str) -> FcLayer:
    return FcLayer(
        name=name,
        in_features=rng.randint(1, 128),
        out_features=rng.randint(1, 128),
        batch=rng.randint(1, 4),
    )


def _random_gemm(rng: random.Random, name: str) -> GemmLayer:
    return GemmLayer(
        name=name,
        M=rng.randint(1, 64),
        K=rng.randint(1, 64),
        N=rng.randint(1, 64),
    )


def _random_layers(rng: random.Random, arch: str, tag: str) -> List[Any]:
    """1–3 random layers; raw GEMMs only on architectures that run them
    (MAERI refuses bare GemmLayer workloads)."""
    kinds = ["conv", "fc"] + ([] if arch == "maeri" else ["gemm"])
    layers: List[Any] = []
    for index in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        name = f"{tag}.l{index}.{kind}"
        if kind == "conv":
            layers.append(_random_conv(rng, name))
        elif kind == "fc":
            layers.append(_random_fc(rng, name))
        else:
            layers.append(_random_gemm(rng, name))
    return layers


def _random_arch_overrides(rng: random.Random, arch: str) -> Dict[str, Any]:
    """A random accelerator config drawn from the config schema."""
    overrides: Dict[str, Any] = {"arch": arch}
    if arch == "tpu":
        overrides["ms_rows"] = rng.choice(_TPU_DIMS)
        overrides["ms_cols"] = rng.choice(_TPU_DIMS)
    else:
        overrides["ms_size"] = rng.choice(_MS_SIZES)
        overrides["dn_bw"] = rng.choice(_DN_BWS)
        overrides["rn_bw"] = rng.choice(_RN_BWS)
    if arch in ("sigma", "magma"):
        overrides["sparsity_ratio"] = rng.choice(_SPARSITY_RATIOS)
    overrides["mapping"] = rng.choice(_MAPPINGS)
    return overrides


def fuzz_model_name(seed: int, index: int) -> str:
    return f"fuzz/s{seed}/{index:03d}"


def generate_plan(
    count: int,
    seed: int,
    base: Optional[SessionConfig] = None,
) -> SweepPlan:
    """A deterministic fuzz plan of ``count`` scenarios.

    The first scenarios cover the curated modern zoo models
    (:data:`SEED_MODELS`); the rest draw random layer stacks, which are
    registered in the zoo under ``fuzz/s<seed>/<i>`` names
    (``replace=True`` — regenerating the same seed is idempotent).
    Architectures rotate round-robin so every controller is exercised
    whenever ``count >= 4``; every other accelerator knob is drawn from
    the config schema per scenario.
    """
    if count < 1:
        raise ConfigError(f"--fuzz needs a positive scenario count, got {count}")
    base = base if base is not None else SessionConfig()
    rng = random.Random(seed)
    scenarios = []
    for index in range(count):
        arch = ARCHITECTURES[index % len(ARCHITECTURES)]
        overrides = _random_arch_overrides(rng, arch)
        if index < len(SEED_MODELS):
            model = SEED_MODELS[index]
        else:
            model = fuzz_model_name(seed, index)
            layers = _random_layers(rng, arch, f"s{seed}.{index:03d}")
            register_model(
                model,
                (lambda captured: (lambda: list(captured)))(layers),
                description=f"fuzz-generated model (seed {seed})",
                tags=("fuzz",),
                replace=True,
            )
        config = base.with_overrides(**overrides)
        flat = config.to_flat()
        assignments = tuple((key, flat[key]) for key in sorted(overrides))
        scenarios.append(
            Scenario(
                name=f"fuzz/{index:03d}/{arch}/{model.rsplit('/', 1)[-1]}",
                config=config,
                model=model,
                kind="run",
                overrides=assignments,
            )
        )
    return SweepPlan(scenarios=tuple(scenarios))


# ----------------------------------------------------------------------
# cross-checking
# ----------------------------------------------------------------------
#: Optional fault hook: ``inject(executor, scenario_name, stats_dicts)``
#: returns the (possibly mutated) stats dicts digested for that cell.
#: Tests and the smoke script use it to plant a divergence and watch the
#: oracle catch and shrink it.
InjectHook = Callable[[str, str, List[Dict[str, Any]]], List[Dict[str, Any]]]


def scenario_digest(stats_dicts: Sequence[Mapping[str, Any]]) -> str:
    """The canonical digest of one scenario's full simulation stats."""
    canonical = json.dumps(
        list(stats_dicts), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class CrossCheckResult:
    """Per-scenario digests across executors, plus the verdict."""

    executors: Tuple[str, ...]
    #: scenario name -> {executor: digest}
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: executor -> scheduler chunks its sweep pulled
    chunks_pulled: Dict[str, int] = field(default_factory=dict)

    @property
    def divergent(self) -> List[str]:
        """Scenario names whose digests differ across executors."""
        return [
            name
            for name, per_exec in self.digests.items()
            if len(set(per_exec.values())) > 1
        ]

    @property
    def ok(self) -> bool:
        return not self.divergent

    def plan_digest(self) -> str:
        """One digest over every (scenario, executor) digest — the value
        two invocations of the same seed must reproduce exactly."""
        canonical = json.dumps(self.digests, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def cross_check(
    plan: SweepPlan,
    base: Optional[SessionConfig] = None,
    executors: Optional[Sequence[str]] = None,
    inject: Optional[InjectHook] = None,
) -> CrossCheckResult:
    """Run ``plan`` once per executor backend and compare stats digests.

    Each executor gets a *fresh* session (own in-memory cache): shared
    caches would let the first backend's results answer the second
    backend's lookups and mask exactly the divergence this oracle
    exists to catch.  Digests cover the full
    :meth:`~repro.stonne.stats.SimulationStats.to_dict` of every layer,
    so a single off-by-one in any counter of any layer flags the cell.

    Thread and process run with a chunk size (the base config's, else
    1): under automatic chunking a host-local pool runs every group
    inline, which would compare the serial path with itself.  Remote
    keeps its automatic chunking, as its users get it.
    """
    from repro.engine.backends import backend_class
    from repro.session import Session

    base = base if base is not None else SessionConfig()
    if executors is None:
        executors = list(DEFAULT_EXECUTORS)
        if base.fleet.workers:
            executors.append("remote")
    result = CrossCheckResult(executors=tuple(executors))
    for executor in executors:
        overrides: Dict[str, Any] = {"executor": executor}
        if backend_class(executor).slots_share_host:
            overrides["chunk_size"] = base.engine.chunk_size or 1
        config = base.with_overrides(**overrides)
        with Session(config) as session:
            report = session.sweep(plan)
        result.chunks_pulled[executor] = (
            report.counters["scheduler"]["chunks_pulled"]
        )
        for scenario_result in report.scenarios:
            stats_dicts = [
                stats.to_dict() for stats in scenario_result.report.layer_stats
            ]
            if inject is not None:
                stats_dicts = inject(executor, scenario_result.name, stats_dicts)
            result.digests.setdefault(scenario_result.name, {})[executor] = (
                scenario_digest(stats_dicts)
            )
    return result


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
#: Zoo name the shrinker (and loaded repro files) register under.
SHRINK_MODEL = "fuzz/shrink"


def _layers_diverge(
    layers: Sequence[Any],
    config: SessionConfig,
    executors: Sequence[str],
    inject: Optional[InjectHook],
) -> bool:
    register_model(
        SHRINK_MODEL,
        (lambda captured: (lambda: list(captured)))(list(layers)),
        description="fuzz shrink candidate",
        tags=("fuzz",),
        replace=True,
    )
    plan = SweepPlan.single(config, model=SHRINK_MODEL, name=SHRINK_MODEL)
    return not cross_check(
        plan, base=config, executors=executors, inject=inject
    ).ok


def shrink(
    scenario: Scenario,
    executors: Sequence[str],
    inject: Optional[InjectHook] = None,
) -> List[Any]:
    """The minimal layer subset of a divergent scenario that still
    diverges (greedy one-at-a-time removal, iterated to fixpoint).

    Returns the scenario's full layer list unchanged when the divergence
    does not reproduce in isolation (a flaky or cross-scenario effect —
    still worth a repro file, just not a smaller one).
    """
    layers = list(zoo_layers(scenario.model))
    if not _layers_diverge(layers, scenario.config, executors, inject):
        return layers
    changed = True
    while changed and len(layers) > 1:
        changed = False
        for index in range(len(layers)):
            candidate = layers[:index] + layers[index + 1 :]
            if _layers_diverge(candidate, scenario.config, executors, inject):
                layers = candidate
                changed = True
                break
    return layers


# ----------------------------------------------------------------------
# repro files
# ----------------------------------------------------------------------
_LAYER_KINDS = {
    "ConvLayer": ConvLayer,
    "FcLayer": FcLayer,
    "GemmLayer": GemmLayer,
}


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    return json.dumps(str(value))


def write_repro(
    path: str,
    config: SessionConfig,
    layers: Sequence[Any],
    seed: Optional[int] = None,
    note: Optional[str] = None,
) -> None:
    """Write a ready-to-run TOML repro file: the scenario's resolved
    config sections plus a ``[fuzz]`` section carrying the minimal
    layer stack.  Re-run it with ``repro sweep --fuzz-repro FILE``."""
    lines = [
        "# repro.fuzz divergence repro file",
        "# re-run: repro sweep --fuzz-repro " + path,
        "",
        config.to_toml().rstrip(),
        "",
        "[fuzz]",
    ]
    if seed is not None:
        lines.append(f"seed = {seed}")
    if note is not None:
        lines.append(f"note = {json.dumps(note)}")
    for layer in layers:
        lines.append("")
        lines.append("[[fuzz.layer]]")
        lines.append(f'kind = "{type(layer).__name__}"')
        for key, value in asdict(layer).items():
            lines.append(f"{key} = {_toml_scalar(value)}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_repro(path: str) -> Tuple[SweepPlan, SessionConfig]:
    """Load a repro file back into a single-scenario plan.

    The ``[fuzz]`` section is split off before the remaining sections go
    through :meth:`SessionConfig.from_dict` (which rejects unknown
    sections by design); the layer stack registers in the zoo under
    :data:`SHRINK_MODEL`.
    """
    import tomllib

    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"cannot load fuzz repro file {path!r}: {exc}") from None
    fuzz_section = data.pop("fuzz", None)
    if not isinstance(fuzz_section, dict) or not fuzz_section.get("layer"):
        raise ConfigError(
            f"fuzz repro file {path!r} has no [[fuzz.layer]] tables"
        )
    config = SessionConfig.from_dict(data)
    layers = []
    for table in fuzz_section["layer"]:
        table = dict(table)
        kind = table.pop("kind", None)
        cls = _LAYER_KINDS.get(kind)
        if cls is None:
            raise ConfigError(
                f"fuzz repro file {path!r}: unknown layer kind {kind!r}; "
                f"expected one of {sorted(_LAYER_KINDS)}"
            )
        try:
            layers.append(cls(**table))
        except (TypeError, LayerError) as exc:
            raise ConfigError(
                f"fuzz repro file {path!r}: bad {kind} table: {exc}"
            ) from None
    register_model(
        SHRINK_MODEL,
        (lambda captured: (lambda: list(captured)))(layers),
        description=f"fuzz repro loaded from {path}",
        tags=("fuzz",),
        replace=True,
    )
    plan = SweepPlan.single(config, model=SHRINK_MODEL, name=SHRINK_MODEL)
    return plan, config


__all__ = [
    "CrossCheckResult",
    "DEFAULT_EXECUTORS",
    "SEED_MODELS",
    "SHRINK_MODEL",
    "cross_check",
    "fuzz_model_name",
    "generate_plan",
    "load_repro",
    "scenario_digest",
    "shrink",
    "write_repro",
]
