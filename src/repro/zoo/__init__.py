"""repro.zoo — the workload zoo registry.

One registry replaces the ad-hoc per-model lookup (`if model ==
"alexnet": ...`) as the path from a model *name* to its layer
descriptors.  Everything that resolves a model — ``Session.run`` /
``tune`` / ``sweep``, the sweep plan matrix, the CLI's model choices,
the fuzz harness — goes through :func:`zoo_layers` / :func:`zoo_models`
here, so registering a new workload (built-in or user-defined) makes it
runnable by name everywhere at once.

The classic paper models (AlexNet, LeNet, VGG-small, MLP) register by
name on the first lookup; their factories import :mod:`repro.models`
(the IR and numpy) only when the layers are first asked for.  The modern
workloads the paper's matrix lacks (transformer encoder block,
depthwise/grouped conv, dilated and NHWC-layout variants) register from
:mod:`repro.zoo.modern`.

Register your own::

    from repro.zoo import register_model

    @register_model("my_net", description="3-layer toy CNN")
    def my_net():
        return [ConvLayer("c1", C=3, H=32, W=32, K=8, R=3, S=3), ...]

A factory must return a non-empty list of layer descriptors
(``ConvLayer`` / ``FcLayer`` / ``GemmLayer``).  It runs once per
registration, on the first :func:`zoo_layers` lookup; every lookup
returns a fresh list of those (immutable) descriptors.  Re-registering
with ``replace=True`` runs the new factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class ZooEntry:
    """One registered workload: a name, a layer factory, and metadata."""

    name: str
    factory: Callable[[], List]
    description: str = ""
    tags: Tuple[str, ...] = ()

    @cached_property
    def _layers(self) -> Tuple:
        layers = tuple(self.factory())
        if not layers:
            raise ReproError(
                f"zoo model {self.name!r} produced no layers"
            )
        return layers

    def layers(self) -> List:
        return list(self._layers)


_REGISTRY: Dict[str, ZooEntry] = {}


def register_model(
    name: str,
    factory: Optional[Callable[[], List]] = None,
    *,
    description: str = "",
    tags: Sequence[str] = (),
    replace: bool = False,
):
    """Register a layer factory under ``name``.

    Usable directly (``register_model("x", fn)``) or as a decorator
    (``@register_model("x")``).  Re-registering an existing name raises
    unless ``replace=True`` (the fuzz harness re-registers its generated
    models idempotently).
    """

    def _register(fn: Callable[[], List]) -> Callable[[], List]:
        if not name or not isinstance(name, str):
            raise ReproError(f"zoo model name must be a non-empty string, got {name!r}")
        existing = _REGISTRY.get(name)
        if existing is not None and not replace:
            raise ReproError(
                f"zoo model {name!r} is already registered; "
                f"pass replace=True to override"
            )
        _REGISTRY[name] = ZooEntry(
            name=name,
            factory=fn,
            description=description,
            tags=tuple(tags),
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_model(name: str) -> None:
    """Remove a registration (tests, fuzz-generated models)."""
    _REGISTRY.pop(name, None)


def zoo_entry(name: str) -> ZooEntry:
    """The :class:`ZooEntry` registered under ``name``."""
    _ensure_builtin_models()
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ReproError(
            f"unknown model {name!r}; expected one of {zoo_models()}"
        )
    return entry


def zoo_layers(model: str) -> List:
    """Layer descriptors of a registered zoo model."""
    return zoo_entry(model).layers()


def zoo_models(tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered model names (classic models first, then the rest in
    registration order); optionally filtered by tag."""
    _ensure_builtin_models()
    names = [
        name
        for name, entry in _REGISTRY.items()
        if tag is None or tag in entry.tags
    ]
    return tuple(names)


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
_BUILTINS_LOADED = False


def _classic_layers(name: str) -> Callable[[], List]:
    """The factory of ``repro.models.<name>_builder()``'s descriptors.

    The builders pull in the IR and numpy, so the module is imported
    when the layers are first asked for, not when the name registers:
    listing the zoo (the CLI parser's model choices) loads neither.
    """

    def factory() -> List:
        from repro import models

        builder = getattr(models, f"{name}_builder")
        return models.graph_layers(builder().graph)

    return factory


def _ensure_builtin_models() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True

    for name, description, tags in (
        ("alexnet", "AlexNet conv+fc stack (paper Table II)", ("classic", "cnn")),
        ("lenet", "LeNet-5 conv+fc stack", ("classic", "cnn")),
        ("vgg_small", "Reduced VGG conv+fc stack", ("classic", "cnn")),
        ("mlp", "3-layer MLP (dense only)", ("classic", "mlp")),
    ):
        register_model(
            name, _classic_layers(name), description=description, tags=tags
        )

    # Modern workloads (transformer block, depthwise/grouped/dilated/NHWC
    # conv) — registration happens inside the module import.
    import repro.zoo.modern  # noqa: F401  (import = register)


__all__ = [
    "ZooEntry",
    "register_model",
    "unregister_model",
    "zoo_entry",
    "zoo_layers",
    "zoo_models",
]
