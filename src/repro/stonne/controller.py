"""The accelerator controller abstraction and its registry.

Every simulated architecture implements :class:`AcceleratorController` —
a uniform ``run_conv`` / ``run_fc`` / ``run_gemm`` /
``estimate_conv_psums`` / ``estimate_fc_psums`` / ``supports`` surface —
and registers itself under its :class:`~repro.stonne.config.ControllerType`
with :func:`register_controller`.  Dispatch sites (the evaluation
engine, the Bifrost API and runners, the tuner tasks) resolve a config to
its controller with a single :func:`make_controller` call instead of
duplicated ``if controller_type is ...`` chains, so adding an
architecture is one registration, not four edited call sites.

The registry is keyed by the controller type's *string value*, which lets
tests (and future extensions) register controllers for types that are not
members of the :class:`ControllerType` enum yet.
"""

from __future__ import annotations

import functools
from dataclasses import replace as _dataclass_replace
from typing import (
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

from repro.errors import ConfigError, UnsupportedLayerError
from repro.stonne.config import ControllerType
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.stats import SimulationStats

#: Registry keys accept the enum or its raw string value.
ControllerKey = Union[ControllerType, str]


def _key(controller_type: ControllerKey) -> str:
    return str(getattr(controller_type, "value", controller_type))


# ----------------------------------------------------------------------
# batch-N modelling
# ----------------------------------------------------------------------
#: Controller methods that receive a (layer, mapping) pair and are
#: transparently batch-expanded by :meth:`AcceleratorController.__init_subclass__`.
_BATCH_AWARE_METHODS = (
    "run_conv",
    "run_fc",
    "estimate_conv_psums",
    "estimate_fc_psums",
)


def _batch_count(layer) -> int:
    """How many sequential single-batch executions ``layer`` needs."""
    if isinstance(layer, ConvLayer):
        return layer.N
    if isinstance(layer, FcLayer):
        return layer.batch
    return 1


def _single_batch(layer):
    """The N=1 replica of a batched layer (name and shape preserved)."""
    if isinstance(layer, ConvLayer):
        return _dataclass_replace(layer, N=1)
    return _dataclass_replace(layer, batch=1)


def _batch_parallel_error(mapping, layer, count):
    """The error for a T_N > 1 mapping on a batch-N layer.

    Shared between the scalar batch-N wrapper and
    :func:`_lowered_gemm_batch` so the two can never disagree about the
    message.
    """
    from repro.errors import MappingError

    return MappingError(
        f"T_N={mapping.T_N} batch-parallel mappings are not "
        f"modelled; batch-N layers run as N sequential "
        f"simulations with T_N=1 (layer {layer.name!r}, N={count})"
    )


def _sequential_batches(method):
    """Wrap a (layer, mapping) controller method with batch-N expansion.

    The hardware executes one batch element at a time (STONNE's N==1),
    and every cycle model is deterministic, so a batch-N workload is
    exactly N identical sequential simulations: the wrapped method runs
    the N=1 replica once and the result is scaled — additive stats sum,
    occupancy takes the max (see :meth:`SimulationStats.repeated`).
    Psum *estimates* (plain ints) scale the same way, keeping the cheap
    tuning proxy consistent with the full model for batched layers.
    """
    if getattr(method, "_batch_expanded", False):  # pragma: no cover
        return method

    @functools.wraps(method)
    def wrapper(self, layer, mapping=None):
        count = _batch_count(layer)
        if count == 1:
            return method(self, layer, mapping)
        if mapping is not None and getattr(mapping, "T_N", 1) != 1:
            # Batch-parallel spatial schedules (T_N > 1) are not modelled
            # yet (see ROADMAP "Tiled batch schedules"); fail with the
            # real reason instead of "T_N exceeds batch=1" from the
            # single-batch replica's validation.
            raise _batch_parallel_error(mapping, layer, count)
        outcome = method(self, _single_batch(layer), mapping)
        if isinstance(outcome, SimulationStats):
            return outcome.repeated(count, layer_name=layer.name)
        return outcome * count

    wrapper._batch_expanded = True
    return wrapper


def _captured(method, layer, mapping):
    """One scalar batch-item call with its exception captured, not raised."""
    try:
        return method(layer, mapping)
    except Exception as exc:
        return exc


def _lowered_gemm_batch(controller, layer, mappings):
    """Batch kernel for mapping-free controllers (SIGMA, TPU, MAGMA).

    Those fabrics ignore the mapping entirely, so every item of a
    same-layer group is the *same* simulation: run the (lowered) GEMM
    once and hand every item the same (immutable) record, scaled by
    ``repeated`` for batch-N layers.  The only per-item divergence the
    scalar path has is the batch-parallel T_N rejection, reproduced here.
    """
    count = _batch_count(layer)
    base = layer if count == 1 else _single_batch(layer)
    gemm = base if isinstance(base, GemmLayer) else base.as_gemm()
    shared = None
    results: List[Union[SimulationStats, Exception]] = []
    for mapping in mappings:
        if count > 1 and mapping is not None and getattr(mapping, "T_N", 1) != 1:
            results.append(_batch_parallel_error(mapping, layer, count))
            continue
        if shared is None:
            try:
                shared = controller.run_gemm(gemm).repeated(count, layer.name)
            except Exception as exc:
                results.append(exc)
                continue
        results.append(shared)
    return results


class AcceleratorController:
    """Uniform surface over the architecture-specific cycle models.

    Subclasses implement the ``run_*`` methods for the workloads they
    support and advertise their capabilities through class attributes:

    Attributes:
        workloads: Workload kinds (``"conv"``/``"fc"``/``"gemm"``) the
            architecture executes; :meth:`supports` checks membership.
        requires_mapping: True when the architecture consumes a
            user/tuner-provided dataflow mapping (MAERI).  Rigid or
            self-orchestrating fabrics (SIGMA, MAGMA, TPU) ignore
            mappings — their controllers generate the dataflow.
        consumes_sparsity: True when the architecture exploits a
            configured weight-sparsity ratio (SIGMA, MAGMA).
    """

    workloads: ClassVar[FrozenSet[str]] = frozenset({"conv", "fc", "gemm"})
    requires_mapping: ClassVar[bool] = False
    consumes_sparsity: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        """Give every concrete controller batch-N semantics for free.

        Subclasses implement their cycle models for the single-batch
        case STONNE actually executes; any :data:`_BATCH_AWARE_METHODS`
        they define is wrapped so a batch-N layer runs as N sequential
        single-batch simulations with summed stats.  The models
        themselves never see ``N > 1``.
        """
        super().__init_subclass__(**kwargs)
        for name in _BATCH_AWARE_METHODS:
            if name in cls.__dict__:
                setattr(cls, name, _sequential_batches(cls.__dict__[name]))

    @classmethod
    def supports(cls, workload: str) -> bool:
        """True when this architecture can execute ``workload``."""
        return workload in cls.workloads

    # ------------------------------------------------------------------
    # workload execution; subclasses override what they support
    # ------------------------------------------------------------------
    def run_conv(
        self, layer: ConvLayer, mapping: Optional[ConvMapping] = None
    ) -> SimulationStats:
        raise UnsupportedLayerError(
            f"{type(self).__name__} does not execute conv2d workloads"
        )

    def run_fc(
        self, layer: FcLayer, mapping: Optional[FcMapping] = None
    ) -> SimulationStats:
        raise UnsupportedLayerError(
            f"{type(self).__name__} does not execute dense workloads"
        )

    def run_gemm(self, gemm: GemmLayer) -> SimulationStats:
        raise UnsupportedLayerError(
            "raw GEMM workloads require SIGMA, MAGMA or TPU; "
            "MAERI runs conv2d/dense"
        )

    # ------------------------------------------------------------------
    # batch kernels
    # ------------------------------------------------------------------
    # One call simulates a whole same-layer group of mappings.  The
    # contract, shared by these defaults and the overrides:
    #
    # * the returned list matches ``mappings`` in length and order;
    # * every element is either the scalar method's result for that item
    #   (a SimulationStats / psum int, batch-N ``repeated`` semantics
    #   included) or the exact exception instance the scalar call would
    #   have raised — one invalid mapping never poisons the batch.
    #
    # Each controller has one cycle model, so batching cannot change a
    # result.  MAERI writes its model once over tile columns and
    # evaluates it on Python ints for one mapping or on int64 numpy
    # columns for a batch (see repro.stonne.maeri); SIGMA, TPU and MAGMA
    # ignore mappings, so a batch runs the scalar model once and shares
    # the record (_lowered_gemm_batch).  The defaults loop the scalar
    # methods, so third-party controllers stay correct without opting in.

    def run_conv_batch(
        self, layer: ConvLayer, mappings: Sequence[Optional[ConvMapping]]
    ) -> List[Union[SimulationStats, Exception]]:
        """Simulate ``layer`` under every mapping; per-item error capture."""
        return [_captured(self.run_conv, layer, m) for m in mappings]

    def run_fc_batch(
        self, layer: FcLayer, mappings: Sequence[Optional[FcMapping]]
    ) -> List[Union[SimulationStats, Exception]]:
        """Simulate ``layer`` under every mapping; per-item error capture."""
        return [_captured(self.run_fc, layer, m) for m in mappings]

    def estimate_conv_psums_batch(
        self, layer: ConvLayer, mappings: Sequence[Optional[ConvMapping]]
    ) -> List[Union[int, Exception]]:
        """Psum estimates for every mapping; per-item error capture."""
        return [_captured(self.estimate_conv_psums, layer, m) for m in mappings]

    def estimate_fc_psums_batch(
        self, layer: FcLayer, mappings: Sequence[Optional[FcMapping]]
    ) -> List[Union[int, Exception]]:
        """Psum estimates for every mapping; per-item error capture."""
        return [_captured(self.estimate_fc_psums, layer, m) for m in mappings]

    # ------------------------------------------------------------------
    # psum estimation (the cheap tuning proxy of §VII-B)
    # ------------------------------------------------------------------
    def estimate_conv_psums(
        self, layer: ConvLayer, mapping: Optional[ConvMapping] = None
    ) -> int:
        """Psum count for a conv layer; the default runs the cycle model."""
        return self.run_conv(layer, mapping).psums

    def estimate_fc_psums(
        self, layer: FcLayer, mapping: Optional[FcMapping] = None
    ) -> int:
        """Psum count for a dense layer; the default runs the cycle model."""
        return self.run_fc(layer, mapping).psums


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[AcceleratorController]] = {}


def register_controller(
    controller_type: ControllerKey,
) -> Callable[[Type[AcceleratorController]], Type[AcceleratorController]]:
    """Class decorator registering a controller for ``controller_type``."""
    key = _key(controller_type)

    def decorator(cls: Type[AcceleratorController]) -> Type[AcceleratorController]:
        if not (isinstance(cls, type) and issubclass(cls, AcceleratorController)):
            raise ConfigError(
                f"controller for {key!r} must subclass AcceleratorController, "
                f"got {cls!r}"
            )
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"controller type {key!r} is already registered to "
                f"{existing.__name__}; unregister it first"
            )
        _REGISTRY[key] = cls
        return cls

    return decorator


def unregister_controller(controller_type: ControllerKey) -> None:
    """Remove a registration (tests and hot-swapping extensions)."""
    _REGISTRY.pop(_key(controller_type), None)


def _ensure_builtin_controllers() -> None:
    """Re-register the built-in controllers for any vacant type.

    Idempotent and lazy (avoids import cycles).  Registering directly —
    rather than relying on first-import side effects — means a built-in
    that was :func:`unregister_controller`'d (e.g. hot-swapped by a test)
    comes back on the next lookup instead of being lost for the process.
    ``setdefault`` never clobbers a live replacement registration.
    """
    from repro.stonne.maeri import MaeriController
    from repro.stonne.magma import MagmaController
    from repro.stonne.sigma import SigmaController
    from repro.stonne.tpu import TpuController

    builtins = {
        ControllerType.MAERI_DENSE_WORKLOAD: MaeriController,
        ControllerType.SIGMA_SPARSE_GEMM: SigmaController,
        ControllerType.MAGMA_SPARSE_DENSE: MagmaController,
        ControllerType.TPU_OS_DENSE: TpuController,
    }
    for controller_type, cls in builtins.items():
        _REGISTRY.setdefault(_key(controller_type), cls)


def controller_class(controller_type: ControllerKey) -> Type[AcceleratorController]:
    """The registered controller class for ``controller_type``."""
    key = _key(controller_type)
    if key not in _REGISTRY:
        _ensure_builtin_controllers()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigError(
            f"no controller registered for {key!r}; "
            f"known types: {sorted(_REGISTRY)}"
        ) from None


def make_controller(
    config, params: CycleModelParams = DEFAULT_PARAMS
) -> AcceleratorController:
    """Instantiate the controller for ``config.controller_type``."""
    return controller_class(config.controller_type)(config, params)


def registered_controller_types() -> List[str]:
    """Sorted registry keys (string values), built-ins included."""
    _ensure_builtin_controllers()
    return sorted(_REGISTRY)
