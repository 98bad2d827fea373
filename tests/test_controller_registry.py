"""Controller registry: parity with direct construction + extensibility."""

from types import SimpleNamespace

import pytest

from repro.engine import EvaluationEngine
from repro.errors import ConfigError, UnsupportedLayerError
from repro.stonne.config import (
    ControllerType,
    maeri_config,
    magma_config,
    sigma_config,
    tpu_config,
)
from repro.stonne.controller import (
    AcceleratorController,
    controller_class,
    make_controller,
    register_controller,
    registered_controller_types,
    unregister_controller,
)
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.magma import MagmaController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.sigma import SigmaController
from repro.stonne.stats import SimulationStats
from repro.stonne.tpu import TpuController

ALL_CONFIGS = [
    (maeri_config(), MaeriController),
    (sigma_config(sparsity_ratio=50), SigmaController),
    (magma_config(sparsity_ratio=50), MagmaController),
    (tpu_config(), TpuController),
]

CONV = ConvLayer("c", C=3, H=10, W=10, K=4, R=3, S=3, pad_h=1, pad_w=1)
FC = FcLayer("f", in_features=64, out_features=32)
GEMM = GemmLayer("g", M=16, K=64, N=8)


class TestRegistryResolution:
    @pytest.mark.parametrize("config,expected", ALL_CONFIGS)
    def test_resolves_to_expected_class(self, config, expected):
        assert controller_class(config.controller_type) is expected
        assert type(make_controller(config)) is expected

    def test_resolves_from_string_key(self):
        assert controller_class("MAERI_DENSE_WORKLOAD") is MaeriController

    def test_all_builtins_registered(self):
        assert set(registered_controller_types()) >= {
            ct.value for ct in ControllerType
        }

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigError, match="no controller registered"):
            controller_class("NOT_A_CONTROLLER")


class TestLegacyParity:
    """The registry path, and the evaluation engine that dispatches
    through it, must be bit-identical to direct construction."""

    @pytest.mark.parametrize("config,legacy_cls", ALL_CONFIGS)
    def test_conv_stats_identical(self, config, legacy_cls):
        mapping = ConvMapping(T_R=3, T_S=3, T_C=3)
        kwargs = {"mapping": mapping} if legacy_cls is MaeriController else {}
        legacy = legacy_cls(config).run_conv(CONV, **kwargs)
        via_registry = make_controller(config).run_conv(
            CONV, mapping if legacy_cls is MaeriController else None
        )
        via_engine = EvaluationEngine(config).evaluate(
            CONV, mapping if legacy_cls is MaeriController else None
        )
        assert legacy == via_registry == via_engine

    @pytest.mark.parametrize("config,legacy_cls", ALL_CONFIGS)
    def test_fc_stats_identical(self, config, legacy_cls):
        mapping = FcMapping(T_S=4, T_K=8)
        kwargs = {"mapping": mapping} if legacy_cls is MaeriController else {}
        legacy = legacy_cls(config).run_fc(FC, **kwargs)
        via_registry = make_controller(config).run_fc(
            FC, mapping if legacy_cls is MaeriController else None
        )
        via_engine = EvaluationEngine(config).evaluate(
            FC, mapping if legacy_cls is MaeriController else None
        )
        assert legacy == via_registry == via_engine

    @pytest.mark.parametrize("config,legacy_cls", ALL_CONFIGS)
    def test_gemm_stats_identical_or_unsupported(self, config, legacy_cls):
        controller = make_controller(config)
        if not controller.supports("gemm"):
            with pytest.raises(UnsupportedLayerError):
                controller.run_gemm(GEMM)
            with pytest.raises(UnsupportedLayerError):
                EvaluationEngine(config).evaluate(GEMM)
            return
        legacy = legacy_cls(config).run_gemm(GEMM)
        assert legacy == make_controller(config).run_gemm(GEMM)
        assert legacy == EvaluationEngine(config).evaluate(GEMM)


class TestCapabilities:
    def test_maeri_capabilities(self):
        assert MaeriController.requires_mapping
        assert not MaeriController.consumes_sparsity
        assert MaeriController.supports("conv")
        assert MaeriController.supports("fc")
        assert not MaeriController.supports("gemm")

    def test_sparse_controllers_consume_sparsity(self):
        assert SigmaController.consumes_sparsity
        assert MagmaController.consumes_sparsity
        assert not TpuController.consumes_sparsity

    def test_rigid_controllers_need_no_mapping(self):
        for cls in (SigmaController, MagmaController, TpuController):
            assert not cls.requires_mapping
            assert cls.supports("gemm")


class MockController(AcceleratorController):
    """A fifth architecture: fixed one-cycle-per-MAC accounting."""

    workloads = frozenset({"conv"})

    def __init__(self, config, params=None):
        self.config = config

    def run_conv(self, layer, mapping=None):
        return SimulationStats(
            layer_name=layer.name,
            controller="MOCK",
            cycles=layer.macs,
            psums=0,
            macs=layer.macs,
            iterations=1,
            multipliers_used=1,
            array_size=1,
        )


class TestFifthController:
    """Adding an architecture is ONE register() call, no edited chains."""

    @pytest.fixture
    def mock_registered(self):
        register_controller("MOCK")(MockController)
        yield
        unregister_controller("MOCK")

    def test_single_registration_suffices(self, mock_registered):
        config = SimpleNamespace(controller_type="MOCK")
        stats = make_controller(config).run_conv(CONV)
        assert stats.controller == "MOCK"
        assert stats.cycles == CONV.macs

    def test_duplicate_registration_rejected(self, mock_registered):
        with pytest.raises(ConfigError, match="already registered"):
            register_controller("MOCK")(MaeriController)

    def test_non_controller_class_rejected(self):
        class NotAController:
            def run_conv(self, layer, mapping=None):
                return None

        with pytest.raises(ConfigError, match="must subclass AcceleratorController"):
            register_controller("NOT_A_SUBCLASS")(NotAController)
        with pytest.raises(ConfigError, match="no controller registered"):
            controller_class("NOT_A_SUBCLASS")

    def test_unregister_removes(self):
        register_controller("MOCK")(MockController)
        unregister_controller("MOCK")
        with pytest.raises(ConfigError, match="no controller registered"):
            controller_class("MOCK")
