"""Tests for the mapping configurator: the four mapping sources of §IV."""

import pytest

from repro.bifrost import MappingConfigurator, MappingStrategy
from repro.errors import TuningError
from repro.session import Session, TuningConfig
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner import GridSearchTuner, MaeriConvTask, XGBTuner


@pytest.fixture
def conv():
    return ConvLayer("c", C=8, H=10, W=10, K=16, R=3, S=3)


@pytest.fixture
def fc():
    return FcLayer("f", in_features=256, out_features=128)


class TestDefaultStrategy:
    def test_returns_basic_mappings(self, maeri128, conv, fc):
        configurator = MappingConfigurator(config=maeri128)
        assert configurator.mapping_for(conv) == ConvMapping.basic()
        assert configurator.mapping_for(fc) == FcMapping.basic()

    def test_strategy_coerced_from_string(self, maeri128):
        configurator = MappingConfigurator(config=maeri128, strategy="mrna")
        assert configurator.strategy is MappingStrategy.MRNA

    def test_non_maeri_rejects_generation(self, conv):
        configurator = MappingConfigurator(config=sigma_config())
        with pytest.raises(TuningError, match="MAERI"):
            configurator.mapping_for(conv)


class TestManualOverrides:
    def test_manual_wins_over_strategy(self, maeri128, fc):
        configurator = MappingConfigurator(
            config=maeri128, strategy=MappingStrategy.MRNA
        )
        pinned = FcMapping(T_S=2, T_K=2)
        configurator.set_manual("f", pinned)
        assert configurator.mapping_for(fc) is pinned

    def test_manual_applies_even_on_sigma(self, fc):
        """Manual mappings bypass generation, so they resolve anywhere."""
        configurator = MappingConfigurator(config=sigma_config())
        configurator.set_manual("f", FcMapping(T_S=4))
        assert configurator.mapping_for(fc).T_S == 4


class TestTunedStrategy:
    def test_tuned_fc_mapping_structure(self, maeri128, fc):
        configurator = MappingConfigurator(
            config=maeri128,
            strategy=MappingStrategy.TUNED,
            tuning=TuningConfig(objective="psums", trials=120, early_stopping=60),
        )
        mapping = configurator.mapping_for(fc)
        mapping.validate_for(fc, maeri128.ms_size)
        assert mapping.T_K == 1  # the psum-optimum structure (Table VI)

    def test_tuned_result_cached(self, maeri128, fc):
        configurator = MappingConfigurator(
            config=maeri128,
            strategy=MappingStrategy.TUNED,
            tuning=TuningConfig(trials=60, early_stopping=30),
        )
        first = configurator.mapping_for(fc)
        second = configurator.mapping_for(fc)
        assert first is second  # no re-tuning

    def test_tuned_cycles_objective_beats_default(self, maeri128, fc):
        configurator = MappingConfigurator(
            config=maeri128,
            strategy=MappingStrategy.TUNED,
            tuning=TuningConfig(
                objective="cycles", trials=200, early_stopping=100
            ),
        )
        tuned = configurator.mapping_for(fc)
        controller = MaeriController(maeri128)
        assert (
            controller.run_fc(fc, tuned).cycles
            < controller.run_fc(fc, FcMapping.basic()).cycles
        )

    def test_session_honours_the_configured_tuner(self, conv):
        """``mapping="tuned"`` runs ``tuning.tuner``, not always XGB."""
        with Session(
            mapping="tuned", tuner="grid", trials=100, early_stopping=100
        ) as session:
            mapping = session.mappings.mapping_for(conv)
            config = session.simulator_config
        task = MaeriConvTask(conv, config)
        grid = GridSearchTuner(task).tune(n_trials=100, early_stopping=100)
        xgb = XGBTuner(MaeriConvTask(conv, config)).tune(
            n_trials=100, early_stopping=100
        )
        assert mapping == task.best_mapping(grid.best_config)
        assert mapping != task.best_mapping(xgb.best_config)


class TestMrnaStrategy:
    def test_mrna_mappings_cached_and_valid(self, maeri128, conv):
        configurator = MappingConfigurator(
            config=maeri128, strategy=MappingStrategy.MRNA
        )
        mapping = configurator.mapping_for(conv)
        mapping.validate_for(conv, maeri128.ms_size)
        assert configurator.mapping_for(conv) is mapping

    def test_one_mapper_serves_every_layer(
        self, maeri128, conv, fc, monkeypatch
    ):
        from repro.mrna import MrnaMapper

        built = []
        real_init = MrnaMapper.__init__

        def counting_init(mapper, *args, **kwargs):
            built.append(mapper)
            real_init(mapper, *args, **kwargs)

        monkeypatch.setattr(MrnaMapper, "__init__", counting_init)
        configurator = MappingConfigurator(
            config=maeri128, strategy=MappingStrategy.MRNA
        )
        wider = ConvLayer("wide", C=16, H=10, W=10, K=32, R=3, S=3)
        for layer in (conv, fc, wider):
            configurator.mapping_for(layer)
        assert len(built) == 1
