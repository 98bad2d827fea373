"""Tests for the tuners: grid, random, GA, GBT-surrogate; records."""

import pytest

from repro.errors import TuningError
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.tuner import (
    CallableTask,
    ConfigSpace,
    GATuner,
    GridSearchTuner,
    INVALID_COST,
    MaeriConvTask,
    MaeriFcTask,
    RandomTuner,
    TuningRecords,
    XGBTuner,
)


def quadratic_space():
    """A 2-D space with known optimum at (a=7, b=5)."""
    space = ConfigSpace()
    space.define_knob("a", list(range(16)))
    space.define_knob("b", list(range(16)))

    def cost(config):
        return (config["a"] - 7) ** 2 + (config["b"] - 5) ** 2

    return CallableTask(space, cost)


class TestGridSearch:
    def test_finds_global_optimum(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=256)
        assert result.best_cost == 0
        assert result.best_config == {"a": 7, "b": 5}
        assert result.num_trials == 256

    def test_respects_constraints(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2, 3, 4])
        space.add_constraint(lambda c: c["a"] != 2)
        task = CallableTask(space, lambda c: c["a"])
        result = GridSearchTuner(task).tune(n_trials=10)
        visited = {t.config["a"] for t in result.records.trials}
        assert 2 not in visited
        assert result.best_config == {"a": 1}

    def test_stops_when_space_exhausted(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=10_000)
        assert result.num_trials == 256


class TestRandomTuner:
    def test_never_repeats_configs(self):
        task = quadratic_space()
        result = RandomTuner(task, seed=3).tune(n_trials=200)
        indices = [t.index for t in result.records.trials]
        assert len(indices) == len(set(indices))

    def test_deterministic_given_seed(self):
        costs1 = RandomTuner(quadratic_space(), seed=5).tune(50).best_cost
        costs2 = RandomTuner(quadratic_space(), seed=5).tune(50).best_cost
        assert costs1 == costs2

    def test_covers_space_eventually(self):
        result = RandomTuner(quadratic_space(), seed=1).tune(n_trials=256)
        assert result.best_cost == 0


class TestGATuner:
    def test_converges_near_optimum(self):
        result = GATuner(quadratic_space(), seed=2).tune(n_trials=150)
        assert result.best_cost <= 2

    def test_survives_invalid_regions(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(32)))
        space.add_constraint(lambda c: c["a"] % 3 == 0)
        task = CallableTask(space, lambda c: abs(c["a"] - 12))
        result = GATuner(task, seed=0).tune(n_trials=40)
        assert result.best_config is not None
        assert result.best_config["a"] % 3 == 0


class TestXGBTuner:
    def test_beats_random_sample_efficiency(self):
        """With the same tiny budget the surrogate should do no worse."""
        budget = 60
        xgb_cost = XGBTuner(quadratic_space(), seed=4, warmup=20).tune(budget).best_cost
        random_cost = RandomTuner(quadratic_space(), seed=4).tune(budget).best_cost
        assert xgb_cost <= random_cost + 4  # allow slack, must be competitive

    def test_invalid_costs_not_trained_on(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(8)))
        space.add_constraint(lambda c: c["a"] < 6)
        task = CallableTask(space, lambda c: c["a"])
        result = XGBTuner(task, seed=0, warmup=4).tune(n_trials=8)
        assert result.best_config == {"a": 0}


class TestEarlyStopping:
    def test_stops_after_patience(self):
        task = quadratic_space()
        result = GridSearchTuner(task).tune(n_trials=256, early_stopping=12)
        assert result.stopped_early
        assert result.num_trials < 256

    def test_bad_trial_count_rejected(self):
        with pytest.raises(TuningError):
            GridSearchTuner(quadratic_space()).tune(n_trials=0)

    def test_invalid_draws_before_first_valid_do_not_stop(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(64)))
        task = CallableTask(
            space, lambda c: c["a"] if c["a"] >= 40 else INVALID_COST
        )
        result = GridSearchTuner(task).tune(n_trials=64, early_stopping=10)
        assert result.best_config == {"a": 40}
        assert result.stopped_early
        assert result.num_trials == 51

    def test_alexnet_conv2_seed1_finds_a_mapping(self):
        # The default tune draws more than early_stopping=120 invalid
        # mappings before its first valid one.
        from repro.session import Session

        with Session() as session:
            report = session.tune("alexnet", "conv2", seed=1)
        assert report.num_trials > 120


class TestExhaustiveWhenSpaceFitsBudget:
    """A space no larger than the trial budget is enumerated, not searched."""

    @pytest.mark.parametrize("tuner_class", [RandomTuner, GATuner, XGBTuner])
    @pytest.mark.parametrize("early_stopping", [None, 12])
    def test_every_tuner_returns_the_grid_result(
        self, tuner_class, early_stopping
    ):
        grid = GridSearchTuner(quadratic_space()).tune(
            n_trials=256, early_stopping=early_stopping
        )
        result = tuner_class(quadratic_space(), seed=3).tune(
            n_trials=256, early_stopping=early_stopping
        )
        assert [(t.index, t.cost) for t in result.records.trials] == [
            (t.index, t.cost) for t in grid.records.trials
        ]
        assert result.best_config == grid.best_config
        assert result.best_cost == grid.best_cost
        assert result.stopped_early == grid.stopped_early
        assert result == grid

    def test_alexnet_fc_tunes_fit_no_model_and_sample_nothing(
        self, monkeypatch
    ):
        from repro.session import Session
        from repro.tuner.gbt import GradientBoostedTrees
        from repro.zoo import zoo_layers

        def forbidden(*args, **kwargs):
            raise AssertionError("an exhaustive tune must not search")

        monkeypatch.setattr(GradientBoostedTrees, "fit", forbidden)
        monkeypatch.setattr(XGBTuner, "_random_unseen", forbidden)
        layers = {l.name: l for l in zoo_layers("alexnet")}
        with Session() as session:
            controller = session.engine.controller
            for name in ("fc1", "fc2", "fc3"):
                report = session.tune("alexnet", name)
                task = MaeriFcTask(layers[name], session.simulator_config)
                space = task.space
                optimum = min(
                    controller.estimate_fc_psums(
                        layers[name], task.best_mapping(space.config_at(i))
                    )
                    for i in range(space.raw_size)
                    if space.is_valid(space.config_at(i))
                )
                assert report.best_mapping == (128, 1, 1)
                assert report.best_cost == optimum
                assert report.num_trials == 36 == space.valid_size()

    #: ``Session.tune("alexnet", layer, seed=s)`` with the default config,
    #: as measured before exhaustive search existed: (best_mapping,
    #: best_cost, num_trials) for seeds 0-4.  Conv spaces are far larger
    #: than the 400-trial budget, so their tunes must not move.
    CONV_PINS = {
        "conv1": [((2, 8, 2, 2, 1, 1, 1, 1), 6969600.0, 144), ((4, 1, 3, 4, 1, 1, 1, 2), 7201920.0, 184), ((1, 8, 3, 1, 1, 1, 1, 5), 5111040.0, 129), ((8, 4, 3, 1, 1, 1, 1, 1), 2323200.0, 162), ((1, 8, 3, 1, 1, 1, 1, 4), 5343360.0, 180)],  # noqa: E501
        "conv2": [((2, 5, 2, 1, 1, 1, 1, 4), 16920576.0, 191), ((2, 4, 2, 1, 1, 1, 1, 8), 30855168.0, 399), ((5, 5, 1, 4, 1, 1, 1, 1), 11197440.0, 327), ((2, 5, 2, 1, 1, 1, 1, 2), 20404224.0, 319), ((1, 1, 32, 1, 1, 1, 1, 4), 8812800.0, 234)],  # noqa: E501
        "conv3": [((1, 2, 8, 3, 1, 1, 1, 1), 12460032.0, 163), ((1, 1, 3, 3, 1, 1, 1, 13), 38338560.0, 207), ((1, 3, 12, 1, 1, 1, 1, 2), 4792320.0, 182), ((1, 3, 8, 1, 1, 1, 1, 1), 9345024.0, 162), ((3, 3, 1, 6, 1, 1, 2, 1), 13578240.0, 283)],  # noqa: E501
        "conv4": [((2, 1, 64, 1, 1, 1, 1, 1), 3115008.0, 144), ((2, 2, 8, 1, 1, 1, 4, 1), 10862592.0, 232), ((3, 1, 16, 1, 1, 1, 1, 2), 4792320.0, 182), ((1, 2, 8, 1, 1, 1, 1, 1), 24920064.0, 162), ((3, 3, 3, 1, 1, 1, 1, 2), 8519680.0, 179)],  # noqa: E501
        "conv5": [((2, 2, 32, 1, 1, 1, 1, 1), 2768896.0, 144), ((1, 2, 32, 2, 1, 1, 1, 1), 3115008.0, 244), ((2, 3, 8, 1, 1, 1, 1, 2), 4259840.0, 182), ((1, 2, 4, 2, 1, 1, 4, 1), 19169280.0, 122), ((3, 3, 8, 1, 1, 1, 1, 1), 2768896.0, 400)],  # noqa: E501
    }

    @pytest.mark.parametrize("layer", sorted(CONV_PINS))
    def test_alexnet_conv_tunes_unchanged(self, layer):
        from repro.session import Session

        with Session() as session:
            measured = [
                (report.best_mapping, report.best_cost, report.num_trials)
                for report in (
                    session.tune("alexnet", layer, seed=seed)
                    for seed in range(5)
                )
            ]
        assert measured == self.CONV_PINS[layer]


class TestMaeriTasks:
    def test_fc_task_psums_objective(self, maeri128):
        layer = FcLayer("f", in_features=256, out_features=128)
        task = MaeriFcTask(layer, maeri128, objective="psums")
        result = GridSearchTuner(task).tune(n_trials=5000)
        best = task.best_mapping(result.best_config)
        # Table VI structure: psum tuning drives T_K to 1 and maximizes T_S.
        assert best.T_K == 1
        assert best.T_S == 128

    def test_fc_task_cycles_objective_prefers_balance(self, maeri128):
        layer = FcLayer("f", in_features=256, out_features=128)
        task = MaeriFcTask(layer, maeri128, objective="cycles")
        result = GridSearchTuner(task).tune(n_trials=5000)
        best = task.best_mapping(result.best_config)
        assert best.T_K > 1  # cycle tuning uses spatial reduction

    def test_conv_task_valid_best(self, maeri128):
        layer = ConvLayer("c", C=8, H=10, W=10, K=16, R=3, S=3)
        task = MaeriConvTask(layer, maeri128, objective="psums",
                             max_options_per_tile=4)
        result = XGBTuner(task, seed=0).tune(n_trials=80)
        mapping = task.best_mapping(result.best_config)
        mapping.validate_for(layer, maeri128.ms_size)

    def test_invalid_objective_rejected(self, maeri128):
        with pytest.raises(TuningError, match="objective"):
            MaeriFcTask(
                FcLayer("f", in_features=8, out_features=8),
                maeri128,
                objective="latency",
            )


class TestRecords:
    def test_best_tracking(self):
        records = TuningRecords()
        records.add(0, {"a": 1}, 10.0)
        records.add(1, {"a": 2}, INVALID_COST)
        records.add(2, {"a": 3}, 5.0)
        assert records.best.cost == 5.0
        assert records.num_valid == 2
        assert records.best_cost_curve() == [10.0, 10.0, 5.0]

    def test_jsonl_roundtrip(self, tmp_path):
        records = TuningRecords(objective="psums")
        records.add(0, {"a": 1}, 10.0)
        records.add(1, {"a": 2}, INVALID_COST)
        path = tmp_path / "log.jsonl"
        records.save_jsonl(path)
        restored = TuningRecords.load_jsonl(path)
        assert restored.objective == "psums"
        assert len(restored.trials) == 2
        assert restored.trials[1].cost == INVALID_COST

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TuningError, match="invalid record"):
            TuningRecords.load_jsonl(path)
