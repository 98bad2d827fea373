"""Tests for the Session facade: lifecycle, reports, legacy parity, leaks.

The acceptance bar for the redesign: Session-built runs are bit-identical
to the direct code paths (a hand-built ``StonneBifrostApi`` endpoint with
``run_layers``/``run_graph``, engine-built tuning) for run, tune (fixed
seed) and compare, and teardown is deterministic — no lingering executor
pools after a ``with`` block.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.errors import ReproError, TuningError
from repro.session import (
    CompareReport,
    RunReport,
    Session,
    SessionConfig,
    TuneReport,
    zoo_layers,
)


def _direct_api(strategy):
    """An offload endpoint built without a Session: the endpoint builds
    its own serial engine over a private stats cache."""
    from repro.bifrost import MappingConfigurator, StonneBifrostApi

    config = SessionConfig().build_simulator_config()[0]
    return StonneBifrostApi(
        config, MappingConfigurator(config, strategy=strategy)
    )


class TestLifecycle:
    def test_context_manager_closes(self):
        with Session(executor="serial") as s:
            assert not s.closed
            s.run("mlp")
        assert s.closed

    def test_close_is_idempotent(self):
        s = Session()
        s.close()
        s.close()
        assert s.closed

    def test_closed_session_rejects_work(self):
        s = Session()
        s.close()
        with pytest.raises(ReproError, match="closed"):
            s.run("mlp")

    def test_close_shuts_down_process_pool(self):
        # The leak regression: a `with Session` block must not leave
        # process-backend workers behind.
        before = {p.pid for p in multiprocessing.active_children()}
        # An explicit chunk size sends mlp's group to the pool.
        with Session(executor="process", max_workers=2, chunk_size=1) as s:
            s.run("mlp")
            assert s.engine.backend._workers  # workers actually started
        assert s.engine.backend._workers == []
        leaked = [
            p for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert leaked == []

    def test_close_closes_sqlite_cache(self, tmp_path):
        import sqlite3

        with Session(executor="serial",
                     cache_path=str(tmp_path / "s.sqlite")) as s:
            s.run("mlp")
        with pytest.raises(sqlite3.ProgrammingError):
            s._cache._conn.execute("SELECT 1")

    def test_install_uninstall(self):
        from repro.bifrost.strategies import active_session

        with Session() as s:
            s.install()
            assert active_session() is s.api
        assert active_session() is None  # close() uninstalled

    def test_exception_in_block_still_closes(self):
        with pytest.raises(RuntimeError):
            with Session(executor="process", max_workers=2) as s:
                s.run("mlp")
                raise RuntimeError("boom")
        assert s.closed
        assert s.engine.backend._workers == []


class TestRun:
    def test_zoo_run_report(self):
        with Session(mapping="mrna") as s:
            report = s.run("lenet")
        assert isinstance(report, RunReport)
        assert report.model == "lenet"
        assert report.total_cycles > 0
        names = [st.layer_name for st in report.layer_stats]
        assert "conv1" in names and "fc3" in names

    def test_run_report_json_round_trip(self):
        with Session() as s:
            report = s.run("mlp")
        restored = RunReport.from_json(report.to_json())
        assert restored.total_cycles == report.total_cycles
        assert [st.to_dict() for st in restored.layer_stats] == [
            st.to_dict() for st in report.layer_stats
        ]

    def test_unknown_zoo_model(self):
        with Session() as s:
            with pytest.raises(ReproError, match="unknown model"):
                s.run("resnet")

    def test_run_matches_legacy_make_session_path(self):
        # Bit-identical to a directly built endpoint on two models.
        from repro.bifrost.runner import run_layers

        for model in ("mlp", "lenet"):
            legacy = _direct_api("mrna")
            legacy_stats = run_layers(zoo_layers(model), legacy)
            legacy.close()
            with Session(mapping="mrna") as s:
                report = s.run(model)
            assert [st.to_dict() for st in report.layer_stats] == [
                st.to_dict() for st in legacy_stats
            ]

    def test_torchlike_model_run(self):
        import repro.frontends.torchlike as nn

        model = nn.Sequential(
            nn.Flatten(), nn.Linear(16, 4), nn.ReLU(), nn.Linear(4, 2),
        )
        batch = np.random.default_rng(0).normal(size=(1, 16))
        with Session(mapping="mrna") as s:
            report = s.run(model, batch)
        assert report.output.shape == (1, 2)
        assert len(report.layer_stats) == 2

    def test_model_without_batch_is_error(self):
        import repro.frontends.torchlike as nn

        with Session() as s:
            with pytest.raises(ReproError, match="input batch"):
                s.run(nn.Sequential(nn.Linear(4, 2)))

    def test_run_graph(self):
        from repro.models import lenet_graph

        with Session(mapping="default") as s:
            report = s.run_graph(
                lenet_graph(), {"data": np.zeros((1, 1, 28, 28))}
            )
        assert report.outputs and report.output.shape == (1, 10)
        assert report.total_cycles > 0

    def test_run_graph_matches_legacy(self):
        from repro.bifrost.runner import run_graph
        from repro.models import lenet_graph

        feed = {"data": np.ones((1, 1, 28, 28))}
        legacy = _direct_api("mrna")
        legacy_result = run_graph(lenet_graph(), feed, legacy)
        legacy.close()
        with Session(mapping="mrna") as s:
            report = s.run_graph(lenet_graph(), feed)
        assert report.total_cycles == legacy_result.total_cycles
        assert np.array_equal(report.output, legacy_result.output)


class TestTune:
    def test_tune_report(self):
        with Session(trials=40, tuner="random", seed=1) as s:
            report = s.tune("lenet", "fc3")
        assert isinstance(report, TuneReport)
        assert report.layer == "fc3"
        assert report.num_trials <= 40
        assert len(report.best_mapping) == 3
        restored = TuneReport.from_json(report.to_json())
        assert restored.best_mapping == report.best_mapping
        assert restored.best_cost == report.best_cost

    def test_tune_fixed_seed_matches_legacy_engine_path(self):
        # The pre-redesign CLI path: engine + task + tuner by hand.
        from repro.engine import EvaluationEngine
        from repro.tuner import MaeriFcTask, RandomTuner

        config = SessionConfig().build_simulator_config()[0]
        layer = {l.name: l for l in zoo_layers("lenet")}["fc2"]
        engine = EvaluationEngine(config)
        task = MaeriFcTask(layer, config, objective="cycles", engine=engine)
        legacy = RandomTuner(task, seed=3).tune(
            n_trials=60, early_stopping=120
        )
        legacy_mapping = task.best_mapping(legacy.best_config).as_tuple()
        engine.close()

        with Session(objective="cycles", tuner="random", trials=60,
                     seed=3) as s:
            report = s.tune("lenet", "fc2")
        assert report.best_mapping == tuple(legacy_mapping)
        assert report.best_cost == legacy.best_cost
        assert report.num_trials == legacy.num_trials

    def test_tune_accepts_bare_layer(self):
        layer = {l.name: l for l in zoo_layers("mlp")}["fc1"]
        with Session(tuner="random", trials=20) as s:
            report = s.tune(layer)
        assert report.layer == "fc1"
        assert report.model is None

    def test_unknown_layer_is_tuning_error(self):
        with Session() as s:
            with pytest.raises(TuningError, match="no layer"):
                s.tune("lenet", "conv9")


class TestCompare:
    def test_compare_matches_legacy_controller_path(self):
        # Pre-redesign compare drove the controller directly; the
        # session routes through the engine — same cycle model, so the
        # numbers must agree exactly.
        from repro.mrna import MrnaMapper
        from repro.stonne.maeri import MaeriController
        from repro.stonne.mapping import FcMapping
        from repro.tuner import GridSearchTuner, MaeriFcTask

        config = SessionConfig().build_simulator_config()[0]
        controller = MaeriController(config)
        mapper = MrnaMapper(config)
        with Session() as s:
            report = s.compare("mlp")
        assert isinstance(report, CompareReport)
        assert report.schemes == ("default", "AutoTVM", "mRNA")
        for row, layer in zip(report.rows, zoo_layers("mlp")):
            assert row["layer"] == layer.name
            assert row["cycles"]["default"] == controller.run_fc(
                layer, FcMapping.basic()
            ).cycles
            assert row["cycles"]["mRNA"] == controller.run_fc(
                layer, mapper.map_fc(layer)
            ).cycles
            task = MaeriFcTask(layer, config, objective="psums")
            tuned = task.best_mapping(
                GridSearchTuner(task).tune(n_trials=10 ** 9).best_config
            )
            assert row["cycles"]["AutoTVM"] == controller.run_fc(
                layer, tuned
            ).cycles

    def test_compare_report_json_round_trip(self):
        with Session() as s:
            report = s.compare("mlp")
        assert CompareReport.from_json(report.to_json()) == report


class TestSessionConstruction:
    def test_from_dict(self):
        s = Session.from_dict({"engine": {"executor": "serial"}})
        assert s.engine.backend.name == "serial"
        s.close()

    def test_overrides_on_config(self):
        cfg = SessionConfig.resolve(env=False, executor="serial")
        with Session(cfg, max_workers=2, executor="thread") as s:
            assert s.config.engine.executor == "thread"
            assert s.config.engine.max_workers == 2

    def test_corrections_surface(self):
        with Session(ms_size=100) as s:
            assert any("rounded up" in c for c in s.corrections)
            assert s.simulator_config.ms_size == 128

    def test_counters_snapshot(self):
        with Session() as s:
            s.run("mlp")
            counters = s.counters()
        assert counters["num_evaluations"] >= 3
        assert counters["executor"] == "serial"
