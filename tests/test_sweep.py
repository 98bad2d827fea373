"""The scenario-matrix sweep API: plans, cross-scenario dedup, reports,
diffing, and the CLI surface."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError
from repro.session import RunReport, Session, SessionConfig, TuneReport
from repro.sweep import (
    Scenario,
    SweepPlan,
    SweepReport,
    diff_reports,
    load_report,
    resolve_axis_key,
)

CFG = SessionConfig.resolve(env=False)

EDGE_CLOUD = {
    # Profiles that tweak execution, not hardware: every scenario pair
    # (model@edge, model@cloud) shares its whole key space.
    "edge": {"engine": {"executor": "serial"}},
    "cloud": {"engine": {"max_workers": 2}},
}


class TestAxisKeys:
    def test_flat_key_passes_through(self):
        assert resolve_axis_key("ms_size") == "ms_size"

    def test_dotted_key_resolves(self):
        assert resolve_axis_key("architecture.ms_size") == "ms_size"
        assert resolve_axis_key("cache.path") == "cache_path"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            resolve_axis_key("architecture.nope")


class TestSweepPlan:
    def test_matrix_expansion_order_and_names(self):
        plan = SweepPlan.matrix(
            CFG,
            models=["mlp", "lenet"],
            profiles=EDGE_CLOUD,
            axes={"architecture.ms_size": [64, 128]},
        )
        assert len(plan) == 8
        assert [s.name for s in plan][:4] == [
            "mlp/edge/ms_size=64",
            "mlp/edge/ms_size=128",
            "mlp/cloud/ms_size=64",
            "mlp/cloud/ms_size=128",
        ]

    def test_axis_values_coerced_like_config(self):
        # CLI-style string values expand to the same scenarios as ints.
        from_strings = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"ms_size": ["64"]}
        )
        from_ints = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"ms_size": [64]}
        )
        assert from_strings.scenarios[0].name == from_ints.scenarios[0].name
        assert (
            from_strings.scenarios[0].config
            == from_ints.scenarios[0].config
        )
        # A dotted axis labels its cell with the flat key and the
        # coerced value, exactly like the flat spelling.
        dotted = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"cache.max_entries": ["512"]}
        )
        flat = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"cache_max_entries": [512]}
        )
        assert dotted.scenarios[0].name == "mlp/cache_max_entries=512"
        assert dotted.scenarios[0].overrides == (("cache_max_entries", 512),)
        assert dotted.scenarios[0] == flat.scenarios[0]
        assert dotted.scenarios[0].config.cache.max_entries == 512

    def test_profile_overlay_applies(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp"],
            profiles={"edge": {"architecture": {"ms_size": 32}}},
        )
        scenario = plan.scenarios[0]
        assert scenario.profile == "edge"
        assert scenario.config.architecture.ms_size == 32

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError, match="unknown model"):
            SweepPlan.matrix(CFG, models=["resnet"])

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigError, match="at least one model"):
            SweepPlan.matrix(CFG, models=[])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            SweepPlan.matrix(CFG, models=["mlp"], axes={"ms_size": []})

    def test_duplicate_scenario_names_rejected(self):
        scenario = Scenario(name="a", config=CFG, model="mlp")
        with pytest.raises(ConfigError, match="duplicate scenario name"):
            SweepPlan(scenarios=(scenario, scenario))

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="scenario kind"):
            Scenario(name="a", config=CFG, model="mlp", kind="train")

    def test_labels_carry_matrix_coordinates(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp"], profiles=EDGE_CLOUD,
            axes={"ms_size": [64]},
        )
        assert plan.scenarios[0].labels() == {
            "model": "mlp", "profile": "edge", "ms_size": 64,
        }


class TestCrossScenarioDedup:
    def test_2x2_matrix_dedups_against_sequential_runs(self, tmp_path):
        """The acceptance criterion: a 2-model x 2-profile sweep over a
        shared .sqlite cache performs strictly fewer simulations than
        the four equivalent sequential runs."""
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG, cache_path=str(tmp_path / "sweep.sqlite")) as s:
            report = s.sweep(plan)
        sweep_simulations = report.counters["num_simulations"]

        sequential_simulations = 0
        for model in ("mlp", "lenet"):
            for profile in ("edge", "cloud"):
                config = CFG.merged_with_dict(EDGE_CLOUD[profile])
                with Session(config) as s:
                    s.run(model)
                    sequential_simulations += s.engine.num_simulations
        assert sweep_simulations < sequential_simulations

    def test_shared_layers_simulate_exactly_once(self):
        # mlp has 3 unique fc shapes, lenet 2 conv + 3 fc: the 2x2
        # matrix evaluates 16 layers but must simulate only the 8
        # distinct ones.
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG) as s:
            report = s.sweep(plan)
        assert report.counters["num_evaluations"] == 16
        assert report.counters["num_simulations"] == 8

    def test_sweep_results_bit_identical_to_single_runs(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG) as s:
            sweep = s.sweep(plan)
        for model in ("mlp", "lenet"):
            with Session(CFG) as s:
                single = s.run(model)
            for profile in ("edge", "cloud"):
                swept = sweep[f"{model}/{profile}"]
                assert [st.to_dict() for st in swept.layer_stats] == [
                    st.to_dict() for st in single.layer_stats
                ]

    def test_architecture_axis_uses_distinct_engines(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"architecture.ms_size": [64, 128]}
        )
        with Session(CFG) as s:
            report = s.sweep(plan)
        # Different hardware -> different key spaces -> no dedup.
        assert report.counters["num_simulations"] == 6
        cycles = {
            s.overrides["ms_size"]: s.report.total_cycles
            for s in report.scenarios
        }
        assert cycles[64] != cycles[128]

    def test_one_engine_per_hardware_config(self, monkeypatch):
        """A 3-model x 3-arch matrix at one hardware point builds one
        engine per distinct (SimulatorConfig, functional), not one per
        scenario, and every cell equals its own serial session."""
        from repro.engine import EvaluationEngine

        plan = SweepPlan.matrix(
            CFG,
            models=["mlp", "lenet", "alexnet"],
            axes={"arch": ["maeri", "sigma", "tpu"], "ms_size": [64],
                  "dn_bw": [32], "rn_bw": [32]},
        )
        built = []
        original = EvaluationEngine.__init__

        def spy(self, config, *args, **kwargs):
            built.append((config, kwargs.get("functional", False)))
            original(self, config, *args, **kwargs)

        with Session(CFG) as s:
            monkeypatch.setattr(EvaluationEngine, "__init__", spy)
            report = s.sweep(plan)
            monkeypatch.undo()
        distinct = {
            (scenario.config.build_simulator_config()[0],
             scenario.config.engine.functional)
            for scenario in plan.scenarios
        }
        assert len(plan.scenarios) == 9 and len(distinct) == 3
        assert len(built) == 3 and set(built) == distinct
        for scenario in plan.scenarios:
            with Session(scenario.config) as s:
                single = s.run(scenario.model)
            swept = report[scenario.name]
            assert [st.to_dict() for st in swept.layer_stats] == [
                st.to_dict() for st in single.layer_stats
            ]

    def test_one_hardware_resolution_per_distinct_config(self, monkeypatch):
        """A 3-model x 3-arch matrix resolves each of its 3 hardware
        configs once per sweep, not once per scenario, and a repeat sweep
        on the kept engines reports the same cells."""
        plan = SweepPlan.matrix(
            CFG,
            models=["mlp", "lenet", "alexnet"],
            axes={"arch": ["maeri", "sigma", "tpu"], "ms_size": [64],
                  "dn_bw": [32], "rn_bw": [32]},
        )
        resolved = []
        original = SessionConfig.build_simulator_config

        def spy(self):
            resolved.append(self.architecture.arch)
            return original(self)

        with Session(CFG) as s:
            monkeypatch.setattr(SessionConfig, "build_simulator_config", spy)
            first = s.sweep(plan)
            assert sorted(resolved) == ["maeri", "sigma", "tpu"]
            again = s.sweep(plan)
            monkeypatch.undo()
        assert len(resolved) == 6
        for before, after in zip(first.scenarios, again.scenarios):
            assert after.config_hash == before.config_hash
            assert after.report.layer_stats == before.report.layer_stats

    def test_sweep_on_process_executor_matches_serial(self, tmp_path):
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG) as s:
            serial = s.sweep(plan)
        with Session(CFG, executor="process", max_workers=2) as s:
            process = s.sweep(plan)
        for name in serial.names:
            assert [st.to_dict() for st in serial[name].layer_stats] == [
                st.to_dict() for st in process[name].layer_stats
            ]

    def test_mixed_kind_sweep(self):
        fast_tune = CFG.with_overrides(tuner="random", trials=4)
        plan = SweepPlan(
            scenarios=(
                Scenario(name="run", config=CFG, model="mlp"),
                Scenario(
                    name="tune", config=fast_tune, model="mlp",
                    kind="tune", layer="fc1",
                ),
            )
        )
        with Session(CFG) as s:
            report = s.sweep(plan)
        assert isinstance(report["run"], RunReport)
        assert isinstance(report["tune"], TuneReport)

    def test_sweep_rejects_non_plan(self):
        with Session(CFG) as s:
            with pytest.raises(ReproError, match="expects a SweepPlan"):
                s.sweep(["mlp"])


def _count_builds(monkeypatch):
    """Spy on engine construction and mRNA calls; returns the tally."""
    from repro.engine import EvaluationEngine
    from repro.mrna import MrnaMapper

    built = {"engines": 0, "mrna": 0}
    original_init = EvaluationEngine.__init__

    def spy_init(self, *args, **kwargs):
        built["engines"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(EvaluationEngine, "__init__", spy_init)
    for name in ("map_conv", "map_fc"):
        original = getattr(MrnaMapper, name)

        def spy_map(self, layer, _original=original):
            built["mrna"] += 1
            return _original(self, layer)

        monkeypatch.setattr(MrnaMapper, name, spy_map)
    return built


class TestSessionScopedEngines:
    """Sweep engines and mapping memos live as long as the session."""

    #: ms_size=128 is CFG's own hardware point; the rest build engines.
    PLAN = SweepPlan.matrix(
        CFG, models=["mlp", "lenet"], axes={"ms_size": [64, 128, 256]}
    )

    def test_repeated_sweep_builds_nothing(self, monkeypatch):
        built = _count_builds(monkeypatch)
        with Session(CFG) as s:
            s.sweep(self.PLAN)
            first = dict(built)
            again = s.sweep(self.PLAN)
        monkeypatch.undo()
        # The session's own engine plus one per other ms_size.
        assert first["engines"] == 3 and first["mrna"] > 0
        assert built == first
        assert again.counters["num_simulations"] == 0
        assert again.counters["num_evaluations"] == 24

    def test_repeated_sweep_matches_a_fresh_session(self, tmp_path):
        """The warm sweep on kept engines reports exactly what the same
        sweep reports from a fresh session over the same warm cache."""
        cache = str(tmp_path / "warm.sqlite")
        with Session(CFG, cache_path=cache) as s:
            s.sweep(self.PLAN)
            kept = s.sweep(self.PLAN)
        with Session(CFG, cache_path=cache) as s:
            fresh = s.sweep(self.PLAN)
        assert kept.to_dict() == fresh.to_dict()
        assert kept.counters == fresh.counters

    def test_table_is_bounded_lru_and_keeps_the_own_engine(
        self, monkeypatch
    ):
        from repro.sweep import runner

        monkeypatch.setattr(runner, "ENGINE_ENTRIES", 2)
        wide = SweepPlan.matrix(
            CFG, models=["mlp"], axes={"ms_size": [32, 64, 128, 256, 512]}
        )
        with Session(CFG) as s:
            own = s.run("mlp")
            s.sweep(wide)
            table = s._sweep_engines
            assert len(table) == 2
            assert table.hardware_for(CFG).engine is s.engine
            built = _count_builds(monkeypatch)
            # The session's own engine and the two most recently used
            # hardware points survive; the others are rebuilt.  Reusing
            # 256 makes 512 the least recent, so building 32 evicts it.
            for ms_size, engines in (
                (128, 0), (256, 0), (32, 1), (256, 1), (512, 2),
            ):
                s.sweep(SweepPlan.matrix(
                    CFG, models=["mlp"], axes={"ms_size": [ms_size]}
                ))
                assert built["engines"] == engines, ms_size
            assert len(table) == 2
            assert [st.to_dict() for st in s.run("mlp").layer_stats] == [
                st.to_dict() for st in own.layer_stats
            ]

    def test_close_drops_the_table(self):
        s = Session(CFG)
        s.sweep(self.PLAN)
        assert len(s._sweep_engines) == 2
        s.close()
        assert s._sweep_engines is None


class TestSweepReport:
    @pytest.fixture(scope="class")
    def report(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG) as s:
            return s.sweep(plan)

    def test_json_round_trip_is_bit_identical(self, report):
        again = SweepReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()

    def test_getitem_and_keyerror(self, report):
        assert report["mlp/edge"].total_cycles > 0
        with pytest.raises(KeyError):
            report["nope"]

    def test_best_minimizes_metric(self, report):
        best = report.best("total_cycles")
        assert best.report.total_cycles == min(
            s.report.total_cycles for s in report
        )

    def test_best_without_metric_raises(self, report):
        with pytest.raises(ReproError, match="no scenario"):
            report.best("best_cost")

    def test_filter_by_labels(self, report):
        edge = report.filter(model="lenet", profile="edge")
        assert edge.names == ["lenet/edge"]

    def test_filter_by_predicate(self, report):
        slow = report.filter(
            lambda s: s.report.total_cycles
            > report.best().report.total_cycles
        )
        assert all(
            s.report.total_cycles > report.best().report.total_cycles
            for s in slow
        )

    def test_summary_lists_every_scenario(self, report):
        text = report.summary()
        for name in report.names:
            assert name in text
        assert "simulations" in text


class TestDiff:
    @pytest.fixture(scope="class")
    def report(self):
        plan = SweepPlan.matrix(CFG, models=["mlp"], profiles=EDGE_CLOUD)
        with Session(CFG) as s:
            return s.sweep(plan)

    def test_self_diff_is_zero(self, report):
        diff = diff_reports(report, report)
        assert diff.is_zero
        assert diff.max_regression == 0.0

    def test_regression_detected(self, report):
        worse = copy.deepcopy(report)
        stats = worse.scenarios[0].report.layer_stats
        stats[0] = replace(stats[0], cycles=stats[0].cycles * 2)
        diff = diff_reports(report, worse)
        assert not diff.is_zero
        assert diff.max_regression > 0
        improved = diff_reports(worse, report)
        assert improved.max_regression <= 0

    def test_scenario_set_changes_are_reported(self, report):
        shrunk = copy.deepcopy(report)
        dropped = shrunk.scenarios.pop().name
        diff = diff_reports(report, shrunk)
        assert diff.only_before == [dropped]
        assert not diff.is_zero

    def test_run_report_diffs_standalone(self):
        with Session(CFG) as s:
            run = s.run("mlp")
        diff = diff_reports(run, run)
        assert diff.is_zero
        metrics = {m.metric for m in diff.scenarios[0].metrics}
        assert metrics == {"cycles", "energy"}

    def test_tune_report_diffs_on_cost(self):
        with Session(CFG) as s:
            tune = s.tune("mlp", "fc1", tuner="random", trials=4)
        diff = diff_reports(tune, tune)
        assert diff.is_zero
        assert diff.scenarios[0].metrics[0].metric == "best_cost"

    def test_load_report_dispatches_on_kind(self, tmp_path, report):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(report.to_json())
        assert isinstance(load_report(sweep_path), SweepReport)
        run_path = tmp_path / "run.json"
        run_path.write_text(report.scenarios[0].report.to_json())
        assert isinstance(load_report(run_path), RunReport)

    def test_load_report_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_report(tmp_path / "nope.json")

    def test_load_report_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ReproError, match="invalid JSON"):
            load_report(path)


class TestSweepCli:
    def _write_matrix(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(
            "[architecture]\n"
            "ms_size = 128\n\n"
            "[profile.edge.engine]\n"
            'executor = "serial"\n\n'
            "[profile.cloud.engine]\n"
            "max_workers = 2\n"
        )
        return path

    def test_sweep_command(self, tmp_path, capsys):
        toml = self._write_matrix(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--config", str(toml), "--profiles", "edge,cloud",
            "--models", "mlp,lenet", "--report-json", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "mlp/edge" in out and "lenet/cloud" in out
        report = SweepReport.from_json(out_path.read_text())
        assert len(report) == 4
        # Cross-scenario dedup visible in the archived counters.
        assert report.counters["num_simulations"] == 8

    def test_sweep_axis_flag(self, tmp_path, capsys):
        assert main([
            "sweep", "--models", "mlp",
            "--axis", "architecture.ms_size=64,128",
        ]) == 0
        out = capsys.readouterr().out
        assert "mlp/ms_size=64" in out and "mlp/ms_size=128" in out

    def test_sweep_unknown_profile_is_error(self, tmp_path, capsys):
        toml = self._write_matrix(tmp_path)
        assert main([
            "sweep", "--config", str(toml), "--profiles", "nope",
            "--models", "mlp",
        ]) == 2
        assert "defines no profile" in capsys.readouterr().err

    def test_sweep_profiles_require_config(self, capsys):
        assert main([
            "sweep", "--profiles", "edge", "--models", "mlp",
        ]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_sweep_bad_axis_is_error(self, capsys):
        assert main([
            "sweep", "--models", "mlp", "--axis", "ms_size",
        ]) == 2
        assert "--axis expects" in capsys.readouterr().err

    def test_report_diff_zero_and_gate(self, tmp_path, capsys):
        toml = self._write_matrix(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--config", str(toml), "--profiles", "edge",
            "--models", "mlp", "--report-json", str(out_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "diff", str(out_path), str(out_path),
            "--fail-on-regression", "0",
        ]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_report_diff_gate_trips_on_regression(self, tmp_path, capsys):
        with Session(CFG) as s:
            run = s.run("mlp")
        before = tmp_path / "before.json"
        before.write_text(run.to_json())
        worse_report = RunReport.from_json(run.to_json())
        first = worse_report.layer_stats[0]
        worse_report.layer_stats[0] = replace(first, cycles=first.cycles * 2)
        after = tmp_path / "after.json"
        after.write_text(worse_report.to_json())
        assert main([
            "report", "diff", str(before), str(after),
            "--fail-on-regression", "5",
        ]) == 3
        captured = capsys.readouterr()
        assert "exceeds" in captured.err
        # Without the gate the same diff exits 0 but reports the delta.
        assert main(["report", "diff", str(before), str(after)]) == 0

    def test_report_diff_json_output(self, tmp_path, capsys):
        with Session(CFG) as s:
            run = s.run("mlp")
        path = tmp_path / "run.json"
        path.write_text(run.to_json())
        assert main([
            "report", "diff", str(path), str(path), "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "report_diff" and data["zero"] is True

    def test_report_diff_missing_file_is_error(self, tmp_path, capsys):
        assert main([
            "report", "diff", str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
        ]) == 1
        assert "not found" in capsys.readouterr().err


class TestBatchPlans:
    """The engine-level interface the sweep runner is built on."""

    def test_cross_plan_dedup_simulates_once(self, maeri128):
        from repro.engine import EvaluationEngine
        from repro.stonne.layer import FcLayer

        engine = EvaluationEngine(maeri128)
        a = engine.plan_many([FcLayer("a", in_features=64, out_features=8)])
        b = engine.plan_many([FcLayer("b", in_features=64, out_features=8)])
        engine.run_plans([a, b])
        assert engine.num_simulations == 1
        assert engine.num_evaluations == 2
        # Each plan owns an independently attributed copy.
        assert a.results[0].layer_name == "a"
        assert b.results[0].layer_name == "b"
        assert a.results[0] is not b.results[0]
        assert a.results[0].cycles == b.results[0].cycles

    def test_plan_hits_resolve_at_plan_time(self, maeri128):
        from repro.engine import EvaluationEngine
        from repro.stonne.layer import FcLayer

        engine = EvaluationEngine(maeri128)
        layer = FcLayer("fc", in_features=32, out_features=8)
        engine.evaluate(layer)
        plan = engine.plan_many([layer])
        assert plan.num_pending == 0
        assert plan.results[0] is not None

    def test_run_plans_rejects_foreign_plan(self, maeri128):
        from repro.engine import EvaluationEngine
        from repro.errors import SimulationError
        from repro.stonne.layer import FcLayer

        one = EvaluationEngine(maeri128)
        other = EvaluationEngine(maeri128)
        plan = one.plan_many([FcLayer("fc", in_features=32, out_features=8)])
        with pytest.raises(SimulationError, match="different engine"):
            other.run_plans([plan])


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned by tests."""

    def test_gate_trips_when_scenario_vanishes(self, tmp_path, capsys):
        plan = SweepPlan.matrix(CFG, models=["mlp"], profiles=EDGE_CLOUD)
        with Session(CFG) as s:
            report = s.sweep(plan)
        before = tmp_path / "before.json"
        before.write_text(report.to_json())
        shrunk = copy.deepcopy(report)
        shrunk.scenarios.pop()
        after = tmp_path / "after.json"
        after.write_text(shrunk.to_json())
        # A dropped benchmark must not read as "no regression".
        assert main([
            "report", "diff", str(before), str(after),
            "--fail-on-regression", "0",
        ]) == 3
        assert "missing from the after report" in capsys.readouterr().err
        # Without the gate it still exits 0 but reports the drop.
        assert main(["report", "diff", str(before), str(after)]) == 0
        assert "only in before" in capsys.readouterr().out

    def test_repeated_axis_flag_is_error(self, capsys):
        assert main([
            "sweep", "--models", "mlp",
            "--axis", "ms_size=64", "--axis", "ms_size=128",
        ]) == 2
        assert "given twice" in capsys.readouterr().err

    def test_run_counters_are_scenario_scoped(self):
        plan = SweepPlan.matrix(
            CFG, models=["mlp", "lenet"], profiles=EDGE_CLOUD
        )
        with Session(CFG) as s:
            report = s.sweep(plan)
        first = report.scenarios[0].report.counters
        assert first["num_evaluations"] == 3  # mlp's layers, not all 16
        # The same model under the second profile planned after the
        # first's misses were parked: all shared, none hit at plan time.
        cloud = report["mlp/cloud"].counters
        assert cloud["num_evaluations"] == 3

    def test_autostart_reaped_when_init_fails_late(self, monkeypatch):
        import os

        from repro.session import session as session_module

        spawned = []
        real_spawn = session_module.Session  # keep flake quiet

        from repro.fleet import worker as worker_module

        original = worker_module.spawn_local_workers

        def tracking_spawn(count, **kwargs):
            procs = original(count, **kwargs)
            spawned.extend(procs)
            return procs

        monkeypatch.setattr(
            worker_module, "spawn_local_workers", tracking_spawn
        )
        # Force a failure after the daemons are up: an unknown zoo
        # model is too late (post-__init__), so break engine build.
        from repro import engine as engine_module

        def boom(*args, **kwargs):
            raise RuntimeError("engine construction failed")

        monkeypatch.setattr(engine_module, "EvaluationEngine", boom)
        monkeypatch.setattr(
            session_module, "Session", real_spawn
        )
        with pytest.raises(RuntimeError, match="engine construction"):
            Session(fleet_autostart=1)
        assert spawned, "test did not exercise the spawn path"
        for proc in spawned:
            assert not proc.running
            with pytest.raises(ProcessLookupError):
                os.kill(proc.pid, 0)
