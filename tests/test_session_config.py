"""Tests for the layered SessionConfig: precedence, coercion, round trips.

The documented precedence is ``CLI > kwargs > env > file > defaults``;
every pair of adjacent layers is exercised, plus bad-key rejection and
the bit-identical guarantee that a file-built session measures exactly
what an explicit-kwargs session does.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.session import (
    Session,
    SessionConfig,
    add_config_arguments,
    cli_overrides,
    env_overrides,
    field_specs,
    known_keys,
)


def _write_toml(tmp_path, text, name="repro.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_default_sections(self):
        cfg = SessionConfig()
        assert cfg.architecture.arch == "maeri"
        assert cfg.engine.executor is None
        assert cfg.cache.path is None
        assert cfg.cache.max_rows is None
        assert cfg.fleet.workers == ()
        assert cfg.tuning.tuner == "xgb"

    def test_flat_keys_are_unique(self):
        keys = known_keys()
        assert len(keys) == len(set(keys))
        assert "executor" in keys and "cache_max_rows" in keys

    def test_every_field_has_env_name(self):
        for spec in field_specs():
            assert spec.env.startswith("REPRO_")

    def test_field_spec_table_is_built_once_in_declaration_order(self):
        from repro.session.config import _SECTION_TYPES

        assert field_specs() is field_specs()
        reference = [
            (section, f.name, f.metadata.get("key") or f.name)
            for section, section_type in _SECTION_TYPES
            for f in dataclasses.fields(section_type)
        ]
        assert [
            (spec.section, spec.name, spec.key) for spec in field_specs()
        ] == reference


class TestFileLayer:
    def test_toml_file(self, tmp_path):
        path = _write_toml(tmp_path, """
[architecture]
arch = "sigma"
sparsity_ratio = 0.5

[engine]
executor = "thread"
max_workers = 3

[cache]
path = "stats.sqlite"
max_rows = 1000
""")
        cfg = SessionConfig.from_file(path)
        assert cfg.architecture.arch == "sigma"
        assert cfg.architecture.sparsity_ratio == 0.5
        assert cfg.engine.executor == "thread"
        assert cfg.engine.max_workers == 3
        assert cfg.cache.path == "stats.sqlite"
        assert cfg.cache.max_rows == 1000
        # Untouched sections keep their defaults.
        assert cfg.tuning.trials == 400

    def test_json_file(self, tmp_path):
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(
            {"engine": {"executor": "process"}, "tuning": {"seed": 7}}
        ))
        cfg = SessionConfig.from_file(path)
        assert cfg.engine.executor == "process"
        assert cfg.tuning.seed == 7

    def test_missing_file_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            SessionConfig.from_file(tmp_path / "nope.toml")

    def test_invalid_toml_is_error(self, tmp_path):
        path = _write_toml(tmp_path, "[architecture\narch=")
        with pytest.raises(ConfigError, match="invalid TOML"):
            SessionConfig.from_file(path)

    def test_workers_list_in_file(self, tmp_path):
        path = _write_toml(tmp_path, """
[fleet]
workers = ["hostA:9461", "hostB:9461"]
""")
        cfg = SessionConfig.from_file(path)
        assert cfg.fleet.workers == ("hostA:9461", "hostB:9461")


class TestBadKeys:
    def test_unknown_section_rejected(self, tmp_path):
        path = _write_toml(tmp_path, "[cach]\npath = 'x'\n")
        with pytest.raises(ConfigError, match="unknown config section 'cach'"):
            SessionConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_toml(tmp_path, "[engine]\nexecuter = 'serial'\n")
        with pytest.raises(ConfigError, match="unknown key 'executer'"):
            SessionConfig.from_file(path)

    def test_unknown_flat_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            SessionConfig.resolve(env=False, exector="serial")

    def test_removed_speculation_knob_rejected(self, tmp_path, capsys):
        # A deleted knob must fail loudly on every surface rather than
        # be silently accepted.
        with pytest.raises(ConfigError, match="unknown config key 'speculation'"):
            SessionConfig.resolve(env=False, speculation=True)
        path = _write_toml(tmp_path, "[tuning]\nspeculation = true\n")
        with pytest.raises(ConfigError, match="unknown key 'speculation'"):
            SessionConfig.from_file(path)
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "lenet", "conv1", "--speculation"])
        assert exit_info.value.code == 2
        assert "--speculation" in capsys.readouterr().err

    def test_removed_steal_deadline_knob_rejected(self, tmp_path, capsys):
        with pytest.raises(
            ConfigError, match="unknown config key 'steal_deadline'"
        ):
            SessionConfig.resolve(env=False, steal_deadline=5.0)
        path = _write_toml(tmp_path, "[engine]\nsteal_deadline = 5.0\n")
        with pytest.raises(ConfigError, match="unknown key 'steal_deadline'"):
            SessionConfig.from_file(path)
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--models", "mlp", "--steal-deadline", "1"])
        assert exit_info.value.code == 2
        assert "--steal-deadline" in capsys.readouterr().err

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="executor must be one of"):
            SessionConfig.resolve(env=False, executor="bogus")
        with pytest.raises(ConfigError, match="expects an integer"):
            SessionConfig.resolve(env=False, trials="many")
        with pytest.raises(ConfigError, match="arch must be one of"):
            SessionConfig.resolve(env=False, arch="eyeriss")


class TestEnvLayer:
    def test_env_only(self):
        env = {
            "REPRO_EXECUTOR": "thread",
            "REPRO_MAX_WORKERS": "5",
            "REPRO_CACHE_MAX_ROWS": "99",
            "REPRO_FUNCTIONAL": "true",
            "REPRO_FLEET_WORKERS": "a:1, b:2",
        }
        cfg = SessionConfig.from_env(env)
        assert cfg.engine.executor == "thread"
        assert cfg.engine.max_workers == 5
        assert cfg.cache.max_rows == 99
        assert cfg.engine.functional is True
        assert cfg.fleet.workers == ("a:1", "b:2")

    def test_unrelated_env_ignored(self):
        assert env_overrides({"REPRO_NOT_A_KEY": "x", "PATH": "/bin"}) == {}

    def test_empty_env_value_ignored(self):
        assert env_overrides({"REPRO_EXECUTOR": ""}) == {}


class TestPrecedence:
    def test_env_beats_file(self, tmp_path):
        path = _write_toml(tmp_path, "[engine]\nexecutor = 'serial'\n")
        cfg = SessionConfig.resolve(
            file=path, env={"REPRO_EXECUTOR": "thread"}
        )
        assert cfg.engine.executor == "thread"

    def test_kwargs_beat_env_and_file(self, tmp_path):
        path = _write_toml(tmp_path, "[engine]\nexecutor = 'serial'\n")
        cfg = SessionConfig.resolve(
            file=path, env={"REPRO_EXECUTOR": "thread"}, executor="process"
        )
        assert cfg.engine.executor == "process"

    def test_cli_beats_everything(self, tmp_path):
        path = _write_toml(tmp_path, "[engine]\nexecutor = 'serial'\n")
        cfg = SessionConfig.resolve(
            file=path,
            env={"REPRO_EXECUTOR": "thread"},
            cli={"executor": "remote"},
            executor="process",
        )
        assert cfg.engine.executor == "remote"

    def test_full_stack_layering(self, tmp_path):
        # Each layer sets a different key; all must show through.
        path = _write_toml(tmp_path, """
[architecture]
ms_size = 64

[tuning]
trials = 11
""")
        cfg = SessionConfig.resolve(
            file=path,
            env={"REPRO_SEED": "3"},
            cli={"objective": "cycles"},
            max_workers=2,
        )
        assert cfg.architecture.ms_size == 64      # file
        assert cfg.tuning.trials == 11             # file
        assert cfg.tuning.seed == 3                # env
        assert cfg.engine.max_workers == 2         # kwargs
        assert cfg.tuning.objective == "cycles"    # cli

    def test_env_false_is_hermetic(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert SessionConfig.resolve(env=False).engine.executor is None
        assert SessionConfig.resolve().engine.executor == "thread"


#: The dse sweep axes, plus keys whose flat spelling is not the field
#: name (``cache_max_entries`` is ``cache.max_entries``).
_DSE_OVERRIDES = st.fixed_dictionaries({}, optional={
    "arch": st.sampled_from(["maeri", "sigma", "tpu", "magma"]),
    "ms_size": st.sampled_from([2 ** k for k in range(3, 12)]),
    "dn_bw": st.sampled_from([2 ** k for k in range(11)]),
    "rn_bw": st.sampled_from([2 ** k for k in range(11)]),
    "sparsity_ratio": st.integers(0, 99).map(lambda k: k / 100),
    "ms_rows": st.sampled_from([2 ** k for k in range(2, 6)]),
    "ms_cols": st.sampled_from([2 ** k for k in range(2, 6)]),
    "cache_max_entries": st.integers(1, 1 << 20),
    "chunk_size": st.none() | st.integers(1, 64),
})


class TestRoundTrips:
    @given(overrides=_DSE_OVERRIDES)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, overrides):
        cfg = SessionConfig.resolve(
            env=False, executor="process", cache_path="x.sqlite",
            cache_max_rows=10, workers="a:1,b:2", seed=9,
        ).with_overrides(**overrides)
        assert SessionConfig.from_dict(cfg.to_dict()) == cfg
        assert SessionConfig().with_overrides(**cfg.to_flat()) == cfg

    def test_json_round_trip(self):
        cfg = SessionConfig.resolve(env=False, arch="tpu", ms_rows=8, ms_cols=8)
        assert SessionConfig.from_dict(json.loads(cfg.to_json())) == cfg

    def test_toml_round_trip(self, tmp_path):
        cfg = SessionConfig.resolve(
            env=False, executor="thread", max_workers=4,
            cache_path="s.sqlite", workers="h:1",
        )
        path = _write_toml(tmp_path, cfg.to_toml(), "rt.toml")
        assert SessionConfig.from_file(path) == cfg

    def test_config_show_json_round_trips(self, capsys):
        from repro.cli import main

        assert main(["config", "show", "--json", "--executor", "process",
                     "--cache-max-rows", "42"]) == 0
        data = json.loads(capsys.readouterr().out)
        cfg = SessionConfig.from_dict(data)
        assert cfg.engine.executor == "process"
        assert cfg.cache.max_rows == 42

    def test_config_show_toml_is_loadable(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["config", "show", "--ms-size", "64"]) == 0
        path = _write_toml(tmp_path, capsys.readouterr().out, "shown.toml")
        assert SessionConfig.from_file(path).architecture.ms_size == 64


class TestCliDerivation:
    def test_flags_cover_every_cli_field(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_config_arguments(parser)
        text = parser.format_help()
        for spec in field_specs():
            if spec.cli:
                assert spec.flag in text

    def test_only_given_flags_enter_cli_layer(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_config_arguments(parser)
        args = parser.parse_args(["--executor", "serial"])
        assert cli_overrides(args) == {"executor": "serial"}

    def test_help_mentions_env_names(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_config_arguments(parser)
        assert "REPRO_CACHE_MAX_ROWS" in parser.format_help()


class TestFileDrivenSessionParity:
    """`SessionConfig.from_file -> Session.run` must be bit-identical to
    the equivalent explicit-kwargs call (acceptance criterion)."""

    @pytest.mark.parametrize("model", ["mlp", "lenet"])
    def test_file_vs_kwargs_bit_identical(self, tmp_path, model):
        path = _write_toml(tmp_path, """
[architecture]
arch = "maeri"
ms_size = 64

[engine]
executor = "serial"

[tuning]
mapping = "mrna"
""")
        with Session(SessionConfig.resolve(file=path, env=False)) as s:
            from_file = s.run(model)
        with Session(SessionConfig.resolve(
            env=False, arch="maeri", ms_size=64, executor="serial",
            mapping="mrna",
        )) as s:
            from_kwargs = s.run(model)
        assert from_file.to_dict() == from_kwargs.to_dict()
        assert [st.to_dict() for st in from_file.layer_stats] == [
            st.to_dict() for st in from_kwargs.layer_stats
        ]


class TestEnvDrivenSessionParity:
    """`Session.from_env` must measure exactly what explicit kwargs do."""

    def test_env_vs_kwargs_bit_identical(self):
        env = {
            "REPRO_ARCH": "maeri",
            "REPRO_MS_SIZE": "64",
            "REPRO_EXECUTOR": "serial",
            "REPRO_MAPPING": "mrna",
        }
        with Session.from_env(env) as s:
            from_env = s.run("lenet")
        with Session(SessionConfig.resolve(
            env=False, arch="maeri", ms_size=64, executor="serial",
            mapping="mrna",
        )) as s:
            from_kwargs = s.run("lenet")
        assert from_env.to_dict() == from_kwargs.to_dict()

    def test_env_tune_fixed_seed_bit_identical(self):
        env = {"REPRO_TUNER": "random", "REPRO_TRIALS": "40",
               "REPRO_SEED": "5", "REPRO_OBJECTIVE": "cycles"}
        with Session.from_env(env) as s:
            from_env = s.tune("mlp", "fc1")
        with Session(tuner="random", trials=40, seed=5,
                     objective="cycles") as s:
            from_kwargs = s.tune("mlp", "fc1")
        assert from_env.to_dict() == from_kwargs.to_dict()

    @pytest.mark.parametrize("model", ["mlp", "lenet"])
    def test_file_compare_bit_identical(self, tmp_path, model):
        path = _write_toml(tmp_path, "[architecture]\nms_size = 128\n")
        with Session(SessionConfig.resolve(file=path, env=False)) as s:
            from_file = s.compare(model)
        with Session(SessionConfig.resolve(env=False, ms_size=128)) as s:
            from_kwargs = s.compare(model)
        assert from_file.to_dict() == from_kwargs.to_dict()

    @pytest.mark.parametrize("model", ["mlp", "lenet"])
    def test_file_tune_fixed_seed_bit_identical(self, tmp_path, model):
        layer = "fc1" if model == "mlp" else "fc2"
        path = _write_toml(tmp_path, """
[tuning]
tuner = "random"
trials = 40
seed = 2
objective = "cycles"
""")
        with Session(SessionConfig.resolve(file=path, env=False)) as s:
            from_file = s.tune(model, layer)
        with Session(tuner="random", trials=40, seed=2,
                     objective="cycles") as s:
            from_kwargs = s.tune(model, layer)
        assert from_file.to_dict() == from_kwargs.to_dict()


class TestProfiles:
    """Named [profile.X] overlays: selection, precedence, round trips."""

    TOML = (
        "[architecture]\n"
        "ms_size = 64\n\n"
        "[profile.edge.architecture]\n"
        "ms_size = 32\n\n"
        "[profile.edge.engine]\n"
        'executor = "serial"\n\n'
        "[profile.cloud.engine]\n"
        'executor = "process"\n'
        "max_workers = 4\n"
    )

    def test_profile_overlays_file_base(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        base = SessionConfig.from_file(path)
        edge = SessionConfig.from_file(path, profile="edge")
        assert base.architecture.ms_size == 64
        assert edge.architecture.ms_size == 32
        assert edge.engine.executor == "serial"

    def test_unselected_base_keys_show_through(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        cloud = SessionConfig.from_file(path, profile="cloud")
        # cloud does not touch the architecture section.
        assert cloud.architecture.ms_size == 64
        assert cloud.engine.max_workers == 4

    def test_env_beats_profile(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        config = SessionConfig.resolve(
            file=path, profile="edge", env={"REPRO_MS_SIZE": "99"},
        )
        assert config.architecture.ms_size == 99

    def test_kwargs_beat_profile(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        config = SessionConfig.resolve(
            file=path, profile="edge", env=False, ms_size=77,
        )
        assert config.architecture.ms_size == 77

    def test_cli_beats_profile(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        config = SessionConfig.resolve(
            file=path, profile="edge", env=False, cli={"ms_size": 55},
        )
        assert config.architecture.ms_size == 55

    def test_unknown_profile_rejected(self, tmp_path):
        path = _write_toml(tmp_path, self.TOML)
        with pytest.raises(ConfigError, match="no profile 'nope'"):
            SessionConfig.from_file(path, profile="nope")

    def test_profile_without_file_rejected(self):
        with pytest.raises(ConfigError, match="no config file"):
            SessionConfig.resolve(profile="edge", env=False)

    def test_bad_key_in_unselected_profile_rejected(self, tmp_path):
        path = _write_toml(
            tmp_path,
            "[profile.edge.architecture]\nms_sizee = 32\n",
        )
        # The typo fails loudly even when the profile is not selected.
        with pytest.raises(ConfigError, match="invalid profile 'edge'"):
            SessionConfig.from_file(path)

    def test_load_profiles_shape(self, tmp_path):
        from repro.session import load_profiles

        path = _write_toml(tmp_path, self.TOML)
        profiles = load_profiles(path)
        assert list(profiles) == ["edge", "cloud"]
        assert profiles["edge"]["architecture"]["ms_size"] == 32

    def test_to_toml_profiles_round_trip(self, tmp_path):
        from repro.session import load_profiles

        path = _write_toml(tmp_path, self.TOML)
        base = SessionConfig.from_file(path)
        snapshot = _write_toml(
            tmp_path,
            base.to_toml(profiles=load_profiles(path)),
            name="snapshot.toml",
        )
        assert load_profiles(snapshot) == load_profiles(path)
        assert SessionConfig.from_file(snapshot, profile="edge") == (
            SessionConfig.from_file(path, profile="edge")
        )

    def test_profile_flag_on_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_toml(tmp_path, self.TOML)
        assert main([
            "config", "show", "--json", "--config", str(path),
            "--profile", "edge",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["architecture"]["ms_size"] == 32

    def test_config_show_text_renders_profiles(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_toml(tmp_path, self.TOML)
        assert main(["config", "show", "--config", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "[profile.edge.architecture]" in shown
        assert "[profile.cloud.engine]" in shown
        # ... and the rendered text is itself a loadable profile file.
        snapshot = _write_toml(tmp_path, shown, name="shown.toml")
        assert SessionConfig.from_file(snapshot, profile="edge") == (
            SessionConfig.from_file(path, profile="edge")
        )

    def test_autostart_validation(self):
        with pytest.raises(ConfigError, match="fleet_autostart"):
            SessionConfig.resolve(env=False, fleet_autostart=-1)
