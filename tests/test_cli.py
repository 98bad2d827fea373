"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestFeatures:
    def test_prints_matrix(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "Bifrost" in out and "STONNE" in out


class TestRun:
    def test_lenet_on_maeri_with_mrna(self, capsys):
        assert main(["run", "lenet", "--arch", "maeri", "--mapping", "mrna"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "fc3" in out and "total" in out

    def test_lenet_on_sigma_with_sparsity(self, capsys):
        assert main(["run", "lenet", "--arch", "sigma", "--sparsity-ratio", "0.5"]) == 0
        assert "total" in capsys.readouterr().out

    def test_lenet_on_tpu(self, capsys):
        assert main(["run", "lenet", "--arch", "tpu", "--ms-rows", "8",
                     "--ms-cols", "8"]) == 0
        assert "total" in capsys.readouterr().out

    def test_energy_flag(self, capsys):
        assert main(["run", "mlp", "--energy"]) == 0
        assert "total energy" in capsys.readouterr().out

    def test_hardware_correction_note(self, capsys):
        assert main(["run", "mlp", "--ms-size", "100"]) == 0
        assert "rounded up" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "resnet"])


class TestTune:
    def test_tune_fc_layer_grid(self, capsys):
        code = main([
            "tune", "lenet", "fc2", "--tuner", "grid",
            "--objective", "cycles", "--trials", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best mapping" in out and "best cycles" in out

    def test_tune_writes_log(self, tmp_path, capsys):
        log = tmp_path / "tuning.jsonl"
        code = main([
            "tune", "lenet", "fc3", "--tuner", "random",
            "--trials", "40", "--log", str(log),
        ])
        assert code == 0
        assert log.exists() and log.read_text().strip()

    def test_unknown_layer_is_error(self, capsys):
        assert main(["tune", "lenet", "conv9"]) == 2
        assert "no layer" in capsys.readouterr().err


class TestCompare:
    def test_compare_mlp(self, capsys):
        assert main(["compare", "mlp"]) == 0
        out = capsys.readouterr().out
        assert "default" in out and "mRNA" in out and "fc1" in out


class TestMagmaSupport:
    def test_run_on_magma(self, capsys):
        assert main(["run", "lenet", "--arch", "magma", "--sparsity-ratio", "0.75"]) == 0
        assert "total" in capsys.readouterr().out


class TestLayeredConfig:
    def test_run_with_config_file(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text(
            "[architecture]\nms_size = 64\n\n[engine]\nexecutor = 'serial'\n"
        )
        assert main(["run", "lenet", "--config", str(toml)]) == 0
        assert "total" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text("[architecture]\nms_size = 100\n")
        # File asks for 100 (invalid, would be corrected); flag wins with
        # a clean power of two, so no correction note is printed.
        assert main(["run", "mlp", "--config", str(toml),
                     "--ms-size", "64"]) == 0
        assert "rounded up" not in capsys.readouterr().out

    def test_bad_config_key_is_error(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text("[engine]\nexecuter = 'serial'\n")
        assert main(["run", "mlp", "--config", str(toml)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_show_json(self, capsys):
        import json

        assert main(["config", "show", "--json", "--arch", "sigma",
                     "--sparsity-ratio", "0.25"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["architecture"]["arch"] == "sigma"
        assert data["architecture"]["sparsity_ratio"] == 0.25

    def test_config_show_text_is_toml(self, capsys):
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        import tomllib

        data = tomllib.loads(out)
        assert data["architecture"]["arch"] == "maeri"

    def test_cache_max_rows_flag_caps_sqlite(self, tmp_path, capsys):
        db = tmp_path / "capped.sqlite"
        assert main(["run", "lenet", "--cache-path", str(db),
                     "--cache-max-rows", "2"]) == 0
        capsys.readouterr()
        import sqlite3

        conn = sqlite3.connect(str(db))
        rows = conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]
        conn.close()
        assert rows <= 2

    def test_run_report_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["run", "mlp", "--report-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["model"] == "mlp" and data["total_cycles"] > 0
