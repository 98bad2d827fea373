"""CI smoke test for the layered config path (keeps --config load-bearing).

Exercises the whole config surface end to end, in-process and over the
CLI:

1. ``repro config show --json`` round-trips through
   ``SessionConfig.from_dict`` (the acceptance criterion for the JSON
   form);
2. ``repro config show`` emits TOML that ``--config`` accepts — the
   snapshot-and-replay workflow;
3. ``repro run --config`` with a temp TOML produces the same stats as
   the equivalent explicit flags;
4. the file-driven example (``examples/session_quickstart.py``) runs
   end to end under that TOML;
5. a TOML naming a removed knob (``[tuning] speculation``,
   ``[engine] steal_deadline``) makes ``repro run --config`` fail with
   the key named on stderr;
6. ``repro tune alexnet fc1`` searches its 64-config space exhaustively
   (the whole space fits the default 400-trial budget): 36 valid
   configs explored, best mapping ``(128, 1, 1)``.

Run:  PYTHONPATH=src python scripts/config_smoke.py
Exit: 0 on success, 1 on any mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from repro.session import SessionConfig, load_profiles  # noqa: E402

TOML = """\
[architecture]
arch = "maeri"
ms_size = 64

[engine]
executor = "serial"

[cache]
max_rows = 500

[tuning]
mapping = "mrna"

[profile.edge.architecture]
ms_size = 32

[profile.cloud.engine]
max_workers = 4
"""


def _subprocess_env(env=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = SRC + os.pathsep + merged.get("PYTHONPATH", "")
    if env:
        merged.update(env)
    return merged


def run_cli(*argv, env=None, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(env),
        cwd=str(ROOT),
    )
    if not check:
        return proc
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: repro {' '.join(argv)} exited {proc.returncode}\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc.stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        toml_path = Path(tmp) / "repro.toml"
        toml_path.write_text(TOML)

        # 1. config show --json round-trips through from_dict.
        shown = run_cli("config", "show", "--json", "--config", str(toml_path))
        config = SessionConfig.from_dict(json.loads(shown))
        assert config.architecture.ms_size == 64, config
        assert config.cache.max_rows == 500, config
        assert config.tuning.mapping == "mrna", config
        print("config show --json round-trips through SessionConfig.from_dict")

        # ... and the env layer loses to explicit flags but beats the file.
        env_shown = run_cli(
            "config", "show", "--json", "--config", str(toml_path),
            "--ms-size", "128", env={"REPRO_MS_SIZE": "32"},
        )
        assert json.loads(env_shown)["architecture"]["ms_size"] == 128
        env_only = run_cli(
            "config", "show", "--json", "--config", str(toml_path),
            env={"REPRO_MS_SIZE": "32"},
        )
        assert json.loads(env_only)["architecture"]["ms_size"] == 32
        print("precedence verified: CLI > env > file")

        # 2. The TOML form of config show is itself a valid --config file.
        snapshot = Path(tmp) / "snapshot.toml"
        snapshot.write_text(
            run_cli("config", "show", "--config", str(toml_path))
        )
        reshown = run_cli("config", "show", "--json", "--config", str(snapshot))
        assert SessionConfig.from_dict(json.loads(reshown)) == config
        print("config show TOML round-trips as a --config file")

        # ... and it preserves the [profile.X] sections: the snapshot's
        # profiles stay selectable and resolve identically to the
        # original file's.
        shown_text = snapshot.read_text()
        assert "[profile.edge.architecture]" in shown_text, shown_text
        assert load_profiles(snapshot) == load_profiles(toml_path)
        edge = run_cli("config", "show", "--json", "--config", str(snapshot),
                       "--profile", "edge")
        assert json.loads(edge)["architecture"]["ms_size"] == 32
        assert SessionConfig.from_file(snapshot, profile="cloud") == (
            SessionConfig.from_file(toml_path, profile="cloud")
        )
        print("config show renders [profile.X] TOML that round-trips")

        # 3. run --config == run with the equivalent explicit flags.
        from_file = run_cli("run", "lenet", "--config", str(toml_path))
        from_flags = run_cli(
            "run", "lenet", "--ms-size", "64", "--executor", "serial",
            "--mapping", "mrna",
        )
        assert from_file == from_flags, (
            f"run --config diverged from explicit flags:\n"
            f"--- file ---\n{from_file}\n--- flags ---\n{from_flags}"
        )
        print("run --config is bit-identical to explicit flags")

        # 4. The file-driven example runs end to end under the TOML.
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "session_quickstart.py"),
             str(toml_path)],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"FAIL: session_quickstart.py exited {proc.returncode}\n"
                f"{proc.stdout}{proc.stderr}"
            )
        assert "run report JSON round-trip verified" in proc.stdout
        print("examples/session_quickstart.py ran end to end under --config")

        # 5. A removed knob is a typed config error, not a silent no-op.
        removed = Path(tmp) / "removed.toml"
        for section, key, value in (
            ("tuning", "speculation", "true"),
            ("engine", "steal_deadline", "5.0"),
        ):
            removed.write_text(f"[{section}]\n{key} = {value}\n")
            proc = run_cli("run", "mlp", "--config", str(removed), check=False)
            assert proc.returncode != 0, proc.stdout
            assert key in proc.stderr, proc.stderr
            print(f"run --config rejects the removed [{section}] {key} key")

        # 6. A space that fits the trial budget is searched exhaustively.
        tuned = run_cli("tune", "alexnet", "fc1")
        assert "explored 36 configs\n" in tuned, tuned
        assert "best mapping: (128, 1, 1)\n" in tuned, tuned
        print("repro tune alexnet fc1 searched its 36 valid configs")

    print("config smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
