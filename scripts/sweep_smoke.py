"""CI smoke test for the sweep surface (keeps `repro sweep` load-bearing).

Runs a 2-model x 2-profile matrix through the CLI with the process
executor, then proves the two sweep guarantees end to end:

1. cross-scenario dedup: the archived SweepReport's counters show
   strictly fewer simulations than evaluations (shared layers simulated
   once across the matrix);
2. diffability: `repro report diff` of the report against itself is a
   zero delta and exits 0 under `--fail-on-regression 0`, and a
   doctored regression trips the gate with exit 3.

Two in-process legs follow.  One sweeps on the process executor into a
fresh ``.sqlite`` cache, reopens the file in a new session and sweeps
again: the second sweep simulates nothing, equals a serial sweep, and
the file holds exactly one row per simulated key (each merge is written
as one transaction).  The last SIGKILLs one process-backend worker
between two sweeps of one session and asserts the second sweep is
bit-identical to a serial sweep: a dead worker is respawned, never a
broken session.

Run:  PYTHONPATH=src python scripts/sweep_smoke.py
Exit: 0 on success, 1 on any mismatch.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

TOML = """\
[architecture]
arch = "maeri"
ms_size = 128

[profile.edge.engine]
executor = "serial"

[profile.cloud.engine]
max_workers = 2
"""


def run_cli(*argv, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, cwd=str(ROOT),
    )
    if proc.returncode != expect:
        raise SystemExit(
            f"FAIL: repro {' '.join(argv)} exited {proc.returncode} "
            f"(expected {expect})\n{proc.stdout}{proc.stderr}"
        )
    return proc.stdout


def layer_stats(report):
    return {
        name: [stats.to_dict() for stats in report[name].layer_stats]
        for name in report.names
    }


def sqlite_cache_leg(tmp: str) -> None:
    from repro.session import Session
    from repro.sweep import SweepPlan

    def plan(session):
        return SweepPlan.matrix(
            session.config, models=["mlp", "lenet"],
            axes={"arch": ["maeri", "sigma", "tpu"]},
        )

    path = str(Path(tmp) / "sweep.sqlite")
    with Session(executor="process", max_workers=2,
                 cache_path=path) as session:
        cold = session.sweep(plan(session))
    simulated = cold.counters["num_simulations"]
    assert simulated > 0, cold.counters
    with Session(cache_path=path) as session:
        warm = session.sweep(plan(session))
        rows = session.engine.cache.disk_entries()
    assert warm.counters["num_simulations"] == 0, warm.counters
    assert rows == simulated, (rows, simulated)
    with Session(executor="serial") as session:
        serial = session.sweep(plan(session))
    assert layer_stats(warm) == layer_stats(serial), (
        "sweep from a reopened sqlite cache differs from serial"
    )
    print(
        f"sqlite cache: {simulated} simulations on --executor process, "
        f"{rows} rows; reopened sweep ran 0 simulations and == serial"
    )


def killed_worker_leg() -> None:
    from repro.session import Session
    from repro.sweep import SweepPlan

    def plan(session):
        return SweepPlan.matrix(
            session.config, models=["mlp", "lenet"],
            axes={"ms_size": [64, 256]},
        )

    with Session(executor="process", max_workers=2) as session:
        session.sweep(SweepPlan.matrix(session.config, models=["mlp"]))
        victim = session.engine.backend._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        after = session.sweep(plan(session))
    assert after.counters["num_simulations"] > 0, after.counters
    with Session(executor="serial") as session:
        serial = session.sweep(plan(session))
    assert layer_stats(after) == layer_stats(serial), (
        "sweep after a killed worker differs from serial"
    )
    print(
        f"SIGKILLed worker pid {victim.pid}: next sweep "
        f"({after.counters['num_simulations']} simulations) == serial"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        toml_path = Path(tmp) / "matrix.toml"
        toml_path.write_text(TOML)
        report_path = Path(tmp) / "sweep.json"

        # 1. A 2x2 sweep on the process executor, archived as JSON.
        out = run_cli(
            "sweep", "--config", str(toml_path),
            "--profiles", "edge,cloud", "--models", "mlp,lenet",
            "--executor", "process", "--max-workers", "2",
            "--report-json", str(report_path),
        )
        assert "mlp/edge" in out and "lenet/cloud" in out, out
        report = json.loads(report_path.read_text())
        counters = report["counters"]
        assert counters["num_simulations"] < counters["num_evaluations"], (
            f"no cross-scenario dedup: {counters}"
        )
        print(
            f"2x2 sweep ran on --executor process: "
            f"{counters['num_simulations']} simulations for "
            f"{counters['num_evaluations']} evaluations (dedup worked)"
        )

        # 2. Self-diff is a zero delta and passes the tightest gate.
        out = run_cli(
            "report", "diff", str(report_path), str(report_path),
            "--fail-on-regression", "0",
        )
        assert "no differences" in out, out
        print("report diff vs itself: zero delta, exit 0")

        # 3. A doctored regression trips the gate with exit code 3.
        doctored = json.loads(report_path.read_text())
        doctored["scenarios"][0]["report"]["layer_stats"][0]["cycles"] *= 2
        worse_path = Path(tmp) / "worse.json"
        worse_path.write_text(json.dumps(doctored))
        run_cli(
            "report", "diff", str(report_path), str(worse_path),
            "--fail-on-regression", "5", expect=3,
        )
        print("doctored regression trips --fail-on-regression with exit 3")

        # 4. A process sweep into SQLite warm-starts a fresh session.
        sqlite_cache_leg(tmp)

    # 5. A killed worker costs nothing: the next sweep equals serial.
    killed_worker_leg()

    print("sweep smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
