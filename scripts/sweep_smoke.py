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
fresh ``.sqlite`` cache with automatic chunking: each engine group
runs as one chunk on the caller's thread, no worker process starts, and the sweep equals a serial sweep.  It then reopens
the file in a new session and sweeps again: the second sweep simulates
nothing, runs at most one SELECT per scenario plan (each plan reads its
keys in one batch), returns records that refuse writes, equals a serial
sweep, and the file holds exactly one row per simulated key (each merge
is written as one transaction).  The last
pins a chunk size so every group reaches the workers, SIGKILLs one
worker between two sweeps of one session and asserts the second sweep
is bit-identical to a serial sweep and ran on a respawned worker: a
dead worker is respawned, never a broken session.

Run:  PYTHONPATH=src python scripts/sweep_smoke.py
Exit: 0 on success, 1 on any mismatch.
"""

import dataclasses
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
        workers = session.engine.backend._workers
    assert workers == [], "automatic chunking started process workers"
    simulated = cold.counters["num_simulations"]
    assert simulated > 0, cold.counters
    # One engine per architecture; each group with misses is one inline
    # chunk.
    groups = {
        cold[name].architecture for name in cold.names
        if cold[name].counters["unique_misses"]
    }
    pulled = cold.counters["scheduler"]["chunks_pulled"]
    assert pulled == len(groups), (pulled, sorted(groups))
    with Session(cache_path=path) as session:
        warm_plan = plan(session)
        selects = []
        session.engine.cache._conn.set_trace_callback(
            lambda sql: selects.append(sql)
            if sql.lstrip().upper().startswith("SELECT") else None)
        warm = session.sweep(warm_plan)
        session.engine.cache._conn.set_trace_callback(None)
        rows = session.engine.cache.disk_entries()
    assert warm.counters["num_simulations"] == 0, warm.counters
    assert rows == simulated, (rows, simulated)
    # Each scenario's plan looks its keys up in one get_many: at most
    # one query per plan, however many layers fall through to the file.
    assert 0 < len(selects) <= len(warm_plan.scenarios), selects
    record = warm[warm.names[0]].layer_stats[0]
    try:
        record.cycles = 0
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError("a cached record accepted a write")
    with Session(executor="serial") as session:
        serial = session.sweep(plan(session))
    assert layer_stats(cold) == layer_stats(serial), (
        "inline sweep on the process executor differs from serial"
    )
    assert layer_stats(warm) == layer_stats(serial), (
        "sweep from a reopened sqlite cache differs from serial"
    )
    print(
        f"sqlite cache: {simulated} simulations on --executor process in "
        f"{pulled} inline chunks, no worker started, == serial; "
        f"{rows} rows; reopened sweep ran 0 simulations in {len(selects)} "
        f"SELECTs for {len(warm_plan.scenarios)} plans, returned frozen "
        "records and == serial"
    )


def killed_worker_leg() -> None:
    from repro.session import Session
    from repro.sweep import SweepPlan

    def plan(session):
        return SweepPlan.matrix(
            session.config, models=["mlp", "lenet"],
            axes={"ms_size": [64, 256]},
        )

    # An explicit chunk size sends every group to the
    # workers (automatic chunking would run these groups inline).
    with Session(executor="process", max_workers=2,
                 chunk_size=1) as session:
        session.sweep(SweepPlan.matrix(session.config, models=["mlp"]))
        victim = session.engine.backend._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        after = session.sweep(plan(session))
        respawned = session.engine.backend._workers[0].process.pid
    assert after.counters["num_simulations"] > 0, after.counters
    assert respawned != victim.pid, "slot 0 was not respawned"
    with Session(executor="serial") as session:
        serial = session.sweep(plan(session))
    assert layer_stats(after) == layer_stats(serial), (
        "sweep after a killed worker differs from serial"
    )
    print(
        f"SIGKILLed worker pid {victim.pid}: next sweep "
        f"({after.counters['num_simulations']} simulations) ran on "
        f"respawned pid {respawned} and == serial"
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

        # 4. A process sweep into SQLite runs its groups inline,
        # and the file warm-starts a fresh session.
        sqlite_cache_leg(tmp)

    # 5. A killed worker costs nothing: the next sweep equals serial.
    killed_worker_leg()

    print("sweep smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
