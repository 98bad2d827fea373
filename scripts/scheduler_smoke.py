#!/usr/bin/env python
"""Scheduler smoke test: work-stealing across unequal fleet workers.

Spawns two ``repro worker`` daemons with *unequal* advertised capacity
(1 vs 3 pull slots), tunes through ``--executor remote`` against them,
and asserts:

* the best cost is bit-identical to ``--executor serial`` — pull
  scheduling and stealing are execution details, never approximations;
* the fleet served the run with zero fallback batches;
* the pull scheduler actually engaged and slots stole work
  (``steals > 0`` in the scheduler counter line) — the capacity-3
  worker's extra slots drain chunks whose static home was elsewhere.

Exits non-zero on any divergence, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/scheduler_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys

#: 120 trials give eight remote miss batches, most of them with more
#: one-item chunks than the four slots.  A steal needs a slot to pull a
#: chunk dealt to another one; with 40 trials there were only three
#: batches of 3-4 chunks, at most one per slot, so whether any was
#: stolen depended on which puller thread reached the queue first, and
#: a run could read 0 steals with the scheduler working as designed.
TUNE_ARGS = [
    "tune", "lenet", "conv1",
    "--objective", "cycles", "--tuner", "ga",
    "--trials", "120", "--seed", "0",
]

CAPACITIES = (1, 3)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def _spawn_worker(env: dict, capacity: int) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--listen", "127.0.0.1:0",
            "--fleet-capacity", str(capacity),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker failed to start: {banner!r}")
    if f"capacity: {capacity}" not in banner:
        proc.kill()
        raise RuntimeError(
            f"worker does not advertise capacity {capacity}: {banner!r}"
        )
    return proc, match.group(1)


def _tune(env: dict, extra: list) -> tuple:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + TUNE_ARGS + extra,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"tune {extra} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    lines = result.stdout.splitlines()
    return (
        [line for line in lines if line.startswith("best ")],
        [line for line in lines if line.startswith("fleet:")],
        [line for line in lines if line.startswith("scheduler:")],
    )


def main() -> int:
    env = _env()
    workers = []
    try:
        workers = [
            _spawn_worker(env, capacity) for capacity in CAPACITIES
        ]
        addresses = ",".join(address for _, address in workers)
        print(f"workers: {addresses} (capacities {CAPACITIES})")
        serial, _, _ = _tune(env, ["--executor", "serial"])
        remote, fleet, scheduler = _tune(
            env, ["--executor", "remote", "--workers", addresses]
        )
    finally:
        for proc, _ in workers:
            proc.send_signal(signal.SIGINT)
        for proc, _ in workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    print(f"serial: {serial}")
    print(f"remote: {remote}  {fleet}  {scheduler}")
    if not serial or serial != remote:
        print("FAIL: remote tuning diverged from serial", file=sys.stderr)
        return 1
    if fleet != ["fleet: 0 fallback batches, 0 retried shards"]:
        print(f"FAIL: fleet did not serve the run cleanly: {fleet}",
              file=sys.stderr)
        return 1
    # The scheduler line proves the pull path engaged; with 4 unequal
    # slots draining GA generations, some chunk must have been pulled
    # away from its static home slot.
    if not scheduler:
        print("FAIL: pull scheduler never engaged (no scheduler line)",
              file=sys.stderr)
        return 1
    match = re.search(r"scheduler: (\d+) chunks pulled, (\d+) steals",
                      scheduler[0])
    if not match:
        print(f"FAIL: unparseable scheduler line: {scheduler}",
              file=sys.stderr)
        return 1
    pulled, steals = int(match.group(1)), int(match.group(2))
    if pulled <= 0 or steals <= 0:
        print(f"FAIL: expected pulls and steals > 0, got {pulled} pulls, "
              f"{steals} steals", file=sys.stderr)
        return 1
    print(f"OK: unequal-capacity 2-worker tune is bit-identical to serial "
          f"({pulled} chunks pulled, {steals} steals, no fallback)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
