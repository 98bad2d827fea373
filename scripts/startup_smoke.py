#!/usr/bin/env python
"""Start-up smoke test: the CLI's quick verbs and a daemon's first job.

Runs ``repro --help`` and ``repro config show`` in fresh processes, then
starts ``repro serve`` on an ephemeral port, waits for its banner and a
pong, runs two small jobs to ``done`` (the first one loads what the idle
daemon deferred: numpy, the model builders, the engine), lists them with
``repro jobs``, and SIGTERMs the daemon expecting exit 0.

Every step fails loudly on a wrong exit code or output.  Wall times are
printed for information only: nothing here gates on time, so a slow CI
host cannot fail it.

Usage: PYTHONPATH=src python scripts/startup_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
sys.path.insert(0, SRC)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    return env


def _timed_cli(env: dict, *argv: str) -> str:
    """Run one ``repro`` verb to completion; print and return its output."""
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    wall = time.perf_counter() - started
    if result.returncode != 0:
        raise SystemExit(
            f"FAIL: repro {' '.join(argv)} exited {result.returncode}:\n"
            f"{result.stdout}{result.stderr}"
        )
    print(f"repro {' '.join(argv):<40} {wall * 1000:7.0f} ms")
    return result.stdout


def _daemon_leg(env: dict, workdir: str) -> None:
    from repro.serve import ServeClient
    from repro.session import SessionConfig
    from repro.sweep import SweepPlan

    started = time.perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0",
         "--cache-path", os.path.join(workdir, "serve.sqlite"),
         "--archive-dir", os.path.join(workdir, "archive")],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    client = None
    try:
        banner = daemon.stdout.readline()
        match = re.search(r"listening on ([\d.]+:\d+)", banner)
        if not match:
            raise SystemExit(f"FAIL: repro serve banner: {banner!r}")
        print(f"{'repro serve: banner':<46} "
              f"{(time.perf_counter() - started) * 1000:7.0f} ms")
        client = ServeClient(match.group(1), timeout=60.0)
        deadline = time.monotonic() + 30
        while not client.ping():
            if time.monotonic() > deadline:
                raise SystemExit("FAIL: repro serve never answered a ping")
            time.sleep(0.005)
        print(f"{'repro serve: first pong':<46} "
              f"{(time.perf_counter() - started) * 1000:7.0f} ms")

        plan = SweepPlan.matrix(
            SessionConfig.resolve(env=False), models=["mlp", "lenet"]
        )
        for which in ("first", "second"):
            job_started = time.perf_counter()
            job = client.submit(plan)
            state = client.watch(job["id"])
            if state.get("state") != "done":
                raise SystemExit(f"FAIL: {which} job ended {state}")
            print(f"{f'repro serve: {which} job to done':<46} "
                  f"{(time.perf_counter() - job_started) * 1000:7.0f} ms")

        jobs = _timed_cli(env, "jobs", "--connect", match.group(1))
        if jobs.count(" done") != 2:
            raise SystemExit(f"FAIL: repro jobs lists:\n{jobs}")
    finally:
        if client is not None:
            client.close()
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
    if daemon.returncode != 0:
        raise SystemExit(
            f"FAIL: repro serve exited {daemon.returncode} on SIGTERM"
        )


def main() -> int:
    env = _env()
    if "sweep service" not in _timed_cli(env, "--help"):
        raise SystemExit("FAIL: repro --help lacks its epilog")
    if "[architecture]" not in _timed_cli(env, "config", "show"):
        raise SystemExit("FAIL: repro config show printed no config")
    with tempfile.TemporaryDirectory(prefix="startup-smoke-") as workdir:
        _daemon_leg(env, workdir)
    print("startup smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
