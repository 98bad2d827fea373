#!/usr/bin/env python
"""Distributed smoke test: two real worker daemons vs serial execution.

Spawns two ``repro worker`` processes on ephemeral localhost ports, both
with ``--cache-path`` on one temporary SQLite file, and runs three legs
against them:

* a small GA tune through ``--executor remote``, which must report the
  *same best mapping and best cost* as the identical tune with
  ``--executor serial``;
* LeNet's IR graph through a ``Session`` on ``executor="remote"``, whose
  one-layer-at-a-time evaluations must be served by *both* daemons and
  give the same per-layer cycles as a serial session;
* the same graph through a second, fresh remote ``Session`` that lists
  the workers in reverse order: its client cache is empty, so its
  layers travel again, each to the *other* worker, and must be answered
  from the workers' shared cache (``fleet.cache_hits.*`` > 0) with the
  same cycles.

The fleet tier is an execution detail, never an approximation.  Exits
non-zero on any divergence, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/distributed_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile

TUNE_ARGS = [
    "tune", "lenet", "conv1",
    "--objective", "cycles", "--tuner", "ga",
    "--trials", "40", "--seed", "0",
]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _spawn_worker(env: dict, cache_path: str) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--listen", "127.0.0.1:0", "--cache-path", cache_path,
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
    return proc, match.group(1)


def _tune(env: dict, extra: list) -> list:
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
    )


def _graph_cycles(addresses: list) -> tuple:
    """Per-layer cycles of LeNet's graph on a serial session, and, for
    each of two fresh remote sessions in turn, its cycles plus the
    remote backend's shard, worker-cache-hit and fallback counts."""
    import numpy as np

    from repro.models import lenet_graph
    from repro.session import Session

    feeds = {"data": np.random.default_rng(0).standard_normal((1, 1, 28, 28))}

    def cycles(session) -> list:
        report = session.run_graph(lenet_graph(), feeds)
        return [stats.cycles for stats in report.layer_stats]

    with Session(arch="maeri", mapping="mrna") as session:
        serial = cycles(session)
    remote = []
    # Reversed for the second session, so each layer reaches the worker
    # that did not simulate it: its hits come through the shared file.
    for workers in (addresses, addresses[::-1]):
        with Session(
            arch="maeri", mapping="mrna", executor="remote",
            workers=workers,
        ) as session:
            leg_cycles = cycles(session)
            backend = session.engine.backend
            metrics = backend.metrics
            remote.append((
                leg_cycles,
                metrics.counters_with_prefix("fleet.shards."),
                metrics.counters_with_prefix("fleet.cache_hits."),
                backend.fallback_batches,
            ))
    return serial, remote


def main() -> int:
    env = _env()
    workers = []
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "fleet.sqlite")
        try:
            workers = [_spawn_worker(env, cache_path) for _ in range(2)]
            addresses = ",".join(address for _, address in workers)
            print(f"workers: {addresses} (shared cache {cache_path})")
            serial, _ = _tune(env, ["--executor", "serial"])
            remote, fleet = _tune(
                env, ["--executor", "remote", "--workers", addresses]
            )
            graph_serial, graph_legs = _graph_cycles(
                [address for _, address in workers]
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
    print(f"remote: {remote}  {fleet}")
    if not serial or serial != remote:
        print("FAIL: remote tuning diverged from serial", file=sys.stderr)
        return 1
    # Identical results alone would also be produced by a silent inline
    # fallback; the fleet counters prove the workers actually served.
    if fleet != ["fleet: 0 fallback batches, 0 retried shards"]:
        print(f"FAIL: fleet did not serve the run cleanly: {fleet}",
              file=sys.stderr)
        return 1
    print(f"graph serial: {graph_serial}")
    for leg, (cycles, shards, hits, fallbacks) in enumerate(graph_legs, 1):
        print(f"graph remote #{leg}: {cycles}  shards {shards}, worker "
              f"cache hits {hits}, {fallbacks} fallback batches")
        if not graph_serial or graph_serial != cycles:
            print(f"FAIL: remote graph run #{leg} diverged from serial",
                  file=sys.stderr)
            return 1
        if fallbacks:
            print(f"FAIL: remote graph run #{leg} fell back inline",
                  file=sys.stderr)
            return 1
    first_shards = graph_legs[0][1]
    if len(first_shards) != 2 or not all(first_shards.values()):
        print("FAIL: the graph run's single evaluations did not spread "
              f"across both daemons: {first_shards}", file=sys.stderr)
        return 1
    if sum(graph_legs[1][2].values()) == 0:
        print("FAIL: the second session was not served from the workers' "
              "shared cache", file=sys.stderr)
        return 1
    print("OK: remote 2-worker tune and LeNet graph runs are bit-identical "
          "to serial (both workers served, no fallback, second session "
          "answered from the workers' shared cache)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
