#!/usr/bin/env python
"""Sweep service smoke test: one daemon, many clients, one cache.

Starts a ``repro serve`` daemon on an ephemeral port, submits two
overlapping 2x2 sweep matrices from two separate ``repro submit``
client processes, and asserts the shared-cache dedup contract: the
daemon runs jobs sequentially against one session, so whichever job
lands second reports ``num_simulations == 0`` — every one of its
scenarios is a cache hit from the first — while both archive
bit-identical per-scenario results.  Each job's archive must be one
line of compact JSON, and ``repro report diff`` between it and the
same job's indented ``repro result --report-json`` file must exit 0
with a zero delta.

The plan is then submitted once more: the daemon's session kept the
engines and mapping memos the first jobs built, and the new job must
simulate nothing and archive exactly the bytes of the leg-1 job that
was served from the cache.

Then exercises the cancel/resume loop: a queued job is cancelled before
it runs, its plan is resubmitted with ``--resume`` pointing at the
first job's archive, and the finished report must show exactly the
config-hash-overlapping scenarios adopted (``resumed_scenarios``)
rather than re-run.  Finally SIGTERMs the daemon and requires a clean
exit 0 — the graceful-shutdown contract CI gates on.

A last leg runs the shared-secret handshake across processes: a second
daemon started with ``REPRO_FLEET_SECRET`` in its environment must
answer ``repro jobs`` run with the same secret (exit 0) and refuse it
without one (exit 1, "requires a shared secret").

Usage: PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

MATRIX = ["--models", "mlp,lenet", "--axis", "ms_size=64,128"]
RESUME_MATRIX = ["--models", "mlp,lenet", "--axis", "ms_size=128,256"]
#: Leg 2's blocker: a cold 96-scenario matrix (about 0.7 s on a 2-vCPU
#: host) that keeps the executor busy far longer than the victim's
#: submit + cancel round trips (tens of ms), so the victim is still
#: queued when its cancel lands.  None of these models ran in leg 1.
BLOCKER_MODELS = ["alexnet", "vgg_small", "transformer",
                  "depthwise_sep", "grouped_conv", "dilated_conv"]
BLOCKER_AXES = {"ms_size": [32, 512, 1024, 2048], "rn_bw": [8, 16, 32, 64]}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def _cli(env: dict, *argv: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(argv)} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    return result.stdout


def _submit_process(env: dict, address: str, label: str, extra: list):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "submit",
         "--connect", address, "--label", label, "--watch", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def _job_id(output: str) -> str:
    match = re.search(r"submitted (job-\d+)", output)
    if not match:
        raise RuntimeError(f"no job id in client output:\n{output}")
    return match.group(1)


def _result(env: dict, address: str, job_id: str, path: str) -> dict:
    _cli(env, "result", job_id, "--connect", address,
         "--report-json", path)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _secured_leg(env: dict, tmp: str) -> int:
    """``repro jobs`` against a secured daemon: with the shared secret
    it exits 0, without it exits 1 naming the missing secret."""
    secured = dict(env, REPRO_FLEET_SECRET="serve-smoke-secret")
    plain = {k: v for k, v in env.items() if k != "REPRO_FLEET_SECRET"}
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0",
         "--archive-dir", os.path.join(tmp, "secured-archive")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=secured,
    )
    try:
        banner = daemon.stdout.readline()
        match = re.search(r"listening on ([\d.]+:\d+)", banner)
        if not match or "auth: on" not in banner:
            print(f"FAIL: secured daemon banner: {banner!r}",
                  file=sys.stderr)
            return 1
        address = match.group(1)
        runs = {
            name: subprocess.run(
                [sys.executable, "-m", "repro.cli", "jobs",
                 "--connect", address],
                capture_output=True, text=True, env=client_env,
                timeout=60,
            )
            for name, client_env in (("with", secured), ("without", plain))
        }
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
        daemon.stdout.close()
    if runs["with"].returncode != 0:
        print("FAIL: repro jobs with the shared secret exited "
              f"{runs['with'].returncode}:\n{runs['with'].stderr}",
              file=sys.stderr)
        return 1
    without = runs["without"]
    if (without.returncode != 1
            or "requires a shared secret" not in without.stderr):
        print("FAIL: repro jobs without the secret should exit 1 with "
              f"'requires a shared secret'; got {without.returncode}:\n"
              f"{without.stderr}", file=sys.stderr)
        return 1
    if daemon.returncode != 0:
        print(f"FAIL: secured daemon exit code {daemon.returncode}",
              file=sys.stderr)
        return 1
    print("OK: secured daemon accepted the shared secret across "
          "processes and refused a client without it")
    return 0


def _smoke(tmp: str) -> int:
    env = _env()
    archive_dir = os.path.join(tmp, "archive")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", "--archive-dir", archive_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        banner = daemon.stdout.readline()
        match = re.search(r"listening on ([\d.]+:\d+)", banner)
        if not match:
            raise RuntimeError(f"daemon failed to start: {banner!r}")
        address = match.group(1)
        print(f"daemon: {address} (archive: {archive_dir})")

        # --- leg 1: two client processes, overlapping matrices -------
        clients = [
            _submit_process(env, address, label, MATRIX)
            for label in ("one", "two")
        ]
        outputs = []
        for proc in clients:
            out, _ = proc.communicate(timeout=300)
            outputs.append(out)
            if proc.returncode != 0:
                raise RuntimeError(f"client failed:\n{out}")
        job_ids = [_job_id(out) for out in outputs]
        print(f"jobs: {', '.join(job_ids)}")

        reports = [
            _result(env, address, job_id,
                    os.path.join(tmp, f"{job_id}.json"))
            for job_id in job_ids
        ]
        sims = sorted(
            report["counters"]["num_simulations"] for report in reports
        )
        print(f"num_simulations: {sims}")
        if not (sims[0] == 0 and sims[1] > 0):
            print("FAIL: expected the second job to be served entirely "
                  f"from the shared cache, got {sims}", file=sys.stderr)
            return 1
        cells = [
            [s["report"]["layer_stats"] for s in report["scenarios"]]
            for report in reports
        ]
        if cells[0] != cells[1]:
            print("FAIL: cached job diverged from the simulated one",
                  file=sys.stderr)
            return 1
        print("OK: overlap deduped through the shared cache, "
              "bit-identical results")
        for job_id in job_ids:
            archived = os.path.join(archive_dir, f"{job_id}.json")
            with open(archived, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            if len(lines) != 1:
                print(f"FAIL: archive {archived} spans {len(lines)} "
                      "lines, expected one line of compact JSON",
                      file=sys.stderr)
                return 1
            json.loads(lines[0])
            diff = json.loads(_cli(
                env, "report", "diff", archived,
                os.path.join(tmp, f"{job_id}.json"), "--json",
            ))
            if not diff["zero"]:
                print(f"FAIL: archive {archived} differs from the "
                      f"CLI-written report: {diff}", file=sys.stderr)
                return 1
        print("OK: archives are one line of JSON and diff zero against "
              "the indented --report-json files")

        # --- leg 1b: resubmit the plan; the session kept its engines -
        cached_id = job_ids[[
            report["counters"]["num_simulations"] for report in reports
        ].index(0)]
        again_id = _job_id(_cli(
            env, "submit", "--connect", address, "--watch",
            "--label", "again", *MATRIX,
        ))
        archived = {
            job_id: Path(archive_dir, f"{job_id}.json").read_bytes()
            for job_id in (cached_id, again_id)
        }
        again = json.loads(archived[again_id])
        if again["counters"]["num_simulations"] != 0:
            print(f"FAIL: resubmitted job {again_id} simulated "
                  f"{again['counters']['num_simulations']} layers",
                  file=sys.stderr)
            return 1
        if archived[again_id] != archived[cached_id]:
            print(f"FAIL: resubmitted job {again_id}'s archive differs "
                  f"from {cached_id}'s", file=sys.stderr)
            return 1
        print(f"OK: resubmitted plan ({again_id}) simulated nothing and "
              f"archived the same bytes as {cached_id}")

        # --- leg 2: cancel a queued job, resume from the archive -----
        from repro.serve import ServeClient
        from repro.sweep import SweepPlan
        from repro.session import SessionConfig

        with ServeClient(address) as client:
            blocker = client.submit(
                SweepPlan.matrix(SessionConfig(), models=BLOCKER_MODELS,
                                 axes=BLOCKER_AXES),
                label="blocker",
            )
            victim = client.submit(
                SweepPlan.matrix(SessionConfig(), models=["mlp", "lenet"],
                                 axes={"ms_size": [128, 256]}),
                label="victim",
            )
            client.cancel(victim["id"])
            state = client.wait(victim["id"], timeout=60)["state"]
            if state != "cancelled":
                print(f"FAIL: cancelled queued job is {state}",
                      file=sys.stderr)
                return 1
            client.wait(blocker["id"], timeout=300)
        print(f"cancelled {victim['id']} while queued")

        archive = os.path.join(archive_dir, f"{job_ids[0]}.json")
        resume_out = _cli(
            env, "submit", "--connect", address, "--watch",
            "--label", "resumed", "--resume", archive, *RESUME_MATRIX,
        )
        resumed_id = _job_id(resume_out)
        report = _result(env, address, resumed_id,
                         os.path.join(tmp, "resumed.json"))
        resumed = report["counters"].get("resumed_scenarios", 0)
        names = [s["name"] for s in report["scenarios"]]
        print(f"resumed job {resumed_id}: {resumed} adopted, "
              f"scenarios: {names}")
        if resumed != 2 or len(names) != 4:
            print("FAIL: expected exactly the 2 overlapping scenarios "
                  f"(ms_size=128) adopted out of 4, got {resumed} of "
                  f"{len(names)}", file=sys.stderr)
            return 1
        print("OK: resume adopted the config-hash overlap and re-ran "
              "only the missing scenarios")
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()

    tail = daemon.stdout.read()
    if daemon.returncode != 0:
        print(f"FAIL: daemon exit code {daemon.returncode}:\n{tail}",
              file=sys.stderr)
        return 1
    if "sweep service stopped" not in tail:
        print(f"FAIL: no graceful shutdown message:\n{tail}",
              file=sys.stderr)
        return 1
    print("OK: daemon drained and exited 0 on SIGTERM")

    # --- leg 3: shared-secret handshake across processes -------------
    return _secured_leg(env, tmp)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        return _smoke(tmp)


if __name__ == "__main__":
    raise SystemExit(main())
