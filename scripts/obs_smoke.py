#!/usr/bin/env python
"""Observability smoke test: spans for every local tier + cheap off-mode.

Runs a 2-scenario sweep over the process executor (2 workers and a
chunk size of 1, so every group goes through the pull scheduler's
slots) with tracing enabled and asserts:

* the trace file is valid Chrome trace-event JSON *and* carries the
  lossless ``reproTrace`` section;
* every local stack tier emitted at least one span — ``session``,
  ``sweep``, ``engine``, ``scheduler`` (on ``slot-*`` lanes) and
  ``cache`` — so an instrumentation point silently falling out of the
  code path fails CI, not a later debugging session;
* ``repro trace summary`` renders the span/self-time table;
* disabled tracing stays cheap at smoke scale: the no-op span cost
  (measured per call, times the number of events an enabled run
  records) is under 5% of the disabled run's wall time.  The full-scale
  <2% contract lives in ``benchmarks/bench_obs_overhead.py``; this is
  the fast CI proxy computed the same analytic way, which cannot flake
  on machine noise the way two racing wall-clock runs would.

Exits non-zero on any failure, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

REQUIRED_TIERS = {"session", "sweep", "engine", "scheduler", "cache"}

SWEEP_ARGS = [
    "sweep", "--models", "mlp,lenet",
    "--executor", "process", "--max-workers", "2", "--chunk-size", "1",
]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def _run_cli(args: list, env: dict) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args,
        capture_output=True, text=True, env=env, timeout=300,
    )
    if result.returncode != 0:
        print(result.stdout)
        print(result.stderr, file=sys.stderr)
        raise SystemExit(f"FAIL: repro {' '.join(args)} exited "
                         f"{result.returncode}")
    return result.stdout


def check_trace_coverage(env: dict, workdir: str) -> None:
    trace_path = os.path.join(workdir, "smoke_trace.json")
    out = _run_cli(
        SWEEP_ARGS + ["--trace", "--trace-path", trace_path, "--metrics"],
        env,
    )
    if "trace written to" not in out:
        raise SystemExit("FAIL: sweep did not report the trace path")
    with open(trace_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc.get("traceEvents"), list) or not doc["traceEvents"]:
        raise SystemExit("FAIL: trace file has no Chrome traceEvents")
    spans = doc.get("reproTrace", {}).get("spans", [])
    categories = {span["cat"] for span in spans}
    missing = REQUIRED_TIERS - categories
    if missing:
        raise SystemExit(
            f"FAIL: no spans from tier(s) {sorted(missing)}; "
            f"got categories {sorted(categories)}"
        )
    slot_lanes = {
        span["lane"] for span in spans
        if span["cat"] == "scheduler" and span["lane"].startswith("slot-")
    }
    if len(slot_lanes) < 2:
        raise SystemExit(
            f"FAIL: expected >=2 scheduler slot lanes, got {slot_lanes}"
        )
    print(f"ok: {len(spans)} spans cover {sorted(categories)} "
          f"across {len(slot_lanes)} slot lanes")

    summary = _run_cli(["trace", "summary", trace_path], env)
    for needle in ("span", "self s", "slot utilization"):
        if needle not in summary:
            raise SystemExit(
                f"FAIL: trace summary is missing {needle!r}:\n{summary}"
            )
    print("ok: trace summary renders spans and slot utilization")


def check_disabled_overhead() -> None:
    from repro.obs import get_tracer
    from repro.session import Session
    from repro.sweep import SweepPlan

    tracer = get_tracer()

    # Cost of one disabled call site: enabled-check + cached null span.
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with tracer.span("noop", category="scheduler", lane="slot-0"):
            pass
    per_call_s = (time.perf_counter() - start) / calls

    # How many events a traced smoke run records, and how long the
    # untraced equivalent takes.
    with Session(executor="process", max_workers=2, trace=True) as session:
        session._trace_owner = False  # keep the file out of CI's cwd
        plan = SweepPlan.matrix(session.config, models=["mlp", "lenet"])
        session.sweep(plan)
        events = len(tracer.spans())
    tracer.disable()
    tracer.clear()

    start = time.perf_counter()
    with Session(executor="process", max_workers=2) as session:
        plan = SweepPlan.matrix(session.config, models=["mlp", "lenet"])
        session.sweep(plan)
    disabled_wall_s = time.perf_counter() - start

    overhead = (per_call_s * events) / disabled_wall_s
    print(f"ok: disabled tracing {per_call_s * 1e9:.0f} ns/span x "
          f"{events} events = {overhead:.3%} of {disabled_wall_s:.2f}s "
          f"(limit 5%)")
    if overhead >= 0.05:
        raise SystemExit(
            f"FAIL: disabled-mode overhead {overhead:.3%} >= 5% at "
            f"smoke scale"
        )


def main() -> int:
    env = _env()
    with tempfile.TemporaryDirectory() as workdir:
        check_trace_coverage(env, workdir)
    check_disabled_overhead()
    print("observability smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        ),
    )
    raise SystemExit(main())
