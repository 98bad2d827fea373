"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402

SPEC = run.load_spec()


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOAD_NAMES:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            prefix = f"{workload} {metric['name']} = "
            emitted = [line for line in lines if line.startswith(prefix)]
            assert any(f" {metric['unit']} (n=" in line for line in emitted), prefix


def test_percentiles_omit_p90_below_100_samples():
    assert set(run.op_percentiles([0.1] * 99)) == {"op_p50_s"}
    full = run.op_percentiles([float(i) for i in range(1, 101)])
    assert full["op_p50_s"] == 50.5
    assert 90.0 < full["op_p90_s"] <= 91.0


def test_scale_counts_samples_taken_while_a_child_is_busy():
    scale = run.Scale()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.2)
        for _ in range(20):
            scale.sample()
    finally:
        child.kill()
        child.wait()
    assert scale.busy_pct() > 50


def test_run_length_is_fixed_by_the_benchmark():
    with pytest.raises(SystemExit, match="run_seconds"):
        run.main(["--workload", "graph_run", "--seconds", "5"])


class Counting(Workload):
    """Ops return instantly; op 3 raises and op 5 fails its check."""

    name = "counting"
    round_size = 4

    def run_op(self, index):
        return Outcome(results=2, value=index)

    def check(self, index, outcome):
        if outcome.value == 5:
            raise workloads.CheckFailed("wrong output")


def test_failing_op_counts_and_does_not_abort(monkeypatch, tmp_path):
    def run_op(self, index):
        if index == 3:
            raise RuntimeError("boom")
        return Outcome(results=2, value=index)

    monkeypatch.setattr(Counting, "run_op", run_op)
    m = run.measure(Counting(0, tmp_path), seconds=0.0, min_ops=10)
    assert m.attempted == 12  # three whole rounds
    assert sorted(m.failures) == [3, 5]
    assert "RuntimeError: boom" in m.failures[3]
    assert len(m.times) == 10 and m.results == 20


def _span(name, cat, dur, self_s, lane="MainThread"):
    return {"name": name, "cat": cat, "lane": lane, "ts": 0.0, "dur": dur,
            "self": self_s, "depth": 0, "kind": "span", "args": {}}


def test_self_time_and_coverage_on_synthetic_spans():
    trace = [
        _span("bench.op", "bench", 1.0, 0.1),
        _span("session.run", "session", 0.9, 0.2),
        _span("GraphExecutor.run", "runtime", 0.7, 0.3),
        _span("StatsCache.get", "cache", 0.4, 0.4),
        _span("scheduler.chunk", "scheduler", 0.5, 0.5, lane="slot-0"),
        _span("other.thread", "engine", 0.3, 0.3, lane="Thread-7"),
        {**_span("cache.evict", "cache", 0.0, 0.0), "kind": "instant"},
    ]
    b = spans.op_breakdown(trace, "MainThread")
    assert b["wall_s"] == 1.0 and b["root_self_s"] == 0.1
    assert b["session.self_s"] == 0.2 and b["runtime.self_s"] == 0.3
    assert b["cache.self_s"] == 0.4 and b["cache.calls"] == 1
    assert "engine.self_s" not in b  # off-thread work is not op self time
    assert b["slots.busy_s"] == 0.5
    assert spans.coverage(b) == pytest.approx(0.9)
    selves = sum(v for k, v in b.items() if k.endswith(".self_s"))
    assert selves + b["root_self_s"] == pytest.approx(b["wall_s"])

    m = run.Measurement(breakdown=b, traced_ops=1)
    values = run.per_layer_metrics(m, {})
    assert values["unattributed_pct"] == pytest.approx(10.0)
    assert values["cache.get_pct"] == pytest.approx(40.0)
    assert values["trace.coverage"] == pytest.approx(0.9)
    assert {metric["name"] for metric in SPEC["per_layer"]} == set(values)


def test_same_seed_same_ops_and_digests():
    from repro.session import Session

    first = workloads.hardware_points(random.Random(7))
    assert first == workloads.hardware_points(random.Random(7))
    assert first != workloads.hardware_points(random.Random(8))
    triples = {(p["ms_size"], p["dn_bw"], p["rn_bw"]) for p in first}
    assert len(triples) == len(first)  # no MAERI/SIGMA point repeats

    def digests():
        with Session(executor="serial") as session:
            return [
                workloads.sweep_digests(
                    session.sweep(workloads.sweep_plan(session.config, point))
                )
                for point in first[:2]
            ]

    assert digests() == digests()

    tunes = [workloads.Fig11Tune(3, Path("."), traced=False) for _ in range(2)]
    for tune in tunes:
        tune.setup()
        tune.close()
    ops = range(400)
    assert [tunes[0].tuner_seed(i) for i in ops] == [tunes[1].tuner_seed(i) for i in ops]
    for i in ops:  # no op tunes a layer with its known failing seed
        seed, layer = tunes[0].tuner_seed(i), tunes[0].layers[i % 8].name
        assert workloads.KNOWN_FAILURES.get(seed) != layer


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph_run", "--seed",
         "0", "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(tmp_path), timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
