"""Unit tests for :mod:`repro.obs` — the span tracer and the metrics
registry.

The tracer tests run against *local* ``Tracer`` instances so they can
never leak enabled-state into the process-global ``TRACER`` other
tests (and the <2% overhead contract) depend on; the few tests that
need the global go through an enable/disable fixture.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    CATEGORIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TRACE_VERSION,
    Tracer,
    chrome_events,
    read_trace,
    spans_from_document,
    summarize_spans,
    trace_document,
    write_trace,
)
from repro.obs.trace import _NULL_SPAN


# ----------------------------------------------------------------------
# tracer: disabled fast path
# ----------------------------------------------------------------------
class TestDisabledTracer:
    def test_span_returns_cached_null_span(self):
        tracer = Tracer()
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b", category="cache", lane="x") is _NULL_SPAN

    def test_null_span_is_reusable_context_manager(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            # set() is chainable and a no-op
            assert span.set(items=3) is span
            with tracer.span("b"):
                pass
        assert len(tracer) == 0

    def test_instant_and_add_span_noop_when_disabled(self):
        tracer = Tracer()
        tracer.instant("evict", category="cache")
        tracer.add_span("w", "fleet", "lane", start=0.0, duration=1.0)
        assert tracer.spans() == []

    def test_exception_passes_through_null_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError("boom")


# ----------------------------------------------------------------------
# tracer: recording
# ----------------------------------------------------------------------
class TestSpanRecording:
    def test_nesting_depth_and_self_time(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", category="session"):
            with tracer.span("inner", category="engine"):
                pass
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["depth"] == 0
        # Parent self-time excludes the child's duration.
        assert spans["outer"]["self"] <= spans["outer"]["dur"]
        assert spans["outer"]["self"] == pytest.approx(
            spans["outer"]["dur"] - spans["inner"]["dur"]
        )
        # Children record before parents (exit order).
        assert [s["name"] for s in tracer.spans()] == ["inner", "outer"]

    def test_attrs_start_and_set(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("s", category="sweep", items=3) as span:
            span.set(hits=2)
        (span,) = tracer.spans()
        assert span["args"] == {"items": 3, "hits": 2}
        assert span["cat"] == "sweep"
        assert span["kind"] == "span"
        assert span["ts"] >= 0.0

    def test_exception_sets_error_attr_and_propagates(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span["args"]["error"] == "RuntimeError"

    def test_explicit_lane_beats_thread_name(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a", lane="slot-7"):
            pass
        with tracer.span("b"):
            pass
        lanes = {s["name"]: s["lane"] for s in tracer.spans()}
        assert lanes["a"] == "slot-7"
        assert lanes["b"] == threading.current_thread().name

    def test_instant_event(self):
        tracer = Tracer()
        tracer.enable()
        tracer.instant("cache.evict", category="cache", count=4)
        (event,) = tracer.spans()
        assert event["kind"] == "instant"
        assert event["dur"] == 0.0
        assert event["args"] == {"count": 4}

    def test_add_span_places_external_timing(self):
        tracer = Tracer()
        tracer.enable()
        tracer.add_span(
            "fleet.worker", "fleet", "fleet-w0",
            start=tracer._epoch + 1.0, duration=0.25,
            attrs={"pid": 42},
        )
        (span,) = tracer.spans()
        assert span["ts"] == pytest.approx(1.0)
        assert span["dur"] == pytest.approx(0.25)
        assert span["lane"] == "fleet-w0"
        assert span["args"]["pid"] == 42

    def test_enable_clears_previous_spans(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("old"):
            pass
        tracer.enable()
        assert tracer.spans() == []

    def test_thread_safety_and_per_thread_nesting(self):
        tracer = Tracer()
        tracer.enable()
        threads, errors = [], []

        def work(idx):
            try:
                for _ in range(50):
                    with tracer.span(f"outer-{idx}"):
                        with tracer.span(f"inner-{idx}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        for idx in range(8):
            threads.append(threading.Thread(target=work, args=(idx,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.spans()
        assert len(spans) == 8 * 50 * 2
        # Nesting depth is per-thread: every inner is depth 1, every
        # outer depth 0, regardless of interleaving across threads.
        for span in spans:
            expected = 1 if span["name"].startswith("inner") else 0
            assert span["depth"] == expected


# ----------------------------------------------------------------------
# chrome export + file round-trip
# ----------------------------------------------------------------------
def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    with tracer.span("session.run", category="session"):
        with tracer.span("scheduler.chunk", category="scheduler",
                         lane="slot-0", items=4):
            pass
    tracer.instant("cache.evict", category="cache", count=1)
    return tracer


class TestChromeExport:
    def test_event_structure(self):
        tracer = _sample_tracer()
        events = chrome_events(tracer.spans())
        phases = sorted(e["ph"] for e in events)
        # 2 complete spans + 1 instant + thread_name metadata
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        assert phases.count("M") >= 1
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        complete = [e for e in events if e["ph"] == "X"]
        for event in complete:
            assert event["dur"] >= 0  # microseconds
            assert event["cat"] in CATEGORIES
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert names == {"thread_name"}

    def test_lanes_get_distinct_tids(self):
        tracer = _sample_tracer()
        events = chrome_events(tracer.spans())
        metadata = {
            e["args"]["name"]: e["tid"]
            for e in events if e["ph"] == "M"
        }
        assert "slot-0" in metadata
        assert len(set(metadata.values())) == len(metadata)

    def test_write_read_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        spans = tracer.spans()
        path = tmp_path / "trace.json"
        write_trace(str(path), spans, metrics={"cache": {"hit_rate": 0.5}},
                    meta={"arch": "maeri"})
        doc = read_trace(str(path))
        assert doc["reproTrace"]["version"] == TRACE_VERSION
        assert doc["reproTrace"]["metrics"]["cache"]["hit_rate"] == 0.5
        assert doc["reproTrace"]["meta"]["arch"] == "maeri"
        assert spans_from_document(doc) == json.loads(json.dumps(spans))
        # The same file is a loadable Chrome trace.
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"

    def test_spans_from_plain_chrome_document(self):
        # A trace exported elsewhere (no reproTrace section) still
        # yields spans for the summary, minus self-time precision.
        tracer = _sample_tracer()
        doc = {"traceEvents": chrome_events(tracer.spans())}
        spans = spans_from_document(doc)
        names = {s["name"] for s in spans}
        assert {"session.run", "scheduler.chunk", "cache.evict"} <= names

    def test_summary_renders_spans_and_metrics(self):
        tracer = _sample_tracer()
        text = summarize_spans(
            tracer.spans(),
            metrics={
                "simulations_per_s": 1234.0,
                "cache": {
                    "hit_rate": 0.25,
                    "tiers": {"l1_hits": 1, "misses": 3},
                },
            },
        )
        assert "session.run" in text
        assert "scheduler.chunk" in text
        assert "slot-0" in text
        assert "25.0%" in text
        assert "l1_hits=1" in text
        assert "1,234 simulations/s" in text


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        registry.histogram("h").observe(0.5)
        registry.histogram("h").observe(5.0)
        assert registry.value("c") == 5
        assert registry.value("g") == 7
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 7}
        hist = snap["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["min"] == 0.05 and hist["max"] == 5.0
        assert sum(hist["buckets"].values()) == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.counter("scheduler.steals").inc(2)
        registry.counter("scheduler.chunks_pulled").inc(1)
        registry.counter("fleet.shards").inc(9)
        assert registry.counters_with_prefix("scheduler.") == {
            "steals": 2, "chunks_pulled": 1,
        }

    def test_instrument_classes_standalone(self):
        c, g = Counter("a"), Gauge("b")
        c.inc(3)
        g.set(1.5)
        g.inc(0.5)
        assert c.value == 3 and g.value == 2.0
        h = Histogram("c", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        assert h.count == 2
        assert h.total == pytest.approx(2.5)

    def test_concurrent_increments(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("n").inc()
                registry.histogram("lat").observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("n") == 8000
        assert registry.get("lat").count == 8000
