"""Typed metrics registry: counters, gauges, histograms.

Producers get-or-create named instruments (`counter` / `gauge` /
`histogram`); consumers take a point-in-time
:meth:`MetricsRegistry.snapshot` that serialises straight into report
JSON.  All instruments are thread-safe — scheduler puller threads and
fleet shard threads write concurrently.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds (seconds) for latency-style
#: observations such as scheduler chunk service time.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Counter:
    """Monotonically increasing value (ints or float totals)."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins value (fleet worker health, pool width...)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; observations above the
    last bound land in the implicit ``inf`` bucket.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 buckets: Optional[Iterable[float]] = None) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None
                   else DEFAULT_LATENCY_BUCKETS))
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            low = self._min
            high = self._max
        labels = [repr(bound) for bound in self.buckets] + ["inf"]
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": low if count else 0.0,
            "max": high if count else 0.0,
            "buckets": dict(zip(labels, counts)),
        }


class MetricsRegistry:
    """Thread-safe, get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {kind}")
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets), "histogram")

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def value(self, name: str, default: float = 0) -> float:
        instrument = self.get(name)
        if instrument is None or instrument.kind == "histogram":
            return default
        return instrument.value

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """Counter values under ``prefix``, keyed by the stripped tail."""
        out: Dict[str, float] = {}
        with self._lock:
            items = list(self._instruments.items())
        for name, instrument in items:
            if instrument.kind == "counter" and name.startswith(prefix):
                out[name[len(prefix):]] = instrument.value
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time, JSON-ready view of every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        out: Dict[str, Any] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in sorted(items):
            out[instrument.kind + "s"][name] = instrument.snapshot()
        return out
