"""The content-addressed simulation-stats cache (LRU-bounded) and its
disk-persistent variant.

Keys are produced by :func:`repro.engine.evaluation.evaluation_key`;
values are :class:`~repro.stonne.stats.SimulationStats`.  Records are
frozen, so every tier stores and returns the very object it was given:
no consumer can change a cached record, and a hit costs no copy.

:class:`PersistentStatsCache` adds an append-only JSONL spill: every new
record is appended to disk as one line, and opening a cache on an
existing file warm-starts it with everything previously measured — so
tuning sessions resume warm across processes and a fleet of workers can
share one measurement history.  The keys are already content-addressed
(config/params digest plus structural layer/mapping tuples of plain
scalars), so they round-trip through JSON exactly: tuples become lists
on the way out and are frozen back into tuples on the way in.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.obs.trace import TRACER
from repro.stonne.stats import SimulationStats

#: The one JSON encoder for persisted keys and records: ``json.dumps(obj,
#: default=str)`` builds an equal encoder per call.
ENCODER = json.JSONEncoder(default=str)

#: Default maximum number of cached records.  A record is a few hundred
#: bytes, so the default bound stays in the low tens of megabytes.
DEFAULT_MAX_ENTRIES = 65536


class StatsCache:
    """Thread-safe LRU cache of simulation statistics.

    Args:
        max_entries: LRU bound; the least recently used record is evicted
            once the cache grows past it.  Must be positive.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._records: "OrderedDict[Hashable, SimulationStats]" = OrderedDict()

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[SimulationStats]:
        """The cached (shared, immutable) stats for ``key``, or None.

        Counts a hit or a miss and refreshes the entry's LRU position.
        """
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.misses += 1
                return None
            self._records.move_to_end(key)
            self.hits += 1
            return record

    def get_many(
        self, keys: Sequence[Hashable]
    ) -> List[Optional[SimulationStats]]:
        """The cached stats for every key, in order (None for a miss).

        Reads as a loop of :meth:`get` would, with one exception: a key
        that missed is not asked again within the call, so its repeats
        are None and uncounted.  That is what the engine's planner
        needs: it parks the repeats of a miss behind its first
        occurrence.  The engine looks up each plan's keys in one call,
        so a tier with a costly read (the SQLite tier's query) can
        batch them; this default is a plain loop.
        """
        results: List[Optional[SimulationStats]] = []
        missed: set = set()
        for key in keys:
            record = None if key in missed else self.get(key)
            if record is None:
                missed.add(key)
            results.append(record)
        return results

    def put(self, key: Hashable, stats: SimulationStats) -> None:
        """Store ``stats`` under ``key``, evicting LRU overflow."""
        with self._lock:
            self._records[key] = stats
            self._records.move_to_end(key)
            evicted = 0
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)
                evicted += 1
            if evicted:
                self.evictions += evicted
                if TRACER.enabled:
                    TRACER.instant(
                        "cache.evict", category="cache",
                        tier="memory", count=evicted)

    def put_many(
        self, items: Iterable[Tuple[Hashable, SimulationStats]]
    ) -> None:
        """Store every ``(key, stats)`` pair, in order, as ``put`` would.

        The engine hands each merge's results over in one call, so a
        tier with a costly write (the SQLite tier's commit) can batch
        them; this default is a plain loop.
        """
        for key, stats in items:
            self.put(key, stats)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every record and reset the counters."""
        with self._lock:
            self._records.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def counters(self) -> Tuple[int, int]:
        """(hits, misses) as a snapshot tuple."""
        return self.hits, self.misses

    def tier_counters(self) -> "Dict[str, int]":
        """Per-tier lookup accounting.

        The base in-memory cache has one tier, so every hit is an L1
        hit.  Persistent subclasses extend this with their second tier
        (``db_hits`` for SQLite fallthrough, ``warm_entries`` for the
        JSONL warm start) — the distinction ``hits``/``misses`` alone
        cannot make.
        """
        return {
            "l1_hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# ----------------------------------------------------------------------
# disk persistence
# ----------------------------------------------------------------------
def _freeze(value):
    """Recursively turn JSON lists back into the tuples they were."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


class PersistentStatsCache(StatsCache):
    """A :class:`StatsCache` with an append-only JSONL spill file.

    Opening a cache on an existing file loads every record it holds
    (warm start); every *new* key stored afterwards is appended as one
    ``{"key": ..., "stats": ...}`` line and flushed, so a crash loses at
    most the line being written — and a truncated or corrupt tail line
    is skipped on the next load rather than poisoning the file.

    Appends are single ``write`` calls on a file opened in append mode,
    so several engine processes may share one path: the kernel serializes
    the appends, and duplicate keys (two processes measuring the same
    thing) are harmless — the last record wins on load, and records are
    deterministic functions of their key anyway.

    The LRU bound applies to the in-memory tier only; the spill file is
    append-only history.  Re-storing a key already on disk does not
    rewrite it (records are content-addressed, so the bytes would be
    identical).

    Args:
        path: The JSONL spill file; created (with parents) when missing.
        max_entries: In-memory LRU bound, as for :class:`StatsCache`.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        super().__init__(max_entries=max_entries)
        self.path = Path(path)
        self.warm_entries = 0
        self._persisted: set = set()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load()
        self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Warm-start from the spill file (counters untouched)."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = _freeze(record["key"])
                    stats = SimulationStats.from_dict(record["stats"])
                except (ValueError, KeyError, TypeError):
                    continue  # truncated tail or foreign line; skip
                self._records[key] = stats
                self._records.move_to_end(key)
                self._persisted.add(key)
                # The LRU bound applies to memory only; evicted keys stay
                # in _persisted because their lines remain on disk.
                while len(self._records) > self.max_entries:
                    self._records.popitem(last=False)
        self.warm_entries = len(self._records)

    def put(self, key: Hashable, stats: SimulationStats) -> None:
        """Store ``stats`` and append new keys to the spill."""
        with self._lock:
            self._records[key] = stats
            self._records.move_to_end(key)
            evicted = 0
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)
                evicted += 1
            if evicted:
                self.evictions += evicted
                if TRACER.enabled:
                    TRACER.instant(
                        "cache.evict", category="cache",
                        tier="jsonl-l1", count=evicted)
            if key not in self._persisted:
                line = ENCODER.encode({"key": key, "stats": stats.to_dict()})
                self._file.write(line + "\n")
                self._file.flush()
                self._persisted.add(key)

    def clear(self) -> None:
        """Drop the in-memory tier and truncate the spill file."""
        with self._lock:
            self._records.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._persisted.clear()
            self.warm_entries = 0
            self._file.truncate(0)
            self._file.seek(0)

    def tier_counters(self) -> Dict[str, int]:
        """Per-tier accounting; the JSONL spill is read once at open, so
        its contribution is the warm start rather than live fallthrough."""
        counters = super().tier_counters()
        counters["warm_entries"] = self.warm_entries
        return counters

    def compact(self) -> Tuple[int, int]:
        """Rewrite the spill keeping only live, deduplicated records.

        The spill is append-only, so a long-lived fleet cache accretes
        duplicate lines (several processes measuring the same key) and
        corrupt tails from crashes.  Compaction re-reads the file,
        keeps the *last* record per key (records are deterministic, so
        any survivor is correct), rewrites them to a temporary file and
        atomically replaces the spill — a crash mid-compaction leaves
        the original intact.  Safe to call on a live cache: the append
        handle is reopened on the new file.

        Returns:
            ``(kept, dropped)`` line counts.
        """
        with self._lock:
            self._file.flush()
            live: "OrderedDict[str, str]" = OrderedDict()
            total = 0
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    total += 1
                    try:
                        record = json.loads(line)
                        encoded = json.dumps(record["key"], default=str)
                        SimulationStats.from_dict(record["stats"])
                    except (ValueError, KeyError, TypeError):
                        continue  # corrupt line: dropped by compaction
                    # Last write wins; re-append to keep file order stable.
                    live.pop(encoded, None)
                    live[encoded] = line
            tmp_path = self.path.with_name(self.path.name + ".compact.tmp")
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for line in live.values():
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._file.close()
            os.replace(tmp_path, self.path)
            self._file = open(self.path, "a", encoding="utf-8")
            self._persisted = {_freeze(json.loads(k)) for k in live}
            return len(live), total - len(live)

    def close(self) -> None:
        """Flush and close the spill file (the cache stays readable)."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "PersistentStatsCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort flush on GC
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# tier dispatch
# ----------------------------------------------------------------------
#: Path suffixes that select the shared SQLite tier.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def make_stats_cache(
    path: Union[str, os.PathLike],
    max_entries: int = DEFAULT_MAX_ENTRIES,
    max_rows: Optional[int] = None,
) -> StatsCache:
    """The persistent cache tier for ``path``, dispatched by extension.

    ``.sqlite``/``.sqlite3``/``.db`` paths get the shared
    :class:`~repro.engine.sqlite_cache.SqliteStatsCache` (WAL mode —
    concurrent processes see each other's inserts mid-sweep); anything
    else gets the append-only JSONL :class:`PersistentStatsCache`
    (warm start across runs).  This is the single rule behind the CLI's
    ``--cache-path`` and the worker daemon's local cache.

    ``max_rows`` bounds the SQLite tier with LRU eviction
    (``--cache-max-rows``); the JSONL spill is append-only history and
    ignores it — bound that tier with ``compact()`` instead.
    """
    suffix = Path(path).suffix.lower()
    if suffix in SQLITE_SUFFIXES:
        from repro.engine.sqlite_cache import SqliteStatsCache

        return SqliteStatsCache(path, max_entries=max_entries, max_rows=max_rows)
    return PersistentStatsCache(path, max_entries=max_entries)
