"""Tests for the persistent cache tiers: SQLite sharing and JSONL compaction.

The headline property of the SQLite tier is *mid-sweep* sharing: two
processes pointed at one ``.sqlite`` file observe each other's inserts
while both are still running — which the JSONL spill (read once at
open) cannot do.
"""

import json
import os
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EvaluationEngine,
    PersistentStatsCache,
    SqliteStatsCache,
    StatsCache,
    make_stats_cache,
)
from repro.engine.sqlite_cache import encode_key
from repro.stonne.config import maeri_config
from repro.stonne.layer import ConvLayer
from repro.stonne.mapping import ConvMapping
from repro.stonne.stats import SimulationStats

CONFIG = maeri_config()


def _stats(cycles=100, name="layer"):
    return SimulationStats(
        layer_name=name,
        controller="maeri",
        cycles=cycles,
        psums=10,
        macs=1000,
        iterations=4,
        multipliers_used=8,
        array_size=128,
        phase_cycles={"fill": 2, "steady": cycles - 2},
    )


KEY = ("fp", "ConvLayer", (1, 2, (3, 4)), "ConvMapping", (1, 1, 1, 1))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    @pytest.mark.parametrize("name", ["c.sqlite", "c.sqlite3", "c.db"])
    def test_sqlite_suffixes(self, tmp_path, name):
        cache = make_stats_cache(tmp_path / name)
        assert isinstance(cache, SqliteStatsCache)
        cache.close()

    @pytest.mark.parametrize("name", ["c.jsonl", "c.cache", "plain"])
    def test_everything_else_is_jsonl(self, tmp_path, name):
        cache = make_stats_cache(tmp_path / name)
        assert isinstance(cache, PersistentStatsCache)
        assert not isinstance(cache, SqliteStatsCache)
        cache.close()


# ----------------------------------------------------------------------
# sqlite tier
# ----------------------------------------------------------------------
class TestSqliteStatsCache:
    def test_round_trip_and_copy_isolation(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            got = cache.get(KEY)
            assert got.to_dict() == _stats().to_dict()
            with pytest.raises(FrozenInstanceError):
                got.cycles = 1  # the cache hands out its own record
            assert cache.get(KEY).cycles == 100

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as first:
            first.put(KEY, _stats())
        with SqliteStatsCache(path) as second:
            assert second.get(KEY).cycles == 100
            assert second.disk_entries() == 1

    def test_concurrent_instances_see_each_others_inserts(self, tmp_path):
        """Two live caches on one file: an insert through one is a hit
        through the other, with no reopen — the mid-sweep property."""
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as a, SqliteStatsCache(path) as b:
            a.put(("from-a",), _stats(cycles=7))
            b.put(("from-b",), _stats(cycles=9))
            assert b.get(("from-a",)).cycles == 7
            assert a.get(("from-b",)).cycles == 9

    def test_l1_miss_falls_through_and_counts(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as writer:
            writer.put(KEY, _stats())
        with SqliteStatsCache(path) as reader:
            assert reader.get(("absent",)) is None
            assert reader.get(KEY) is not None
            assert (reader.hits, reader.misses) == (1, 1)

    def test_l1_bound_does_not_lose_disk_records(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite", max_entries=2) as cache:
            for i in range(5):
                cache.put((i,), _stats(cycles=i + 1))
            assert len(cache) <= 2  # in-memory L1 respects the bound
            assert cache.disk_entries() == 5
            for i in range(5):  # every record still served (from disk)
                assert cache.get((i,)).cycles == i + 1

    def test_clear_drops_both_tiers(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            cache.clear()
            assert cache.get(KEY) is None
            assert cache.disk_entries() == 0

    def test_compact_reports_live_records(self, tmp_path):
        with SqliteStatsCache(tmp_path / "c.sqlite") as cache:
            cache.put(KEY, _stats())
            cache.put(("other",), _stats())
            assert cache.compact() == (2, 0)

    def test_engine_integration(self, tmp_path):
        """An engine over the sqlite tier: second engine starts warm."""
        path = tmp_path / "c.sqlite"
        layer = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3)
        mapping = ConvMapping(T_R=3, T_S=3)
        cold_cache = SqliteStatsCache(path)
        cold = EvaluationEngine(CONFIG, cache=cold_cache)
        first = cold.evaluate(layer, mapping)
        assert cold.num_simulations == 1
        cold_cache.close()

        warm_cache = SqliteStatsCache(path)
        warm = EvaluationEngine(CONFIG, cache=warm_cache)
        second = warm.evaluate(layer, mapping)
        assert warm.num_simulations == 0  # served from the shared tier
        assert second.to_dict() == first.to_dict()
        warm_cache.close()


_WRITER_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    from repro.engine import SqliteStatsCache
    from repro.stonne.stats import SimulationStats

    path, mine, theirs, count = sys.argv[1:5]
    count = int(count)
    stats = SimulationStats(
        layer_name="l", controller="maeri", cycles=1, psums=1, macs=1,
        iterations=1, multipliers_used=1, array_size=128,
    )
    cache = SqliteStatsCache(path)
    for i in range(count):
        cache.put((mine, i), stats)
    # Wait (bounded) until every record of the *other* process is
    # visible through this live cache instance: mid-sweep sharing.
    deadline = time.monotonic() + 30
    seen = 0
    while time.monotonic() < deadline:
        seen = sum(
            1 for i in range(count) if cache.get((theirs, i)) is not None
        )
        if seen == count:
            break
        time.sleep(0.05)
    cache.close()
    print(json.dumps({"seen": seen}))
    sys.exit(0 if seen == count else 1)
    """
)


def test_two_processes_share_one_sqlite_cache(tmp_path):
    """Acceptance criterion: two concurrent *processes* sharing one
    SqliteStatsCache each observe the other's inserts within the same
    sweep (neither reopens the file)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = str(tmp_path / "shared.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    count = "25"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, path, mine, theirs, count],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for mine, theirs in (("alpha", "beta"), ("beta", "alpha"))
    ]
    # Collect both writers before asserting on either: when one fails,
    # the other usually just times out waiting for its records, and the
    # failure message must show the writer that actually broke.
    results = [(proc,) + proc.communicate(timeout=60) for proc in procs]
    report = "\n".join(
        f"writer {i}: exit {proc.returncode}\n"
        f"  stdout: {out!r}\n  stderr: {err!r}"
        for i, (proc, out, err) in enumerate(results)
    )
    for proc, out, err in results:
        assert proc.returncode == 0, f"writer failed:\n{report}"
        assert json.loads(out)["seen"] == int(count), report


def test_open_waits_out_a_concurrent_writer_on_a_fresh_file(tmp_path):
    """Switching a new file to WAL mode upgrades a read lock to a write
    lock, and SQLite fails that upgrade at once ("database is locked"),
    without the busy timeout, while another connection holds the write
    lock.  Two processes opening one fresh file together hit exactly
    this; the open must wait for the other writer instead."""
    import sqlite3
    import threading

    path = tmp_path / "fresh.sqlite"
    other = sqlite3.connect(
        str(path), isolation_level=None, check_same_thread=False
    )
    other.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, other.execute, ("COMMIT",))
    release.start()
    try:
        with SqliteStatsCache(path) as cache:
            cache.put(KEY, _stats())
            mode = cache._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
    finally:
        release.join()
        other.close()


# ----------------------------------------------------------------------
# JSONL compaction
# ----------------------------------------------------------------------
class TestCompact:
    def test_dedup_last_write_wins(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats(cycles=100))
        # A second process appending a newer record for the same key.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"key": KEY, "stats": _stats(cycles=777).to_dict()})
                + "\n"
            )
        with PersistentStatsCache(path) as cache:
            assert cache.compact() == (1, 1)
            assert cache.get(KEY).cycles == 777  # the *last* record survived
        assert len(path.read_text().strip().splitlines()) == 1

    def test_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": [1], "stats"')  # crashed mid-append
        with PersistentStatsCache(path) as cache:
            assert cache.compact() == (1, 1)

    def test_appends_keep_working_after_compact(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
            cache.compact()
            cache.put(("post-compact",), _stats(cycles=5))
        with PersistentStatsCache(path) as reopened:
            assert reopened.warm_entries == 2
            assert reopened.get(("post-compact",)).cycles == 5

    def test_compact_empty_cache(self, tmp_path):
        with PersistentStatsCache(tmp_path / "spill.jsonl") as cache:
            assert cache.compact() == (0, 0)

    def test_cli_compact_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spill.jsonl"
        with PersistentStatsCache(path) as cache:
            cache.put(KEY, _stats())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert main(["cache", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 live" in out and "1 superseded" in out

    def test_cli_compact_missing_path_errors(self, tmp_path, capsys):
        """A typo'd path must error, not create an empty cache file."""
        from repro.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main(["cache", "compact", str(missing)]) == 2
        assert "no cache file" in capsys.readouterr().err
        assert not missing.exists()

    def test_cli_compact_sqlite(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as cache:
            cache.put(KEY, _stats())
        assert main(["cache", "compact", str(path)]) == 0
        assert "1 live" in capsys.readouterr().out


# ----------------------------------------------------------------------
# sqlite LRU eviction (row-count cap)
# ----------------------------------------------------------------------
def _key(i):
    return ("fp", "ConvLayer", (i,), None, None)


class TestSqliteEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = SqliteStatsCache(tmp_path / "e.sqlite")
        for i in range(50):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 50
        assert cache.evictions == 0
        cache.close()

    def test_cap_evicts_least_recently_accessed(self, tmp_path):
        # L1 of 1 forces every get through the database tier, so the
        # shared tier's accessed_at stamps track real access order.
        cache = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1,
                                 max_rows=3)
        for i in range(3):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.get(_key(0)) is not None  # refresh key 0
        cache.put(_key(3), _stats(cycles=4))   # evicts key 1 (oldest)
        assert cache.disk_entries() == 3
        assert cache.evictions == 1
        db = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1)
        assert db.get(_key(1)) is None
        assert db.get(_key(0)) is not None
        assert db.get(_key(2)) is not None
        assert db.get(_key(3)) is not None
        db.close()
        cache.close()

    def test_fresh_write_never_evicts_itself(self, tmp_path):
        cache = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1,
                                 max_rows=1)
        for i in range(5):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 1
        db = SqliteStatsCache(tmp_path / "e.sqlite", max_entries=1)
        assert db.get(_key(4)) is not None
        db.close()
        cache.close()

    def test_pre_eviction_database_migrates(self, tmp_path):
        # A database created before the accessed_at column existed must
        # open, gain the column, and participate in eviction.
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE stats (key TEXT PRIMARY KEY, stats TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO stats (key, stats) VALUES (?, ?)",
            (json.dumps(list(_key(0)), default=str),
             json.dumps(_stats(cycles=7).to_dict())),
        )
        conn.commit()
        conn.close()

        cache = SqliteStatsCache(path, max_entries=1, max_rows=2)
        assert cache.get(_key(0)).cycles == 7  # old record readable
        cache.put(_key(1), _stats(cycles=8))
        cache.put(_key(2), _stats(cycles=9))
        # Access order was 0, 1, 2 — the cap of 2 evicts key 0.
        assert cache.disk_entries() == 2
        db = SqliteStatsCache(path, max_entries=1)
        assert db.get(_key(0)) is None
        assert db.get(_key(2)) is not None
        db.close()
        cache.close()

    def test_invalid_max_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_rows"):
            SqliteStatsCache(tmp_path / "e.sqlite", max_rows=0)

    def test_make_stats_cache_passes_cap(self, tmp_path):
        cache = make_stats_cache(tmp_path / "cap.sqlite", max_rows=2)
        assert cache.max_rows == 2
        for i in range(4):
            cache.put(_key(i), _stats(cycles=i + 1))
        assert cache.disk_entries() == 2
        cache.close()
        # The JSONL tier has no row cap (append-only history); the
        # argument must not break its construction.
        jsonl = make_stats_cache(tmp_path / "cap.jsonl", max_rows=2)
        assert not hasattr(jsonl, "max_rows")
        jsonl.close()

    def test_engine_sweep_respects_cap(self, tmp_path):
        cache = make_stats_cache(tmp_path / "sweep.sqlite", max_rows=2)
        engine = EvaluationEngine(CONFIG, cache=cache)
        layers = [
            ConvLayer(name=f"c{i}", C=1, H=4 + i, W=4 + i, K=1, R=2, S=2)
            for i in range(4)
        ]
        for layer in layers:
            engine.evaluate(layer, ConvMapping.basic())
        assert cache.disk_entries() == 2
        engine.close()
        cache.close()

    def test_uncapped_gets_are_read_only(self, tmp_path):
        # Without a row cap, gets must not write: no writer lock, no WAL
        # growth, and eviction never consults the stamp anyway.
        import sqlite3

        path = tmp_path / "ro.sqlite"
        writer = SqliteStatsCache(path)
        writer.put(_key(0), _stats(cycles=5))
        writer.close()

        reader = SqliteStatsCache(path, max_entries=1)
        assert reader.get(_key(0)) is not None
        reader.close()
        conn = sqlite3.connect(str(path))
        stamp_after_put, = conn.execute(
            "SELECT accessed_at FROM stats").fetchone()
        conn.close()
        assert stamp_after_put == 1  # the put's stamp; the get added none

    def test_l1_hits_refresh_shared_stamp_when_capped(self, tmp_path):
        # A key hot in one process's L1 must still look hot to the
        # shared tier, or other processes' eviction would drop it.
        cache = SqliteStatsCache(tmp_path / "hot.sqlite", max_rows=8)
        cache.put(_key(0), _stats(cycles=1))
        cache.put(_key(1), _stats(cycles=2))
        for _ in range(3):
            assert cache.get(_key(0)) is not None  # L1 hits after first
        stamps = dict(cache._conn.execute(
            "SELECT key, accessed_at FROM stats"))
        cache.close()
        assert stamps[json.dumps(list(_key(0)))] > stamps[
            json.dumps(list(_key(1)))]


# ----------------------------------------------------------------------
# batched writes (one transaction per put_many)
# ----------------------------------------------------------------------
class _ExitBeforeCommit:
    """Connection proxy for a forked writer: dies at COMMIT, after every
    insert of the batch has run (exit 8 if they had not)."""

    def __init__(self, conn, expect_rows):
        self._conn = conn
        self._expect_rows = expect_rows

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self):
        count = self._conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]
        os._exit(9 if count == self._expect_rows else 8)


class _FailingInserts:
    """Connection proxy: every INSERT after the first ``after`` raises."""

    def __init__(self, conn, after):
        self._conn = conn
        self._left = after

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def execute(self, sql, *args):
        if sql.startswith("INSERT"):
            if self._left == 0:
                raise sqlite3.OperationalError("disk I/O error (injected)")
            self._left -= 1
        return self._conn.execute(sql, *args)


def _rows(path):
    """Every row of a cache file, in LRU order, stamps included."""
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(
            "SELECT key, stats, accessed_at FROM stats "
            "ORDER BY accessed_at, rowid").fetchall()
    finally:
        conn.close()


class TestPutMany:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("crash", [True, False])
    def test_batch_is_atomic_across_a_writer_crash(self, tmp_path, crash):
        path = tmp_path / "atomic.sqlite"
        with SqliteStatsCache(path) as cache:
            for i in range(3):
                cache.put(_key(i), _stats(cycles=i + 1))
        batch = [(_key(i), _stats(cycles=i + 1)) for i in range(3, 8)]
        pid = os.fork()
        if pid == 0:  # the writer; never returns into pytest
            code = 0
            try:
                writer = SqliteStatsCache(path)
                if crash:
                    writer._conn = _ExitBeforeCommit(writer._conn, 8)
                writer.put_many(batch)
                writer.close()
            except BaseException:
                code = 1
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == (9 if crash else 0)
        with SqliteStatsCache(path, max_entries=1) as reader:
            assert reader.disk_entries() == (3 if crash else 8)
            seen = [reader.get(key) is not None for key, _ in batch]
        assert seen == [not crash] * len(batch)

    def test_failed_batch_rolls_back_and_the_next_commits(self, tmp_path):
        path = tmp_path / "rollback.sqlite"
        cache = SqliteStatsCache(path, max_rows=4)
        cache.put_many([(_key(i), _stats(cycles=i + 1)) for i in range(3)])
        before = _rows(path)
        batch = [(_key(i), _stats(cycles=i + 1)) for i in range(3, 7)]
        real = cache._conn
        cache._conn = _FailingInserts(real, after=2)
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            cache.put_many(batch)
        cache._conn = real
        assert not real.in_transaction
        assert cache.disk_entries() == 3
        assert _rows(path) == before
        assert cache.evictions == 0
        assert all(key not in cache._records for key, _ in batch)
        cache.put_many(batch)
        assert not real.in_transaction
        assert cache.disk_entries() == 4
        assert cache.evictions == 3
        assert [row[0] for row in _rows(path)] == [
            encode_key(key) for key, _ in batch]
        cache.close()

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9)),
                     max_size=8),
            min_size=1, max_size=3),
        max_rows=st.one_of(st.none(), st.integers(1, 5)),
        max_entries=st.integers(1, 4),
    )
    def test_equivalent_to_a_put_loop(self, batches, max_rows, max_entries):
        with tempfile.TemporaryDirectory() as tmp:
            many = SqliteStatsCache(os.path.join(tmp, "many.sqlite"),
                                    max_entries=max_entries,
                                    max_rows=max_rows)
            loop = SqliteStatsCache(os.path.join(tmp, "loop.sqlite"),
                                    max_entries=max_entries,
                                    max_rows=max_rows)
            for batch in batches:
                items = [(_key(k), _stats(cycles=c)) for k, c in batch]
                many.put_many(items)
                for key, stats in items:
                    loop.put(key, stats)
            assert _rows(many.path) == _rows(loop.path)
            assert many.evictions == loop.evictions
            assert list(many._records.items()) == list(loop._records.items())
            many.close()
            loop.close()

    def test_sweep_commits_once_per_engine_group(self, tmp_path):
        from repro.session import Session
        from repro.sweep import SweepPlan

        archs = ["maeri", "sigma", "tpu"]
        with Session(executor="process", max_workers=2,
                     cache_path=str(tmp_path / "sweep.sqlite")) as session:
            plan = SweepPlan.matrix(
                session.config, models=["mlp", "lenet", "alexnet"],
                axes={"arch": archs})
            assert len(plan.scenarios) == 9
            statements = []
            session.engine.cache._conn.set_trace_callback(statements.append)
            report = session.sweep(plan)
            session.engine.cache._conn.set_trace_callback(None)
        commits = [s for s in statements if s.strip().upper() == "COMMIT"]
        assert report.counters["num_simulations"] > len(archs)
        assert 1 <= len(commits) <= len(archs), statements


# ----------------------------------------------------------------------
# batched reads (one query per lookup group)
# ----------------------------------------------------------------------
def _loop_of_get(cache, keys):
    """What ``get_many`` must read like: a loop of ``get`` that does not
    ask again for a key that missed."""
    results, missed = [], set()
    for key in keys:
        record = None if key in missed else cache.get(key)
        if record is None:
            missed.add(key)
        results.append(record)
    return results


def _selects(cache):
    """Start recording the SELECTs a SQLite cache's connection runs."""
    statements = []
    cache._conn.set_trace_callback(
        lambda sql: statements.append(sql)
        if sql.lstrip().upper().startswith("SELECT KEY") else None)
    return statements


class _FailingStatements:
    """Connection proxy: every statement starting with ``prefix`` raises."""

    def __init__(self, conn, prefix):
        self._conn = conn
        self._prefix = prefix

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def _check(self, sql):
        if sql.lstrip().upper().startswith(self._prefix):
            raise sqlite3.OperationalError("database is locked (injected)")

    def execute(self, sql, *args):
        self._check(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, *args):
        self._check(sql)
        return self._conn.executemany(sql, *args)


class TestGetMany:
    @pytest.mark.parametrize("tier", ["memory", "jsonl", "sqlite"])
    def test_order_hits_and_misses(self, tmp_path, tier):
        cache = {
            "memory": lambda: StatsCache(),
            "jsonl": lambda: PersistentStatsCache(tmp_path / "c.jsonl"),
            "sqlite": lambda: SqliteStatsCache(tmp_path / "c.sqlite"),
        }[tier]()
        cache.put(_key(0), _stats(cycles=10))
        cache.put(_key(1), _stats(cycles=11))
        keys = [_key(1), _key(9), _key(0), _key(9), _key(1)]
        found = cache.get_many(keys)
        assert [None if s is None else s.cycles for s in found] == [
            11, None, 10, None, 11]
        # Every hit position counts; the repeated miss counts once.
        assert (cache.hits, cache.misses) == (3, 1)
        assert cache.get_many([]) == []
        getattr(cache, "close", lambda: None)()

    def test_database_hits_warm_l1_and_repeats_hit_it(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with SqliteStatsCache(path) as writer:
            writer.put_many(
                [(_key(i), _stats(cycles=i + 1)) for i in range(3)])
        with SqliteStatsCache(path) as reader:
            statements = _selects(reader)
            found = reader.get_many([_key(2), _key(0), _key(2), _key(7)])
            assert [s and s.cycles for s in found] == [3, 1, 3, None]
            assert found[0] is found[2]
            assert reader.tier_counters() == {
                "l1_hits": 1, "db_hits": 2, "misses": 1, "evictions": 0}
            assert len(statements) == 1

    def test_more_keys_than_one_query_binds(self, tmp_path):
        path = tmp_path / "wide.sqlite"
        count = 2500
        with SqliteStatsCache(path) as writer:
            writer.put_many(
                [(_key(i), _stats(cycles=i + 1)) for i in range(count)])
        with SqliteStatsCache(path, max_entries=count) as reader:
            statements = _selects(reader)
            keys = [_key(i) for i in range(count + 10)]
            found = reader.get_many(keys)
        assert [s.cycles for s in found[:count]] == list(range(1, count + 1))
        assert found[count:] == [None] * 10
        assert len(statements) == 3  # 999 + 999 + 512 distinct keys
        assert reader.db_hits == count and reader.misses == 10

    @settings(max_examples=60, deadline=None)
    @given(
        stored=st.sets(st.integers(0, 7), max_size=8),
        warm=st.lists(st.integers(0, 9), max_size=6),
        lookups=st.lists(st.integers(0, 9), max_size=12),
        max_rows=st.one_of(st.none(), st.integers(3, 8)),
        max_entries=st.integers(1, 4),
    )
    def test_reads_like_a_loop_of_get(
        self, stored, warm, lookups, max_rows, max_entries
    ):
        """Results, counters, L1 order and (capped) row stamps all match
        a loop of ``get``; the database is queried once per call."""
        with tempfile.TemporaryDirectory() as tmp:
            caches = []
            for name in ("many", "loop"):
                path = os.path.join(tmp, f"{name}.sqlite")
                with SqliteStatsCache(path) as writer:
                    writer.put_many([(_key(i), _stats(cycles=i + 1))
                                     for i in sorted(stored)])
                cache = SqliteStatsCache(
                    path, max_entries=max_entries, max_rows=max_rows)
                for key in warm:
                    cache.get(_key(key))
                caches.append(cache)
            many, loop = caches
            statements = _selects(many)
            keys = [_key(i) for i in lookups]
            assert [s and s.to_dict() for s in many.get_many(keys)] == [
                s and s.to_dict() for s in _loop_of_get(loop, keys)]
            assert len(statements) <= 1
            assert many.tier_counters() == loop.tier_counters()
            assert many.hits == loop.hits
            assert list(many._records) == list(loop._records)
            assert _rows(many.path) == _rows(loop.path)
            many.close()
            loop.close()

    @pytest.mark.parametrize("failing", ["SELECT KEY", "UPDATE"])
    def test_failed_call_leaves_both_tiers_as_they_were(
        self, tmp_path, failing
    ):
        path = tmp_path / "fail.sqlite"
        with SqliteStatsCache(path) as writer:
            writer.put_many(
                [(_key(i), _stats(cycles=i + 1)) for i in range(6)])
        cache = SqliteStatsCache(path, max_entries=3, max_rows=10)
        cache.get_many([_key(0), _key(1), _key(2)])
        before = (list(cache._records.items()), cache.tier_counters(),
                  cache.hits, _rows(path))
        real = cache._conn
        cache._conn = _FailingStatements(real, failing)
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            cache.get_many([_key(1), _key(4), _key(5), _key(0)])
        cache._conn = real
        assert not real.in_transaction
        assert (list(cache._records.items()), cache.tier_counters(),
                cache.hits, _rows(path)) == before
        assert [s.cycles for s in cache.get_many([_key(4), _key(1)])] == [5, 2]
        cache.close()


class TestFrozenRecords:
    """Every tier hands out the record it holds, so none may be writable."""

    @pytest.mark.parametrize(
        "tier", ["memory", "jsonl", "sqlite-l1", "sqlite-db"])
    def test_tier_records_refuse_writes(self, tmp_path, tier):
        if tier == "memory":
            cache = StatsCache()
        elif tier == "jsonl":
            with PersistentStatsCache(tmp_path / "c.jsonl") as writer:
                writer.put(KEY, _stats())
            cache = PersistentStatsCache(tmp_path / "c.jsonl")  # warm start
        else:
            cache = SqliteStatsCache(tmp_path / "c.sqlite")
            if tier == "sqlite-db":
                cache.put(KEY, _stats())
                cache.close()
                cache = SqliteStatsCache(tmp_path / "c.sqlite")
        if tier in ("memory", "sqlite-l1"):
            cache.put(KEY, _stats())
        for record in (cache.get(KEY), cache.get_many([KEY])[0]):
            with pytest.raises(FrozenInstanceError):
                record.cycles = 1
            with pytest.raises(FrozenInstanceError):
                record.traffic.psums_reduced = 1
        assert cache.get(KEY).cycles == 100
        getattr(cache, "close", lambda: None)()

    def test_plan_results_refuse_writes(self):
        engine = EvaluationEngine(CONFIG)
        layer = ConvLayer("c", C=4, H=8, W=8, K=8, R=3, S=3)
        cold = engine.plan_many([layer])
        engine.run_plans([cold])
        twin = ConvLayer("d", C=4, H=8, W=8, K=8, R=3, S=3)
        warm = engine.plan_many([layer, twin])
        for record in cold.results + warm.results:
            with pytest.raises(FrozenInstanceError):
                record.layer_name = "x"
        assert warm.results[0] is cold.results[0]
        assert warm.results[1].layer_name == "d"


def test_cold_sweep_encodes_each_distinct_key_once(tmp_path):
    from repro.session import Session
    from repro.sweep import SweepPlan

    encode_key.cache_clear()
    with Session(cache_path=str(tmp_path / "cold.sqlite")) as session:
        plan = SweepPlan.matrix(
            session.config, models=["mlp", "lenet"],
            axes={"arch": ["maeri", "sigma"], "ms_size": [64, 128]})
        report = session.sweep(plan)
        rows = session.engine.cache.disk_entries()
    info = encode_key.cache_info()
    assert report.counters["num_simulations"] == rows > 0
    # One encoding per distinct key: at its lookup; its write reuses it.
    assert info.misses == rows
    assert info.hits >= rows
