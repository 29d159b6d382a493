"""The parse-once sideline cache: each sideline line is parsed by the
first query that reaches it; later queries take the cached records and
parse only the lines appended since.  The columns queries pull from
those records are kept too, so each is pulled once per line.  Answers
never change."""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.engine import Catalog, Executor, SidelineScan, TableEntry
from repro.engine import catalog as catalog_module
from repro.engine import operators
from repro.engine.catalog import SidelineCache
from repro.engine.operators import ExecutionStats
from repro.obs import Metrics, QueryLog
from repro.rawjson import dump_record
from repro.storage import JsonSideStore
from engine_helpers import collect


def lines(lo, hi):
    return [dump_record({"i": k, "g": f"g{k % 3}"}) for k in range(lo, hi)]


def whole(store):
    """The one ``(path, records)`` segment covering all of *store*."""
    return [(store.path, store.record_count)]


def scan(segments, cache):
    stats = ExecutionStats()
    rows = collect(SidelineScan(segments, cache), stats)
    return rows, stats


def executor_over(store):
    """An executor over a table whose view is all of *store* now."""
    table = TableEntry(name="t", sidelines=whole(store))
    catalog = Catalog()
    catalog.register(table)
    return Executor(catalog), table


@pytest.fixture()
def store(tmp_path):
    return JsonSideStore(tmp_path / "side.jsonl")


class TestParseOnce:
    def test_second_scan_parses_nothing(self, store):
        store.append(0, lines(0, 5))
        cache = SidelineCache()
        first, stats1 = scan(whole(store), cache)
        second, stats2 = scan(whole(store), cache)
        assert first == second == [{"i": k, "g": f"g{k % 3}"}
                                   for k in range(5)]
        assert (stats1.sideline_records_parsed,
                stats1.sideline_records_cached) == (5, 0)
        assert (stats2.sideline_records_parsed,
                stats2.sideline_records_cached) == (0, 5)
        assert stats2.rows_examined == 5

    def test_appended_lines_are_the_only_parse(self, store):
        cache = SidelineCache()
        store.append(0, lines(0, 4))
        scan(whole(store), cache)
        store.append(1, lines(4, 7))
        rows, stats = scan(whole(store), cache)
        assert [r["i"] for r in rows] == list(range(7))
        assert (stats.sideline_records_parsed,
                stats.sideline_records_cached) == (3, 4)

    def test_malformed_lines_cached_as_skipped(self, store):
        cache = SidelineCache()
        store.append(0, [lines(0, 1)[0], "{broken", "[1]", lines(1, 2)[0]])
        rows, stats = scan(whole(store), cache)
        assert [r["i"] for r in rows] == [0, 1]
        assert stats.sideline_records_parsed == 2
        rows, stats = scan(whole(store), cache)
        assert [r["i"] for r in rows] == [0, 1]
        assert (stats.sideline_records_parsed,
                stats.sideline_records_cached) == (0, 2)

    def test_shorter_view_reads_the_cached_prefix(self, store):
        store.append(0, lines(0, 6))
        cache = SidelineCache()
        scan(whole(store), cache)
        rows, stats = scan([(store.path, 2)], cache)
        assert [r["i"] for r in rows] == [0, 1]
        assert stats.sideline_records_cached == 2

    def test_limit_stops_parsing_early(self, store, monkeypatch):
        monkeypatch.setattr(operators, "SIDELINE_BATCH_ROWS", 4)
        store.append(0, lines(0, 20))
        executor, _ = executor_over(store)
        result = executor.execute("SELECT * FROM t LIMIT 2")
        assert [r["i"] for r in result.rows] == [0, 1]
        assert result.stats.sideline_records_parsed == 4


class TestLifetime:
    def test_new_file_starts_cold(self, tmp_path, store):
        store.append(0, lines(0, 5))
        executor, table = executor_over(store)
        assert executor.execute("SELECT SUM(i) FROM t").scalar() == 10
        # The next generation's file: the old one left the view.
        regenerated = JsonSideStore(tmp_path / "side.g1.jsonl")
        regenerated.append(0, lines(100, 102))
        table.set_view([], whole(regenerated))
        assert table.sideline_cache._prefixes == {}
        result = executor.execute("SELECT SUM(i) FROM t")
        assert result.scalar() == 201
        assert result.stats.sideline_records_parsed == 2
        assert result.stats.sideline_records_cached == 0

    def test_snapshot_keeps_only_viewed_files(self, tmp_path, store):
        shards = [JsonSideStore(tmp_path / f"s{i}.jsonl") for i in range(2)]
        for i, shard in enumerate(shards):
            shard.append(i, lines(10 * i, 10 * i + 3))
        executor, table = executor_over(store)

        def view(*counts):
            return [(shard.path, n) for shard, n in zip(shards, counts)]

        table.set_view([], view(3, 3), live=True)
        assert executor.execute("SELECT COUNT(*) FROM t").scalar() == 6
        cache = table.sideline_cache
        assert sorted(cache._prefixes) == sorted(
            str(s.path) for s in shards)
        table.set_view([], view(2), live=True)
        assert sorted(cache._prefixes) == [str(shards[0].path)]
        result = executor.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 2
        assert result.stats.sideline_records_parsed == 0
        # The final view lists only the main store: no shard prefix
        # survives.
        table.set_view([], whole(store))
        assert table.sideline_cache._prefixes == {}

    def test_replaced_table_starts_cold(self, store):
        store.append(0, lines(0, 3))
        catalog = Catalog()
        catalog.register(TableEntry(name="t", sidelines=whole(store)))
        executor = Executor(catalog)
        executor.execute("SELECT COUNT(*) FROM t")
        catalog.register(TableEntry(name="t", sidelines=whole(store)))
        result = executor.execute("SELECT COUNT(*) FROM t")
        assert result.stats.sideline_records_parsed == 3


@pytest.fixture()
def pulled(monkeypatch):
    """Values pulled from cached sideline records, per column name."""
    counts = Counter()
    real = catalog_module.column_values

    def counting(rows, name):
        counts[name] += len(rows)
        return real(rows, name)

    monkeypatch.setattr(catalog_module, "column_values", counting)
    return counts


class TestColumnsOnce:
    def test_queries_pull_each_column_once_per_line(self, store, pulled):
        store.append(0, lines(0, 6))
        executor, _ = executor_over(store)
        for _ in range(4):
            assert executor.execute("SELECT SUM(i) FROM t").scalar() == 15
            assert executor.execute(
                "SELECT g, COUNT(*) FROM t WHERE i >= 1 GROUP BY g"
            ).rows == [{"g": "g1", "count(*)": 2},
                       {"g": "g2", "count(*)": 2},
                       {"g": "g0", "count(*)": 1}]
        assert pulled == {"i": 6, "g": 6}

    def test_grown_live_prefix_pulls_only_the_delta(self, store, pulled):
        store.append(0, lines(0, 4))
        executor, table = executor_over(store)
        table.set_view([], whole(store), live=True)
        assert executor.execute("SELECT SUM(i) FROM t").scalar() == 6
        store.append(1, lines(4, 7))
        table.set_view([], whole(store), live=True)
        for _ in range(2):
            result = executor.execute("SELECT SUM(i) FROM t")
            assert result.scalar() == 21
        assert pulled == {"i": 7}
        assert result.stats.sideline_records_cached == 7

    def test_columns_follow_records_past_malformed_lines(
            self, store, pulled, monkeypatch):
        monkeypatch.setattr(operators, "SIDELINE_BATCH_ROWS", 2)
        good = lines(0, 5)
        store.append(0, [good[0], "{broken", good[1], "[1]", good[2],
                         "", good[3], good[4]])
        executor, _ = executor_over(store)
        for _ in range(2):
            assert [r["i"] for r in executor.execute(
                "SELECT i FROM t WHERE g != 'g1'").rows] == [0, 2, 3]
            assert executor.execute("SELECT SUM(i) FROM t").scalar() == 10
        assert pulled == {"i": 5, "g": 5}

    def test_concurrent_first_queries_pull_once(self, store, pulled,
                                                monkeypatch):
        store.append(0, lines(0, 300))
        executor, _ = executor_over(store)
        answers = []
        counting = catalog_module.column_values

        def slow_pull(rows, name):
            time.sleep(0.02)  # hold the first pull open for the racers
            return counting(rows, name)

        monkeypatch.setattr(catalog_module, "column_values", slow_pull)

        start = threading.Barrier(8, timeout=60)

        def worker():
            start.wait()
            for _ in range(5):
                answers.append(
                    executor.execute("SELECT SUM(i) FROM t").scalar())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [sum(range(300))] * 40
        assert pulled == {"i": 300}

    def test_retain_drops_a_files_columns_with_its_prefix(
            self, tmp_path, store, pulled):
        shards = [JsonSideStore(tmp_path / f"s{i}.jsonl") for i in range(2)]
        for i, shard in enumerate(shards):
            shard.append(i, lines(10 * i, 10 * i + 3))
        executor, table = executor_over(store)
        both = [(shard.path, 3) for shard in shards]
        table.set_view([], both, live=True)
        assert executor.execute("SELECT SUM(i) FROM t").scalar() == 36
        cache = table.sideline_cache
        dropped = cache._prefixes[str(shards[1].path)]
        assert len(dropped.columns["i"]) == 3
        table.set_view([], both[:1], live=True)
        assert list(cache._prefixes) == [str(shards[0].path)]
        assert executor.execute("SELECT SUM(i) FROM t").scalar() == 3
        assert pulled == {"i": 6}
        # Back in view, the file is parsed and pulled from scratch.
        table.set_view([], both, live=True)
        result = executor.execute("SELECT SUM(i) FROM t")
        assert result.scalar() == 36
        assert result.stats.sideline_records_parsed == 3
        assert pulled == {"i": 9}


class TestObservability:
    def test_counters_and_query_log(self, store):
        store.append(0, lines(0, 4))
        catalog = Catalog()
        catalog.register(TableEntry(name="t", sidelines=whole(store)))
        metrics, log = Metrics(), QueryLog()
        executor = Executor(catalog, metrics=metrics, query_log=log)
        for _ in range(3):
            executor.execute("SELECT COUNT(*) FROM t")
        assert metrics.counter("sideline.records_parsed").value == 4
        assert metrics.counter("sideline.records_cached").value == 8
        records = log.tail(3)
        assert [r.sideline_records_parsed for r in records] == [4, 0, 0]
        assert [r.sideline_records_cached for r in records] == [0, 4, 4]
        assert records[1].to_dict()["sideline_records_cached"] == 4


class TestResultIsolation:
    def test_mutating_rows_cannot_reach_the_cache(self, store):
        store.append(0, [dump_record({"i": 1, "tags": ["a"], "m": {"k": 1}}),
                         dump_record({"i": 2})])
        executor, _ = executor_over(store)
        before = executor.execute("SELECT * FROM t").rows
        for row in before:
            row["i"] = -1
            row.get("tags", []).append("z")
            row.get("m", {})["k"] = 99
        after = executor.execute("SELECT * FROM t").rows
        assert after == [{"i": 1, "tags": ["a"], "m": {"k": 1}}, {"i": 2}]
        projected = executor.execute("SELECT m FROM t").rows
        projected[0]["m"]["k"] = 7
        assert executor.execute("SELECT m FROM t").rows[0] == \
            {"m": {"k": 1}}

    def test_mutating_a_live_aggregate_cannot_reach_the_cache(self, store):
        store.append(0, [dump_record({"tags": ["a"]}),
                         dump_record({"tags": ["b"]})])
        executor, table = executor_over(store)
        table.set_view([], whole(store), live=True)
        for _ in range(2):
            (row,) = executor.execute("SELECT MIN(tags) FROM t").rows
            assert row == {"min(tags)": ["a"]}
            row["min(tags)"].append("z")
        assert executor.execute("SELECT * FROM t").rows == \
            [{"tags": ["a"]}, {"tags": ["b"]}]
