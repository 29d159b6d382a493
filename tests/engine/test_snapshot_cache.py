"""Incremental snapshot aggregation: per-part partial-aggregate caching.

The contract: during a streaming load, repeated aggregate queries scan
only newly sealed parts (plus the sideline delta), and every answer is
identical to a cold scan of the same snapshot — rows, ordering, floats.
"""

import json
from pathlib import Path

import pytest

from repro.engine import (
    Catalog,
    Executor,
    SnapshotAggCache,
    TableEntry,
    parse_sql,
    query_fingerprint,
)
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import JsonSideStore, ParquetLiteWriter, infer_schema


def _records(lo, hi):
    return [
        {"i": k % 7, "v": k, "tag": f"t{k % 3}"} for k in range(lo, hi)
    ]


def _write_part(path, records, group_rows=10):
    path.parent.mkdir(parents=True, exist_ok=True)
    with ParquetLiteWriter(path, infer_schema(records)) as writer:
        for start in range(0, len(records), group_rows):
            writer.write_row_group(records[start:start + group_rows])
    return path


@pytest.fixture()
def snapshot_table(tmp_path):
    """A table with a live view of two immutable parts, plus a grower to
    seal more parts (the streaming-ingest shape, minus the threads)."""
    parts = [
        _write_part(tmp_path / "part0.pql", _records(0, 40)),
        _write_part(tmp_path / "part1.pql", _records(40, 80)),
    ]
    table = TableEntry(name="t")
    table.set_view(parts, [], live=True)
    catalog = Catalog()
    catalog.register(table)

    def grow(lo, hi):
        parts.append(
            _write_part(tmp_path / f"part{len(parts)}.pql",
                        _records(lo, hi))
        )
        table.set_view(parts, [], live=True)

    return table, Executor(catalog), grow


AGG_SQL = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE i = 1"
GROUP_SQL = "SELECT tag, COUNT(*), SUM(v) FROM t GROUP BY tag"


class TestIncrementalAggregation:
    def test_second_query_scans_nothing_new(self, snapshot_table):
        table, executor, _ = snapshot_table
        first = executor.execute(AGG_SQL)
        second = executor.execute(AGG_SQL)
        assert first.rows == second.rows
        assert first.plan_info.snapshot_cache_misses == 2
        assert second.plan_info.snapshot_cache_hits == 2
        assert second.stats.row_groups_total == 0

    def test_growth_scans_only_new_parts(self, snapshot_table):
        table, executor, grow = snapshot_table
        executor.execute(AGG_SQL)
        grow(80, 120)
        warm = executor.execute(AGG_SQL)
        assert warm.plan_info.snapshot_cache_hits == 2
        assert warm.plan_info.snapshot_cache_misses == 1
        assert warm.stats.row_groups_total == 4  # the new part only
        # Cold rescan of the same snapshot: byte-identical answer.
        table.clear_snapshot_cache()
        cold = executor.execute(AGG_SQL)
        assert json.dumps(warm.rows) == json.dumps(cold.rows)
        assert warm.stats.row_groups_total < cold.stats.row_groups_total

    def test_group_by_order_matches_cold_scan(self, snapshot_table):
        table, executor, grow = snapshot_table
        warm_seed = executor.execute(GROUP_SQL)
        grow(80, 120)
        warm = executor.execute(GROUP_SQL)
        table.clear_snapshot_cache()
        cold = executor.execute(GROUP_SQL)
        # Ordering (first-appearance across parts) survives the merge.
        assert warm.rows == cold.rows
        assert warm_seed.rows != warm.rows  # the data actually grew

    def test_distinct_queries_cache_independently(self, snapshot_table):
        table, executor, _ = snapshot_table
        executor.execute(AGG_SQL)
        other = executor.execute("SELECT COUNT(*) FROM t WHERE i = 2")
        assert other.plan_info.snapshot_cache_misses == 2
        assert other.plan_info.snapshot_cache_hits == 0

    def test_limit_applies_after_merge_and_shares_partials(
            self, snapshot_table):
        table, executor, _ = snapshot_table
        full = executor.execute(GROUP_SQL)
        limited = executor.execute(GROUP_SQL + " LIMIT 2")
        assert limited.rows == full.rows[:2]
        # Same fingerprint: the limited rendering reused the partials.
        assert limited.plan_info.snapshot_cache_hits == 2

    def test_non_aggregate_queries_bypass_cache(self, snapshot_table):
        table, executor, _ = snapshot_table
        result = executor.execute("SELECT i, v FROM t LIMIT 3")
        assert len(result.rows) == 3
        assert result.plan_info.snapshot_cache_hits == 0
        assert result.plan_info.snapshot_cache_misses == 0

    def test_clear_snapshot_drops_cache(self, snapshot_table, tmp_path):
        table, executor, _ = snapshot_table
        executor.execute(AGG_SQL)
        cache = table.snapshot_cache
        assert len(cache) == 2
        # The same parts as a final view: no live view, no cache, and
        # queries plan cold.
        table.set_view(table.parquet_paths, [])
        assert not table.live and table._snapshot_cache is None
        result = executor.execute(AGG_SQL)
        assert result.stats.row_groups_total == 8

    def test_retain_parts_prunes_vanished_parts(self):
        cache = SnapshotAggCache()
        from repro.engine.snapcache import _PartPartial

        cache.put("a.pql", "f", _PartPartial(simple=[]))
        cache.put("b.pql", "f", _PartPartial(simple=[]))
        cache.retain_parts(["b.pql"])
        assert cache.get("a.pql", "f") is None
        assert cache.get("b.pql", "f") is not None


class TestView:
    """``set_view`` keeps what an unchanged view still scans and drops
    only what left it."""

    @pytest.fixture()
    def sideline(self, tmp_path):
        store = JsonSideStore(tmp_path / "side.jsonl")
        store.append(0, [dump_record(r) for r in _records(80, 83)])
        return [(store.path, store.record_count)]

    def test_unchanged_view_keeps_every_cache(self, snapshot_table,
                                              sideline):
        table, executor, _ = snapshot_table
        table.set_view(table.parquet_paths, sideline, live=True)
        executor.execute(AGG_SQL)
        readers = table.open_readers()
        cache = table.snapshot_cache
        partials = dict(cache._partials)
        prefixes = dict(table.sideline_cache._prefixes)
        assert len(partials) == 2 and len(prefixes) == 1
        # An equal view built from fresh objects is the same view.
        table.set_view([Path(p) for p in table.parquet_paths],
                       [(Path(path), n) for path, n in sideline], live=True)
        assert all(a is b for a, b in zip(table.open_readers(), readers))
        assert table.snapshot_cache is cache
        assert cache._partials.keys() == partials.keys()
        assert all(cache._partials[k] is v for k, v in partials.items())
        assert table.sideline_cache._prefixes.keys() == prefixes.keys()
        assert all(table.sideline_cache._prefixes[k] is v
                   for k, v in prefixes.items())
        warm = executor.execute(AGG_SQL)
        assert warm.plan_info.snapshot_cache_misses == 0
        assert warm.stats.sideline_records_parsed == 0

    def test_dropped_part_closes_reader_and_drops_partials(
            self, snapshot_table):
        table, executor, _ = snapshot_table
        executor.execute(AGG_SQL)
        dropped, kept = table.open_readers()
        cache = table.snapshot_cache
        table.set_view([kept.path], [], live=True)
        assert dropped._file.closed and not kept._file.closed
        assert table.open_readers() == [kept]
        assert table.snapshot_cache is cache
        assert [part for part, _ in cache._partials] == [str(kept.path)]
        warm = executor.execute(AGG_SQL)
        assert warm.plan_info.snapshot_cache_hits == 1
        assert warm.plan_info.snapshot_cache_misses == 0


class TestFingerprint:
    def test_limit_excluded(self):
        a = query_fingerprint(parse_sql(GROUP_SQL))
        b = query_fingerprint(parse_sql(GROUP_SQL + " LIMIT 5"))
        assert a == b

    def test_semantics_included(self):
        base = query_fingerprint(parse_sql(AGG_SQL))
        assert base != query_fingerprint(
            parse_sql("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) "
                      "FROM t WHERE i = 2")
        )
        assert base != query_fingerprint(
            parse_sql("SELECT COUNT(*), SUM(v), MIN(v), MAX(i) "
                      "FROM t WHERE i = 1")
        )


class TestServerIntegration:
    """The cache engages through CiaoServer.query() mid-load and answers
    stay equal to serial ingest of the covered chunks."""

    def _chunks(self, lo, hi, n=25):
        return [
            JsonChunk(cid, [
                dump_record({"i": (cid * n + k) % 7, "v": cid * n + k})
                for k in range(n)
            ])
            for cid in range(lo, hi)
        ]

    def test_mid_load_incremental_equals_serial(self, tmp_path):
        server = CiaoServer(tmp_path / "s", n_shards=2,
                            shard_mode="thread", seal_interval=1)
        for chunk in self._chunks(0, 4):
            server.ingest(chunk)
        server.quiesce()
        first = server.query(AGG_SQL)
        for chunk in self._chunks(4, 8):
            server.ingest(chunk)
        server.quiesce()
        warm = server.query(AGG_SQL)
        assert warm.plan_info.snapshot_cache_hits > 0

        reference = CiaoServer(tmp_path / "ref")
        for chunk in self._chunks(0, 8):
            reference.ingest(chunk)
        reference.finalize_loading()
        want = reference.query(AGG_SQL)
        assert json.dumps(warm.rows) == json.dumps(want.rows)

        server.finalize_loading()
        final = server.query(AGG_SQL)
        assert json.dumps(final.rows) == json.dumps(want.rows)

    def test_finalize_clears_snapshot_state(self, tmp_path):
        server = CiaoServer(tmp_path / "s", n_shards=2,
                            shard_mode="thread", seal_interval=1)
        for chunk in self._chunks(0, 3):
            server.ingest(chunk)
        server.quiesce()
        server.query("SELECT COUNT(*) FROM t")
        assert server.table.live
        server.finalize_loading()
        assert not server.table.live
        assert server.table._snapshot_cache is None
