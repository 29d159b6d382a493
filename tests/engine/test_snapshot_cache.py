"""Incremental snapshot aggregation: per-part partial-aggregate caching.

The contract: during a streaming load, repeated aggregate queries scan
only newly sealed parts (plus the sideline delta), and every answer is
identical to a cold scan of the same snapshot — rows, ordering, floats.
"""

import json

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
from repro.storage import ParquetLiteWriter, infer_schema


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
    """A table in snapshot-scan mode over two immutable parts, plus a
    grower to seal more parts (the streaming-ingest shape, minus the
    threads)."""
    parts = [
        _write_part(tmp_path / "part0.pql", _records(0, 40)),
        _write_part(tmp_path / "part1.pql", _records(40, 80)),
    ]
    table = TableEntry(name="t")
    table.apply_snapshot(1, list(parts), None)
    catalog = Catalog()
    catalog.register(table)

    def grow(version, lo, hi):
        parts.append(
            _write_part(tmp_path / f"part{len(parts)}.pql",
                        _records(lo, hi))
        )
        table.apply_snapshot(version, list(parts), None)

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
        grow(2, 80, 120)
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
        grow(2, 80, 120)
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
        sealed = list(table.parquet_paths)
        table.clear_snapshot()
        assert table._snapshot_cache is None
        # Finalized-table queries plan cold (no snapshot mode).
        table.set_parts(sealed)
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
        assert server.table.in_snapshot_mode
        server.finalize_loading()
        assert not server.table.in_snapshot_mode
        assert server.table._snapshot_cache is None
