"""Incremental snapshot aggregation: per-part partial-aggregate caching.

The contract: during a streaming load, repeated aggregate queries scan
only newly sealed parts (plus the sideline delta), and every answer is
identical to a cold scan of the same snapshot — rows, ordering, floats.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.client import SimulatedClient
from repro.compact import CompactionConfig, Compactor
from repro.core import CostModel, DEFAULT_COEFFICIENTS, manual_plan
from repro.core.predicates import Clause, exact
from repro.engine import (
    Catalog,
    Executor,
    SnapshotAggCache,
    TableEntry,
    parse_sql,
    plan_query,
    query_fingerprint,
)
from repro.engine import snapcache
from repro.obs import QueryLog
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import JsonSideStore, ParquetLiteWriter, infer_schema
from engine_oracle import run_plan_rows


def _kept(cache):
    """The ``(part, fingerprint)`` pairs *cache* keeps partials for."""
    return {(part, fingerprint)
            for fingerprint, parts in cache._partials.items()
            for part in parts}


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
        assert first.stats.snapshot_cache_misses == 2
        assert second.stats.snapshot_cache_hits == 2
        assert second.stats.row_groups_total == 0

    def test_growth_scans_only_new_parts(self, snapshot_table):
        table, executor, grow = snapshot_table
        executor.execute(AGG_SQL)
        grow(80, 120)
        warm = executor.execute(AGG_SQL)
        assert warm.stats.snapshot_cache_hits == 2
        assert warm.stats.snapshot_cache_misses == 1
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
        assert other.stats.snapshot_cache_misses == 2
        assert other.stats.snapshot_cache_hits == 0

    def test_limit_applies_after_merge_and_shares_partials(
            self, snapshot_table):
        table, executor, _ = snapshot_table
        full = executor.execute(GROUP_SQL)
        limited = executor.execute(GROUP_SQL + " LIMIT 2")
        assert limited.rows == full.rows[:2]
        # Same fingerprint: the limited rendering reused the partials.
        assert limited.stats.snapshot_cache_hits == 2

    def test_non_aggregate_queries_bypass_cache(self, snapshot_table):
        table, executor, _ = snapshot_table
        result = executor.execute("SELECT i, v FROM t LIMIT 3")
        assert len(result.rows) == 3
        assert result.stats.snapshot_cache_hits == 0
        assert result.stats.snapshot_cache_misses == 0

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

    def test_row_oracle_folds_a_live_plan_cold(self, snapshot_table):
        table, executor, grow = snapshot_table
        grow(80, 120)
        for sql in (AGG_SQL, GROUP_SQL, GROUP_SQL + " LIMIT 2"):
            plan, info = plan_query(parse_sql(sql), table)
            assert "SnapshotAggregate" in info.description
            oracle = run_plan_rows(plan, info)
            # Row-interpreted, not through the fold: nothing cached.
            assert len(table.snapshot_cache) == 0
            assert oracle.stats.row_groups_total == 12
            assert executor.execute(sql).rows == oracle.rows, sql
            table.clear_snapshot_cache()

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
        partials = {key: cache.get(*key) for key in _kept(cache)}
        prefixes = dict(table.sideline_cache._prefixes)
        assert len(partials) == 2 and len(prefixes) == 1
        # An equal view built from fresh objects is the same view.
        table.set_view([Path(p) for p in table.parquet_paths],
                       [(Path(path), n) for path, n in sideline], live=True)
        assert all(a is b for a, b in zip(table.open_readers(), readers))
        assert table.snapshot_cache is cache
        assert _kept(cache) == partials.keys()
        assert all(cache.get(*k) is v for k, v in partials.items())
        assert table.sideline_cache._prefixes.keys() == prefixes.keys()
        assert all(table.sideline_cache._prefixes[k] is v
                   for k, v in prefixes.items())
        warm = executor.execute(AGG_SQL)
        assert warm.stats.snapshot_cache_misses == 0
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
        assert [part for part, _ in _kept(cache)] == [str(kept.path)]
        warm = executor.execute(AGG_SQL)
        assert warm.stats.snapshot_cache_hits == 1
        assert warm.stats.snapshot_cache_misses == 0


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
        assert warm.stats.snapshot_cache_hits > 0

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


class TestPlannedOncePerView:
    """A live aggregate runs the table's prepared plan: it is planned
    (its readers listed, its scans built) once per view."""

    SQL = "SELECT COUNT(*) FROM t WHERE i = 1"

    @pytest.fixture()
    def planning_passes(self, monkeypatch):
        passes = []
        open_readers = TableEntry.open_readers

        def counting(table):
            passes.append(table.name)
            return open_readers(table)

        monkeypatch.setattr(TableEntry, "open_readers", counting)
        return passes

    def test_repeats_plan_once_and_a_seal_once_more(self, snapshot_table,
                                                    planning_passes):
        table, executor, grow = snapshot_table
        first = executor.execute(self.SQL)
        for _ in range(9):
            again = executor.execute(self.SQL)
            assert again.rows == first.rows
            assert again.stats.snapshot_cache_hits == 2
        assert len(planning_passes) == 1
        grow(80, 120)
        sealed = executor.execute(self.SQL)
        assert sealed.stats.snapshot_cache_misses == 1
        for _ in range(9):
            again = executor.execute(self.SQL)
            assert again.rows == sealed.rows
            assert again.stats.snapshot_cache_hits == 3
        assert len(planning_passes) == 2

    def test_a_mid_load_server_plans_once_per_seal(self, tmp_path,
                                                   planning_passes):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread",
                            seal_interval=1)
        chunks = TestServerIntegration()._chunks(0, 6)
        for chunk in chunks[:4]:
            server.ingest(chunk)
        server.quiesce()
        answers = {json.dumps(server.query(self.SQL).rows)
                   for _ in range(10)}
        assert len(answers) == 1 and len(planning_passes) == 1
        for chunk in chunks[4:]:
            server.ingest(chunk)
        server.quiesce()
        for _ in range(10):
            server.query(self.SQL)
        assert len(planning_passes) == 2
        server.finalize_loading()


class TestBound:
    def test_past_the_cap_the_oldest_fingerprints_fold_again(
            self, snapshot_table, monkeypatch):
        table, executor, _ = snapshot_table
        monkeypatch.setattr(snapcache, "SNAPSHOT_FINGERPRINTS_CAP", 3)
        texts = [f"SELECT COUNT(*), SUM(v) FROM t WHERE i = {k}"
                 for k in range(5)]
        before = {}
        for sql in texts:
            result = executor.execute(sql)
            assert result.stats.snapshot_cache_misses == 2
            before[sql] = result.rows
        cache = table.snapshot_cache
        kept = set(cache._partials)
        assert kept == {query_fingerprint(parse_sql(sql))
                        for sql in texts[2:]}
        assert len(cache) == 3 * 2

        # The dropped fingerprint folds every part again; keeping it
        # drops the next oldest, and the answer is a cold scan's.
        refold = executor.execute(texts[0])
        assert refold.stats.snapshot_cache_misses == 2
        assert refold.stats.snapshot_cache_hits == 0
        assert len(cache._partials) == 3
        assert cache.get(str(table.parquet_paths[0]),
                         query_fingerprint(parse_sql(texts[2]))) is None
        table.clear_snapshot_cache()
        cold = executor.execute(texts[0])
        assert json.dumps(refold.rows) == json.dumps(cold.rows)
        assert refold.rows == before[texts[0]]

    def test_racing_runs_keep_the_cap_and_every_answer(
            self, snapshot_table, monkeypatch):
        table, executor, _ = snapshot_table
        monkeypatch.setattr(snapcache, "SNAPSHOT_FINGERPRINTS_CAP", 3)
        texts = [f"SELECT COUNT(*), SUM(v) FROM t WHERE i = {k}"
                 for k in range(7)]
        final = TableEntry(name="t")
        final.set_view(table.parquet_paths, [])
        expected = {sql: run_plan_rows(*plan_query(parse_sql(sql),
                                                   final)).rows
                    for sql in texts}
        cache = table.snapshot_cache
        wrong = []

        def query(offset):
            try:
                for i in range(4 * len(texts)):
                    sql = texts[(i + offset) % len(texts)]
                    if executor.execute(sql).rows != expected[sql]:
                        wrong.append(sql)
                    if len(cache._partials) > 3:
                        wrong.append("cap exceeded")
            except Exception as exc:  # reported by the assert below
                wrong.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query, args=(k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(cache._partials) <= 3


class TestReplanAndCompactionMidLoad:
    """``update_plan`` and a re-clustering compaction commit that removes
    its inputs, each crossed with a warm snapshot cache mid-load: answers
    stay the row oracle's, parts still listed answer from their partials,
    and replaced parts keep none."""

    GROUP_SQL = "SELECT col, COUNT(*), SUM(n) FROM t GROUP BY col LIMIT 3"
    PUSHED = ["SELECT COUNT(*) FROM t WHERE col = 'a'",
              "SELECT COUNT(*) FROM t WHERE col = 'b'"]
    #: Not an aggregate: it only brings the table's view up to date.
    REFRESH = "SELECT n FROM t LIMIT 1"

    C_A = Clause((exact("col", "a"),))
    C_B = Clause((exact("col", "b"),))

    def _chunks(self, plan, start, n_records):
        """Chunks of 20 records from record *start* on, annotated under
        *plan*."""
        lines = [dump_record({"col": "abcd"[i % 4], "n": i})
                 for i in range(start, start + n_records)]
        client = SimulatedClient("c", plan=plan, chunk_size=20)
        return list(client.process(lines, start_chunk_id=start // 20))

    def _oracle(self, sql, table):
        """The row interpreter's answer, planned cold."""
        return run_plan_rows(*plan_query(parse_sql(sql), table)).rows

    def _check(self, server, listed_before):
        """Every answer is the oracle's; parts listed before answer from
        their partials, and only the other parts fold."""
        table = server.table
        server.query(self.REFRESH)
        kept = [p for p in table.parquet_paths if p in listed_before]
        for sql in [self.GROUP_SQL] + self.PUSHED:
            result = server.query(sql)
            assert json.dumps(result.rows) == json.dumps(
                self._oracle(sql, table)), sql
            assert result.stats.snapshot_cache_hits == len(kept), sql
            assert result.stats.snapshot_cache_misses == \
                len(table.parquet_paths) - len(kept), sql
        listed = {str(p) for p in table.parquet_paths}
        assert {part for part, _ in _kept(table.snapshot_cache)} == listed

    def test_replan_then_compaction(self, tmp_path):
        model = CostModel(DEFAULT_COEFFICIENTS, 40)
        initial = manual_plan([self.C_A], {self.C_A: 0.3}, model)
        query_log = QueryLog()
        server = CiaoServer(tmp_path, plan=initial, n_shards=2,
                            shard_mode="thread", seal_interval=1,
                            query_log=query_log)
        for chunk in self._chunks(initial, 0, 120):
            server.ingest(chunk)
        server.quiesce()
        table = server.table
        self._check(server, [])  # warms the cache
        self._check(server, list(table.parquet_paths))
        assert server.query(self.PUSHED[0]).plan_info \
            .matched_predicate_ids == [0]

        # Replan mid-load: ``col = 'b'`` is pushed from now on, and the
        # parts sealed before it have no vector for it.
        replanned = manual_plan([self.C_A, self.C_B],
                                {self.C_A: 0.3, self.C_B: 0.3}, model)
        server.update_plan(replanned)
        self._check(server, list(table.parquet_paths))
        assert server.query(self.PUSHED[1]).plan_info \
            .matched_predicate_ids == [1]
        before = list(table.parquet_paths)
        for chunk in self._chunks(replanned, 120, 80):
            server.ingest(chunk)
        server.quiesce()
        server.query(self.REFRESH)
        assert len(table.parquet_paths) > len(before)
        self._check(server, before)

        # Re-cluster two parts by the queried column and unlink them;
        # the other parts stay.
        before = list(table.parquet_paths)
        compactor = Compactor(server, config=CompactionConfig(
            min_observations=1, max_inputs=2, remove_inputs=True),
            query_log=query_log)
        rewrite = compactor.run_once()
        assert rewrite is not None and rewrite.cluster_by == "col"
        replaced = [p for p in before if p not in table.parquet_paths]
        assert len(replaced) == 2
        assert not any(p.exists() for p in replaced)
        assert not any(part in {str(p) for p in replaced}
                       for part, _ in _kept(table.snapshot_cache))
        self._check(server, before)
        self._check(server, list(table.parquet_paths))
        server.finalize_loading()
