"""Unit tests for the batch operators, especially SkippingScan."""

import pytest

from repro.bitvec import BitVector
from repro.engine import (
    Aggregate,
    ChainScan,
    ExecutionStats,
    Filter,
    Limit,
    ParquetScan,
    Project,
    SidelineScan,
    SkippingScan,
    parse_sql,
)
from repro.rawjson import dump_record
from repro.storage import (
    JsonSideStore,
    ParquetLiteReader,
    ParquetLiteWriter,
    infer_schema,
)
from repro.storage import metadata
from engine_helpers import ListScan, collect

ROWS = [{"i": i, "name": f"u{i}", "flag": i % 2 == 0} for i in range(20)]


@pytest.fixture()
def parquet(tmp_path):
    """Two row groups of 10 rows with bit-vectors for predicates 0/1."""
    path = tmp_path / "t.pql"
    schema = infer_schema(ROWS)
    with ParquetLiteWriter(path, schema) as writer:
        for start in (0, 10):
            rows = ROWS[start:start + 10]
            writer.write_row_group(
                rows,
                bitvectors={
                    # predicate 0: i % 5 == 0; predicate 1: i >= 10
                    0: BitVector.from_bits(
                        [r["i"] % 5 == 0 for r in rows]
                    ),
                    1: BitVector.from_bits([r["i"] >= 10 for r in rows]),
                },
            )
    return ParquetLiteReader(path)


class TestParquetScan:
    def test_full_scan(self, parquet):
        stats = ExecutionStats()
        rows = collect(ParquetScan(parquet), stats)
        assert len(rows) == 20
        assert stats.rows_examined == 20
        assert stats.row_groups_total == 2

    def test_projection(self, parquet):
        stats = ExecutionStats()
        rows = collect(ParquetScan(parquet, columns=["i"]), stats)
        assert set(rows[0]) == {"i"}


class TestSkippingScan:
    def test_single_predicate(self, parquet):
        stats = ExecutionStats()
        rows = collect(SkippingScan(parquet, [0]), stats)
        assert sorted(r["i"] for r in rows) == [0, 5, 10, 15]
        assert stats.tuples_skipped == 16
        assert stats.used_data_skipping

    def test_intersection_of_two_predicates(self, parquet):
        stats = ExecutionStats()
        rows = collect(SkippingScan(parquet, [0, 1]), stats)
        assert sorted(r["i"] for r in rows) == [10, 15]

    def test_whole_group_skipped(self, parquet):
        # Predicate 1 is all-zero in the first row group.
        stats = ExecutionStats()
        rows = collect(SkippingScan(parquet, [1]), stats)
        assert sorted(r["i"] for r in rows) == list(range(10, 20))
        assert stats.row_groups_skipped == 1

    def test_missing_vector_falls_back_to_full_scan(self, parquet):
        stats = ExecutionStats()
        rows = collect(SkippingScan(parquet, [7]), stats)
        assert len(rows) == 20  # soundness first
        assert stats.tuples_skipped == 0

    def test_skipped_part_costs_no_per_group_work(self, tmp_path,
                                                  monkeypatch):
        # Predicate 0 is set only in group 0 and predicate 1 only in group
        # 1: each id's candidate int is non-zero, their AND is 0, so the
        # scan must decide every group from the per-part summary alone.
        path = tmp_path / "skip.pql"
        with ParquetLiteWriter(path, infer_schema(ROWS)) as writer:
            for group in (0, 1):
                rows = ROWS[group * 10:group * 10 + 10]
                first = BitVector.from_bits([1] + [0] * 9)
                writer.write_row_group(rows, bitvectors={
                    group: first, 1 - group: BitVector(10),
                })
        reader = ParquetLiteReader(path)
        assert reader.candidate_groups([0, 1]) == 0
        intersects = []
        monkeypatch.setattr(
            metadata, "intersect_all",
            lambda vectors: intersects.append(vectors),
        )
        prunes = []
        scan = SkippingScan(reader, [0, 1],
                            prune=lambda meta: prunes.append(meta))
        stats = ExecutionStats()
        assert list(scan.batches(stats)) == []
        assert intersects == [] and prunes == []
        assert stats.row_groups_total == 2
        assert stats.row_groups_skipped == 2
        assert stats.tuples_skipped == 20
        assert stats.rows_examined == 0

    def test_zone_maps_only_on_bit_vector_survivors(self, parquet):
        # Predicate 1 is empty in group 0: the hook sees only group 1.
        seen = []
        scan = SkippingScan(parquet, [1],
                            prune=lambda meta: seen.append(meta) or True)
        stats = ExecutionStats()
        assert list(scan.batches(stats)) == []
        assert seen == [parquet.meta.row_groups[1]]
        assert stats.row_groups_skipped == 1
        assert stats.row_groups_pruned_by_zonemap == 1
        assert stats.tuples_skipped + stats.tuples_pruned_by_zonemap == 20

    def test_requires_predicates(self, parquet):
        with pytest.raises(ValueError):
            SkippingScan(parquet, [])


class TestSidelineScan:
    def test_parses_raw_records(self, tmp_path):
        store = JsonSideStore(tmp_path / "s.jsonl")
        store.append(0, [dump_record(r) for r in ROWS[:3]])
        stats = ExecutionStats()
        rows = collect(SidelineScan([(store.path, store.record_count)]),
                       stats)
        assert len(rows) == 3
        assert stats.sideline_records_parsed == 3
        assert stats.scanned_sideline


class TestComposition:
    def test_filter(self):
        stats = ExecutionStats()
        q = parse_sql("SELECT * FROM t WHERE i = 3")
        rows = collect(Filter(ListScan(ROWS), q.where), stats)
        assert [r["i"] for r in rows] == [3]

    def test_project(self):
        stats = ExecutionStats()
        rows = collect(Project(ListScan(ROWS), ["name"]), stats)
        assert rows[0] == {"name": "u0"}

    def test_limit(self):
        stats = ExecutionStats()
        rows = collect(Limit(ListScan(ROWS), 4), stats)
        assert len(rows) == 4
        assert stats.rows_examined == 4  # early termination

    def test_limit_zero(self):
        stats = ExecutionStats()
        assert collect(Limit(ListScan(ROWS), 0), stats) == []

    def test_chain(self):
        stats = ExecutionStats()
        chain = ChainScan([ListScan(ROWS[:5]), ListScan(ROWS[5:])])
        rows = collect(chain, stats)
        assert len(rows) == 20

    def test_describe_compose(self, parquet):
        plan = Filter(
            SkippingScan(parquet, [0]),
            parse_sql("SELECT * FROM t WHERE i = 0").where,
        )
        text = plan.describe()
        assert "SkippingScan" in text and "Filter" in text


class TestAggregate:
    def test_count_star_counts_everything(self):
        stats = ExecutionStats()
        q = parse_sql("SELECT COUNT(*) FROM t")
        (row,) = collect(Aggregate(ListScan(ROWS), q.select), stats)
        assert row == {"count(*)": 20}

    def test_column_aggregates_ignore_nulls(self):
        rows = [{"x": 1}, {"x": None}, {"x": 3}]
        q = parse_sql("SELECT COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
                      "FROM t")
        stats = ExecutionStats()
        (row,) = collect(Aggregate(ListScan(rows), q.select), stats)
        assert row["count(x)"] == 2
        assert row["sum(x)"] == 4
        assert row["avg(x)"] == 2
        assert row["min(x)"] == 1
        assert row["max(x)"] == 3

    def test_empty_input_aggregates(self):
        q = parse_sql("SELECT COUNT(*), SUM(x), MIN(x) FROM t")
        stats = ExecutionStats()
        (row,) = collect(Aggregate(ListScan([]), q.select), stats)
        assert row["count(*)"] == 0
        assert row["sum(x)"] is None
        assert row["min(x)"] is None

    def test_rejects_bare_columns(self):
        q = parse_sql("SELECT a FROM t")
        with pytest.raises(ValueError):
            Aggregate(ListScan(ROWS), q.select)
