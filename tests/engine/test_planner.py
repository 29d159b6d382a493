"""Unit tests for the query planner's skipping decision."""

import sys
import threading

import pytest

from repro.bitvec import BitVector
from repro.core import clause, exact, key_value
from repro.engine import (
    Catalog,
    CatalogError,
    Executor,
    PlannerError,
    TableEntry,
    parse_sql,
    plan_query,
)
from repro.rawjson import dump_record
from repro.storage import (
    JsonSideStore,
    ParquetLiteWriter,
    infer_schema,
)
from engine_helpers import collect

ROWS = [{"name": f"u{i}", "age": i % 4, "city": f"c{i % 3}"}
        for i in range(12)]
C_NAME = clause(exact("name", "u3"))
C_AGE = clause(key_value("age", 1))


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "t.pql"
    schema = infer_schema(ROWS)
    with ParquetLiteWriter(path, schema) as writer:
        writer.write_row_group(
            ROWS,
            bitvectors={
                0: BitVector.from_bits([r["name"] == "u3" for r in ROWS]),
                1: BitVector.from_bits([r["age"] == 1 for r in ROWS]),
            },
        )
    store = JsonSideStore(tmp_path / "side.jsonl")
    store.append(0, [dump_record({"name": "side", "age": 1, "city": "c9"})])
    return TableEntry(
        name="t",
        parquet_paths=[path],
        sidelines=[(store.path, store.record_count)],
        pushdown={C_NAME: 0, C_AGE: 1},
    )


class TestSkippingDecision:
    def test_pushed_conjunct_uses_skipping_and_no_sideline(self, table):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE name = 'u3'")
        _, info = plan_query(parsed, table)
        assert info.used_skipping
        assert info.matched_predicate_ids == [0]
        assert not info.scans_sideline

    def test_two_pushed_conjuncts_intersect(self, table):
        parsed = parse_sql(
            "SELECT COUNT(*) FROM t WHERE name = 'u3' AND age = 1"
        )
        _, info = plan_query(parsed, table)
        assert info.matched_predicate_ids == [0, 1]

    def test_unpushed_query_scans_sideline(self, table):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE city = 'c9'")
        _, info = plan_query(parsed, table)
        assert not info.used_skipping
        assert info.scans_sideline

    def test_mixed_conjuncts_use_matched_subset(self, table):
        parsed = parse_sql(
            "SELECT COUNT(*) FROM t WHERE name = 'u3' AND city = 'c0'"
        )
        _, info = plan_query(parsed, table)
        assert info.matched_predicate_ids == [0]
        assert not info.scans_sideline

    def test_unsupported_conjunct_does_not_match(self, table):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE age > 2")
        _, info = plan_query(parsed, table)
        assert not info.used_skipping

    def test_no_where_scans_everything(self, table):
        parsed = parse_sql("SELECT COUNT(*) FROM t")
        _, info = plan_query(parsed, table)
        assert not info.used_skipping
        assert info.scans_sideline


class TestPlanShapes:
    def test_mixed_aggregate_and_bare_rejected(self, table):
        parsed = parse_sql("SELECT COUNT(*), name FROM t")
        with pytest.raises(PlannerError):
            plan_query(parsed, table)

    def test_empty_table_plans_empty_scan(self, tmp_path):
        entry = TableEntry(name="empty",
                           parquet_paths=[tmp_path / "missing.pql"])
        parsed = parse_sql("SELECT COUNT(*) FROM empty")
        plan, _ = plan_query(parsed, entry)
        assert collect(plan)[0]["count(*)"] == 0


class TestCatalog:
    def test_register_and_lookup(self, table):
        catalog = Catalog()
        catalog.register(table)
        assert catalog.lookup("t") is table
        assert "t" in catalog
        assert catalog.names() == ["t"]

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().lookup("nope")

    def test_executor_end_to_end(self, table):
        catalog = Catalog()
        catalog.register(table)
        executor = Executor(catalog)
        result = executor.execute(
            "SELECT COUNT(*) FROM t WHERE name = 'u3'"
        )
        assert result.scalar() == 1
        assert result.plan_info.used_skipping

    def test_executor_counts_sideline(self, table):
        catalog = Catalog()
        catalog.register(table)
        executor = Executor(catalog)
        result = executor.execute(
            "SELECT COUNT(*) FROM t WHERE city = 'c9'"
        )
        assert result.scalar() == 1  # only the sidelined record
        assert result.stats.sideline_records_parsed == 1

    def test_reader_cache_invalidation(self, table, tmp_path):
        (first,) = table.open_readers()
        assert table.open_readers() == [first]
        second_path = tmp_path / "t2.pql"
        with ParquetLiteWriter(second_path, infer_schema(ROWS)) as writer:
            writer.write_row_group(ROWS)
        table.set_view([table.parquet_paths[0], second_path],
                       table.sidelines)
        kept, second = table.open_readers()
        assert kept is first and second.path == second_path
        # Dropping a part closes its reader at once; the kept one stays.
        table.set_view([second_path], table.sidelines)
        assert first._file.closed and not second._file.closed
        assert table.open_readers() == [second]
        # A path listed again after it left the view is opened afresh.
        table.set_view([first.path, second_path], table.sidelines)
        reopened, again = table.open_readers()
        assert reopened is not first and again is second
        assert table.open_readers()[0].total_rows == len(ROWS)

    def test_concurrent_queries_share_one_reader_per_part(self, table,
                                                          tmp_path):
        paths = list(table.parquet_paths)
        for k in range(7):
            path = tmp_path / f"extra{k}.pql"
            with ParquetLiteWriter(path, infer_schema(ROWS)) as writer:
                writer.write_row_group(ROWS)
            paths.append(path)
        table.set_view(paths, table.sidelines)
        seen = []
        start = threading.Barrier(8)

        def query():
            start.wait(timeout=30)
            for _ in range(50):
                seen.append(tuple(map(id, table.open_readers())))

        threads = [threading.Thread(target=query) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        # Every first query raced to open the parts; one reader each won.
        assert len(seen) == 400 and len(set(seen)) == 1
        assert len(seen[0]) == 8
