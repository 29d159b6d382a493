"""Unit tests for the columnar batch engine: ColumnBatch, vectorized
expressions and batch operators."""

import pytest

from repro.bitvec import BitVector
from repro.engine import (
    Aggregate,
    ChainScan,
    ColumnBatch,
    ExecutionStats,
    Filter,
    Limit,
    ParquetScan,
    Project,
    SidelineScan,
    SkippingScan,
    compile_like,
    like_match,
    parse_sql,
)
from repro.engine.operators import Operator
from repro.rawjson import dump_record
from repro.storage import (
    JsonSideStore,
    ParquetLiteReader,
    ParquetLiteWriter,
    infer_schema,
)
from engine_helpers import collect

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
                    0: BitVector.from_bits(
                        [r["i"] % 5 == 0 for r in rows]
                    ),
                    1: BitVector.from_bits([r["i"] >= 10 for r in rows]),
                },
            )
    return ParquetLiteReader(path)


class TestColumnBatch:
    def test_column_backed_materialization(self):
        batch = ColumnBatch.from_columns(
            {"a": [1, 2, 3], "b": ["x", "y", "z"]}, 3, names=["a", "b"]
        )
        assert list(batch.iter_rows()) == [
            {"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}
        ]

    def test_selection_vector_filters_materialization(self):
        batch = ColumnBatch.from_columns({"a": [1, 2, 3, 4]}, 4,
                                         names=["a"])
        batch.apply_mask(BitVector.from_bits([1, 0, 0, 1]))
        assert [r["a"] for r in batch.iter_rows()] == [1, 4]
        assert batch.selected_count() == 2

    def test_missing_column_reads_null(self):
        batch = ColumnBatch.from_columns({"a": [1]}, 1, names=["a"])
        assert batch.column("ghost") == [None]

    def test_row_backed_preserves_ragged_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        batch = ColumnBatch.from_rows(rows)
        assert list(batch.iter_rows()) == rows
        assert batch.column("a") == [1, None]

    def test_project_shares_columns(self):
        batch = ColumnBatch.from_columns({"a": [1], "b": [2]}, 1,
                                         names=["a", "b"])
        projected = batch.project(["b"])
        assert list(projected.iter_rows()) == [{"b": 2}]

    def test_truncate_selected(self):
        batch = ColumnBatch.from_columns({"a": list(range(6))}, 6,
                                         names=["a"])
        batch.apply_mask(BitVector.from_bits([0, 1, 1, 0, 1, 1]))
        cut = batch.truncate_selected(2)
        assert [r["a"] for r in cut.iter_rows()] == [1, 2]

    def test_sel_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnBatch.from_columns({"a": [1, 2]}, 2, names=["a"],
                                     sel=BitVector.ones(3))


class TestEvaluateBatch:
    """evaluate_batch must agree with per-row evaluate on every value."""

    VALUES = [1, 2, None, True, False, "a", "1", 1.0, 2.5, 0, -3, [1]]

    def _batch(self):
        return ColumnBatch.from_columns(
            {"x": self.VALUES}, len(self.VALUES), names=["x"]
        )

    @pytest.mark.parametrize("sql", [
        "x = 1", "x != 1", "x < 2", "x <= 2", "x > 1", "x >= 1",
        "x = '1'", "x != 'a'", "x = true", "x = false", "x = 1.0",
        "x IS NULL", "x IS NOT NULL", "x LIKE 'a%'", "x LIKE '%1%'",
        "x = 1 AND x < 2", "x = 1 OR x = 'a'", "NOT x = 1",
        "x IN (1, 'a')",
    ])
    def test_matches_scalar_semantics(self, sql):
        where = parse_sql(f"SELECT * FROM t WHERE {sql}").where
        batch = self._batch()
        got = where.evaluate_batch(batch).to_bits()
        want = [
            1 if where.evaluate({"x": v}) else 0 for v in self.VALUES
        ]
        assert got == want, f"{sql}: {got} != {want}"

    def test_generic_fallback_for_exotic_shapes(self):
        # Literal-to-literal comparison exercises the base-class path.
        from repro.engine import Comparison, Literal

        expr = Comparison(Literal(1), "=", Literal(1))
        batch = self._batch()
        assert expr.evaluate_batch(batch).all()


class TestCompileLike:
    PATTERNS = ["", "%", "%%", "abc", "abc%", "%abc", "%abc%", "a%b",
                "a%b%c", "%a%b%", "ha%", "a%%b"]
    VALUES = ["", "a", "abc", "abcd", "xabc", "xabcx", "ab", "acb",
              "a123b", "a1b2c", "ha!", "hah"]

    def test_agrees_with_like_match(self):
        for pattern in self.PATTERNS:
            match = compile_like(pattern)
            for value in self.VALUES:
                assert match(value) == like_match(pattern, value), (
                    f"pattern {pattern!r} on {value!r}"
                )


class TestBatchScans:
    def test_parquet_scan_one_batch_per_group(self, parquet):
        stats = ExecutionStats()
        batches = list(ParquetScan(parquet).batches(stats))
        assert [b.num_rows for b in batches] == [10, 10]
        assert stats.rows_examined == 20
        assert stats.row_groups_total == 2

    def test_skipping_scan_mask_becomes_selection(self, parquet):
        stats = ExecutionStats()
        batches = list(SkippingScan(parquet, [0]).batches(stats))
        assert [b.selected_count() for b in batches] == [2, 2]
        assert stats.tuples_skipped == 16
        assert stats.rows_examined == 4

    def test_skipping_scan_empty_group_never_decodes(self, parquet):
        stats = ExecutionStats()
        batches = list(SkippingScan(parquet, [1]).batches(stats))
        assert len(batches) == 1  # first group skipped whole
        assert stats.row_groups_skipped == 1

    def test_sparse_selection_filters_survivors_row_wise(self, tmp_path):
        """The residual filter's sparse path (few pushdown survivors in a
        big group) must agree with the vectorized path bit-for-bit."""
        rows = [{"i": i, "name": f"u{i}"} for i in range(64)]
        path = tmp_path / "sparse.pql"
        with ParquetLiteWriter(path, infer_schema(rows)) as writer:
            # Two true matches + one false positive in one 64-row group.
            writer.write_row_group(rows, bitvectors={
                0: BitVector.from_indices(64, [3, 40, 41]),
            })
        reader = ParquetLiteReader(path)
        where = parse_sql(
            "SELECT * FROM t WHERE i = 3 OR i = 41").where
        assert 3 * Filter.SPARSE_SELECTION_DIVISOR <= 64  # sparse path
        stats = ExecutionStats()
        plan = Filter(SkippingScan(reader, [0]), where)
        got = [r["i"] for r in collect(plan, stats)]
        assert got == [3, 41]  # false positive 40 removed, order kept

    def test_sideline_scan_batches_preserve_record_dicts(self, tmp_path):
        store = JsonSideStore(tmp_path / "s.jsonl")
        store.append(0, [dump_record({"a": 1}), dump_record({"b": 2})])
        stats = ExecutionStats()
        rows = collect(SidelineScan([(store.path, store.record_count)]),
                       stats)
        assert rows == [{"a": 1}, {"b": 2}]  # ragged keys intact
        assert stats.sideline_records_parsed == 2

    def test_count_only_plan_never_touches_columns(self, parquet):
        """COUNT(*) without WHERE decodes no pages at all."""
        stats = ExecutionStats()
        q = parse_sql("SELECT COUNT(*) FROM t")
        scan = ParquetScan(parquet, columns=[])
        (row,) = collect(Aggregate(scan, q.select), stats)
        assert row == {"count(*)": 20}
        for group in parquet.row_groups():
            assert group._cache == {}  # nothing was decoded

    def test_operator_must_implement_batches(self):
        class Nothing(Operator):
            def describe(self):
                return "Nothing"

        with pytest.raises(TypeError, match="batches"):
            Nothing()


class TestLimitEarlyTermination:
    """A satisfied LIMIT must stop decoding remaining row groups; the
    close propagates through ChainScan/Filter/Project into the scans."""

    def _wide_parquet(self, tmp_path, n_groups=10, group_rows=10):
        rows = [{"i": i} for i in range(n_groups * group_rows)]
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "wide.pql"
        with ParquetLiteWriter(path, infer_schema(rows)) as writer:
            for start in range(0, len(rows), group_rows):
                writer.write_row_group(rows[start:start + group_rows])
        return ParquetLiteReader(path)

    def test_limit_stops_scan_after_first_group(self, tmp_path):
        reader = self._wide_parquet(tmp_path)
        stats = ExecutionStats()
        plan = Limit(ParquetScan(reader), 3)
        rows = collect(plan, stats)
        assert [r["i"] for r in rows] == [0, 1, 2]
        # Only the first row group was examined, not all 100 rows.
        assert stats.rows_examined == 10
        assert stats.row_groups_total == 1

    def test_limit_closes_through_chain_filter_project(self, tmp_path):
        reader_a = self._wide_parquet(tmp_path / "a")
        reader_b = self._wide_parquet(tmp_path / "b")
        where = parse_sql("SELECT * FROM t WHERE i >= 0").where
        plan = Limit(
            Project(
                Filter(
                    ChainScan([ParquetScan(reader_a),
                               ParquetScan(reader_b)]),
                    where,
                ),
                ["i"],
            ),
            5,
        )
        stats = ExecutionStats()
        rows = collect(plan, stats)
        assert len(rows) == 5
        # One group of reader_a satisfies the limit; reader_b untouched.
        assert stats.row_groups_total == 1
        assert stats.rows_examined == 10

    def test_limit_zero_examines_nothing(self, tmp_path):
        reader = self._wide_parquet(tmp_path)
        stats = ExecutionStats()
        assert collect(Limit(ParquetScan(reader), 0), stats) == []
        assert stats.rows_examined == 0
