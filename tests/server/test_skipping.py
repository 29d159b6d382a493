"""Unit tests for data-skipping analysis utilities."""

import pytest

from repro.bitvec import BitVector
from repro.core import Query, clause, exact, key_value
from repro.engine import TableEntry
from repro.server import (
    estimate_skipping,
    query_predicate_ids,
    skipping_benefit_fractions,
)
from repro.storage import ParquetLiteReader, ParquetLiteWriter, infer_schema

ROWS = [{"name": f"u{i}", "age": i % 3} for i in range(12)]
C_NAME = clause(exact("name", "u1"))
C_AGE = clause(key_value("age", 0))
C_OTHER = clause(exact("name", "zz"))


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "t.pql"
    with ParquetLiteWriter(path, infer_schema(ROWS)) as writer:
        for start in (0, 6):
            rows = ROWS[start:start + 6]
            writer.write_row_group(
                rows,
                bitvectors={
                    0: BitVector.from_bits(
                        [r["name"] == "u1" for r in rows]
                    ),
                    1: BitVector.from_bits([r["age"] == 0 for r in rows]),
                },
            )
    return TableEntry(
        name="t", parquet_paths=[path],
        pushdown={C_NAME: 0, C_AGE: 1},
    )


class TestQueryPredicateIds:
    def test_matched_subset(self, table):
        q = Query((C_NAME, C_OTHER))
        assert query_predicate_ids(q, table) == [0]

    def test_unmatched_query(self, table):
        assert query_predicate_ids(Query((C_OTHER,)), table) == []


class TestResolveGroupMask:
    """A group's mask is the storage helper both the scan and the
    estimate resolve it with."""

    def test_intersection(self, table):
        meta = table.open_readers()[0].meta.row_groups[0]
        mask = meta.survivor_mask([0, 1])
        assert mask == meta.bitvectors[0] & meta.bitvectors[1]

    def test_missing_id_returns_none(self, table):
        meta = table.open_readers()[0].meta.row_groups[0]
        assert meta.survivor_mask([0, 9]) is None
        assert meta.survivor_mask([]) is None


class TestEstimate:
    def test_counts(self, table):
        estimate = estimate_skipping(Query((C_NAME,)), table)
        assert estimate.total_rows == 12
        assert estimate.surviving_rows == 1  # only u1
        assert estimate.tuples_skipped == 11
        assert estimate.row_groups == 2
        assert estimate.skippable_row_groups == 1  # second group: no u1
        assert estimate.benefits
        assert estimate.skip_fraction == pytest.approx(11 / 12)

    def test_uncovered_query_does_not_benefit(self, table):
        estimate = estimate_skipping(Query((C_OTHER,)), table)
        assert not estimate.benefits
        assert estimate.surviving_rows == 12


class TestBenefitFractions:
    def test_fractions(self, table):
        queries = [
            Query((C_NAME,)),    # benefits
            Query((C_AGE,)),     # benefits
            Query((C_OTHER,)),   # uncovered
        ]
        stats = skipping_benefit_fractions(queries, table)
        assert stats["queries"] == 3.0
        assert stats["covered_fraction"] == pytest.approx(2 / 3)
        assert stats["benefiting_fraction"] == pytest.approx(2 / 3)

    def test_empty_query_list(self, table):
        stats = skipping_benefit_fractions([], table)
        assert stats["benefiting_fraction"] == 0.0
