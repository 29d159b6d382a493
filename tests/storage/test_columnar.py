"""Unit tests for the Parquet-lite file format."""

import pytest

from repro.bitvec import BitVector
from repro.storage import (
    ColumnType,
    Field,
    ParquetLiteError,
    ParquetLiteReader,
    ParquetLiteWriter,
    RowGroupMeta,
    Schema,
    infer_schema,
    write_records,
)

RECORDS = [
    {"name": f"user{i}", "score": i, "active": i % 2 == 0,
     "ratio": i / 4, "tags": [i, i + 1]}
    for i in range(25)
]


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "table.pql"


class TestRoundtrip:
    def test_write_read_all(self, path):
        write_records(path, RECORDS, row_group_size=10)
        with ParquetLiteReader(path) as reader:
            rows = reader.read_all()
        assert len(rows) == 25
        assert rows[3]["name"] == "user3"
        assert rows[3]["score"] == 3
        assert rows[3]["active"] is False
        assert rows[3]["ratio"] == 0.75
        assert rows[3]["tags"] == "[3,4]"  # JSON column re-serialized

    def test_row_group_partitioning(self, path):
        write_records(path, RECORDS, row_group_size=10)
        with ParquetLiteReader(path) as reader:
            assert len(reader) == 3
            assert [g.row_count for g in reader.row_groups()] == [10, 10, 5]
            assert reader.total_rows == 25

    def test_projection(self, path):
        write_records(path, RECORDS, row_group_size=10)
        with ParquetLiteReader(path) as reader:
            rows = list(reader.iter_rows(columns=["score"]))
        assert rows[0] == {"score": 0}

    def test_index_materialization(self, path):
        write_records(path, RECORDS, row_group_size=25)
        with ParquetLiteReader(path) as reader:
            rows = reader.row_group(0).rows(indices=[1, 7])
        assert [r["score"] for r in rows] == [1, 7]

    def test_missing_keys_become_nulls(self, path):
        records = [{"a": 1, "b": "x"}, {"a": 2}]
        write_records(path, records)
        with ParquetLiteReader(path) as reader:
            rows = reader.read_all()
        assert rows[1]["b"] is None


class TestBitvectorMetadata:
    def test_roundtrip(self, path):
        schema = infer_schema(RECORDS)
        bv = BitVector.from_bits([i % 3 == 0 for i in range(25)])
        with ParquetLiteWriter(path, schema) as writer:
            writer.write_row_group(RECORDS, bitvectors={4: bv})
        with ParquetLiteReader(path) as reader:
            assert reader.bitvector(0, 4) == bv
            assert reader.bitvector(0, 5) is None
            assert reader.meta.predicate_ids == [4]

    def test_candidate_groups(self, path):
        # Predicate 0: set only in group 1, stored everywhere.  Predicate
        # 1: stored only from group 1 on (pushed after group 0 loaded),
        # empty in group 2.
        schema = infer_schema(RECORDS)
        rows = RECORDS[:4]
        vectors = [
            {0: BitVector(4)},
            {0: BitVector.from_bits([0, 1, 0, 0]),
             1: BitVector.from_bits([1, 0, 0, 0])},
            {0: BitVector(4), 1: BitVector(4)},
        ]
        with ParquetLiteWriter(path, schema) as writer:
            for bitvectors in vectors:
                writer.write_row_group(rows, bitvectors=bitvectors)
        with ParquetLiteReader(path) as reader:
            assert reader.candidate_groups([0]) == 0b010
            assert reader.candidate_groups([1]) == 0b011  # missing: may match
            # Group 0 lacks predicate 1's vector, so it is scanned in full
            # even though predicate 0's vector there is empty.
            assert reader.candidate_groups([0, 1]) == 0b011
            assert reader.candidate_groups([9]) == 0b111  # stored nowhere
            assert reader.candidate_groups([0, 9]) == 0b111
            assert reader.candidate_groups([]) == 0b111

    def test_length_validated(self, path):
        schema = infer_schema(RECORDS)
        with ParquetLiteWriter(path, schema) as writer:
            with pytest.raises(ValueError):
                writer.write_row_group(RECORDS,
                                       bitvectors={0: BitVector(3)})
            writer.write_row_group(RECORDS)

    def test_footer_with_source_chunk_id_still_reads(self):
        # Footers written when a row group held one client chunk carry
        # the chunk id; the reader ignores it.
        meta = RowGroupMeta(row_count=2)
        meta.attach_bitvector(3, BitVector.from_bits([1, 0]))
        legacy = dict(meta.to_dict(), source_chunk_id=7)
        assert "source_chunk_id" not in meta.to_dict()
        assert RowGroupMeta.from_dict(legacy).to_dict() == meta.to_dict()


class TestWriteColumns:
    def test_columns_equal_rows(self, tmp_path):
        schema = infer_schema(RECORDS)
        bv = BitVector.from_bits([i % 3 == 0 for i in range(25)])
        by_rows, by_columns = tmp_path / "rows.pql", tmp_path / "cols.pql"
        with ParquetLiteWriter(by_rows, schema) as writer:
            writer.write_row_group(RECORDS, bitvectors={4: bv})
        columns = {name: [r[name] for r in RECORDS] for name in schema.names}
        with ParquetLiteWriter(by_columns, schema) as writer:
            writer.write_columns(columns, len(RECORDS), bitvectors={4: bv})
        assert by_columns.read_bytes() == by_rows.read_bytes()

    def test_missing_column_is_null_and_lengths_checked(self, path):
        schema = Schema([Field("a", ColumnType.INT64),
                         Field("b", ColumnType.STRING)])
        with ParquetLiteWriter(path, schema) as writer:
            with pytest.raises(ValueError, match="3 values"):
                writer.write_columns({"a": [1, 2, 3]}, 2)
            with pytest.raises(ValueError):
                writer.write_columns({}, 0)
            writer.write_columns({"a": [1, 2]}, 2)
        with ParquetLiteReader(path) as reader:
            assert reader.read_all() == [{"a": 1, "b": None},
                                         {"a": 2, "b": None}]


class TestColumnStats:
    def test_min_max_in_footer(self, path):
        write_records(path, RECORDS, row_group_size=25)
        with ParquetLiteReader(path) as reader:
            meta = reader.meta.row_groups[0].columns["score"]
        assert meta.stats.min_value == 0
        assert meta.stats.max_value == 24
        assert meta.stats.null_count == 0


class TestErrors:
    def test_corrupt_magic_rejected(self, path):
        write_records(path, RECORDS)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ParquetLiteError):
            ParquetLiteReader(path)

    def test_truncated_file_rejected(self, path):
        write_records(path, RECORDS)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ParquetLiteError):
            ParquetLiteReader(path)

    def test_writer_rejects_use_after_close(self, path):
        schema = Schema([Field("a", ColumnType.INT64)])
        writer = ParquetLiteWriter(path, schema)
        writer.write_row_group([{"a": 1}])
        writer.close()
        with pytest.raises(ParquetLiteError):
            writer.write_row_group([{"a": 2}])

    def test_empty_row_group_rejected(self, path):
        schema = Schema([Field("a", ColumnType.INT64)])
        with ParquetLiteWriter(path, schema) as writer:
            with pytest.raises(ValueError):
                writer.write_row_group([])
            writer.write_row_group([{"a": 1}])

    def test_write_records_validation(self, path):
        with pytest.raises(ValueError):
            write_records(path, [])
        with pytest.raises(ValueError):
            write_records(path, RECORDS, row_group_size=0)

    def test_aborted_writer_leaves_no_footer(self, path):
        schema = Schema([Field("a", ColumnType.INT64)])
        try:
            with ParquetLiteWriter(path, schema) as writer:
                writer.write_row_group([{"a": 1}])
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with pytest.raises(ParquetLiteError):
            ParquetLiteReader(path)


class TestConcurrentReads:
    """Regression: one cached reader serves many querying threads.

    The catalog shares one ParquetLiteReader (one file handle) across
    every concurrent query; page reads racing on the handle's seek
    position used to hand raw neighbouring bytes to read_page, which
    surfaced as "unknown encoding tag" under concurrent remote serving.
    """

    def test_threads_share_one_reader(self, path):
        records = [
            {"name": f"user{i}", "score": i, "active": i % 2 == 0,
             "ratio": i / 4}
            for i in range(2000)
        ]
        write_records(path, records, row_group_size=50)
        reader = ParquetLiteReader(path)
        expected_scores = list(range(2000))
        errors = []

        def scan(column, expect):
            try:
                for _ in range(5):
                    got = []
                    for group in reader.row_groups():
                        got.extend(group.column(column))
                        group.clear_cache()  # force page re-reads
                    if got != expect:
                        errors.append(f"{column}: corrupted scan")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(f"{column}: {exc!r}")

        import threading
        names = ["user%d" % i for i in range(2000)]
        threads = [
            threading.Thread(target=scan, args=("score", expected_scores)),
            threading.Thread(target=scan, args=("name", names)),
            threading.Thread(target=scan, args=("score", expected_scores)),
            threading.Thread(target=scan, args=("name", names)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reader.close()
        assert not errors, errors
