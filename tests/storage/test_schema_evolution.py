"""Unit tests for schema widening and loader file rotation."""

import pytest

from repro.bitvec import BitVector
from repro.rawjson import JsonChunk, dump_record
from repro.server import ClientAssistedLoader
from repro.storage import (
    ColumnType,
    Field,
    JsonSideStore,
    ParquetLiteReader,
    Schema,
)
from repro.storage.schema import merge_schemas, schema_covers


def schema(**fields):
    return Schema([Field(n, t) for n, t in fields.items()])


class TestSchemaCovers:
    def test_identical_schemas_cover(self):
        a = schema(x=ColumnType.INT64)
        assert schema_covers(a, a)

    def test_missing_field_not_covered(self):
        assert not schema_covers(
            schema(x=ColumnType.INT64),
            schema(x=ColumnType.INT64, y=ColumnType.STRING),
        )

    def test_extra_fields_are_fine(self):
        assert schema_covers(
            schema(x=ColumnType.INT64, y=ColumnType.STRING),
            schema(x=ColumnType.INT64),
        )

    def test_float_covers_int(self):
        assert schema_covers(
            schema(x=ColumnType.FLOAT64), schema(x=ColumnType.INT64)
        )
        assert not schema_covers(
            schema(x=ColumnType.INT64), schema(x=ColumnType.FLOAT64)
        )

    def test_json_covers_everything(self):
        for t in ColumnType:
            assert schema_covers(schema(x=ColumnType.JSON), schema(x=t))

    def test_string_does_not_cover_int(self):
        assert not schema_covers(
            schema(x=ColumnType.STRING), schema(x=ColumnType.INT64)
        )


class TestMergeSchemas:
    def test_union_preserves_current_order(self):
        merged = merge_schemas(
            schema(a=ColumnType.INT64, b=ColumnType.STRING),
            schema(c=ColumnType.BOOL, a=ColumnType.INT64),
        )
        assert merged.names == ["a", "b", "c"]

    def test_numeric_promotion(self):
        merged = merge_schemas(
            schema(x=ColumnType.INT64), schema(x=ColumnType.FLOAT64)
        )
        assert merged.field("x").type is ColumnType.FLOAT64

    def test_conflict_falls_back_to_json(self):
        merged = merge_schemas(
            schema(x=ColumnType.STRING), schema(x=ColumnType.INT64)
        )
        assert merged.field("x").type is ColumnType.JSON

    def test_merged_covers_both(self):
        a = schema(x=ColumnType.INT64, y=ColumnType.STRING)
        b = schema(x=ColumnType.FLOAT64, z=ColumnType.BOOL)
        merged = merge_schemas(a, b)
        assert schema_covers(merged, a)
        assert schema_covers(merged, b)


class TestLoaderRotation:
    def make_chunk(self, records, chunk_id=0):
        chunk = JsonChunk(chunk_id, [dump_record(r) for r in records])
        chunk.attach(0, BitVector.ones(len(records)))
        return chunk

    def test_new_key_rotates_to_wider_file(self, tmp_path):
        loader = ClientAssistedLoader(
            tmp_path / "t.pql", JsonSideStore(tmp_path / "s.jsonl"),
            partial_loading=True,
        )
        loader.ingest(self.make_chunk([{"a": 1}], 0))
        loader.ingest(self.make_chunk([{"a": 2, "b": "new"}], 1))
        loader.finalize()
        assert len(loader.parquet_paths) == 2
        with ParquetLiteReader(loader.parquet_paths[1]) as reader:
            assert "b" in reader.schema

    def test_compatible_chunks_share_one_file(self, tmp_path):
        loader = ClientAssistedLoader(
            tmp_path / "t.pql", JsonSideStore(tmp_path / "s.jsonl"),
            partial_loading=True,
        )
        loader.ingest(self.make_chunk([{"a": 1, "b": "x"}], 0))
        loader.ingest(self.make_chunk([{"a": 2}], 1))  # subset is fine
        loader.finalize()
        assert len(loader.parquet_paths) == 1
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            rows = reader.read_all()
        assert rows[1]["b"] is None

    def test_queries_span_rotated_files(self, tmp_path):
        from repro.server import CiaoServer

        server = CiaoServer(tmp_path)
        server.ingest(JsonChunk(0, [dump_record({"a": 1})]))
        server.ingest(JsonChunk(1, [dump_record({"a": 2, "b": "x"})]))
        server.finalize_loading()
        assert server.query("SELECT COUNT(*) FROM t").scalar() == 2
        assert server.query(
            "SELECT COUNT(*) FROM t WHERE b = 'x'"
        ).scalar() == 1
        # Column absent from the first file reads as null there.
        assert server.query(
            "SELECT COUNT(*) FROM t WHERE b IS NULL"
        ).scalar() == 1

    def test_query_on_never_seen_column(self, tmp_path):
        from repro.server import CiaoServer

        server = CiaoServer(tmp_path)
        server.ingest(JsonChunk(0, [dump_record({"a": 1})]))
        server.finalize_loading()
        assert server.query(
            "SELECT COUNT(*) FROM t WHERE ghost = 'x'"
        ).scalar() == 0
