"""Parquet-lite: the from-scratch columnar storage substrate, plus the raw
JSON sideline store used by partial loading."""

from .. import _lazy

__all__ = [
    "ColumnChunkMeta",
    "ColumnType",
    "Encoding",
    "EncodingError",
    "Field",
    "FileMeta",
    "JsonSideStore",
    "MAGIC",
    "PageStats",
    "ParquetLiteError",
    "ParquetLiteReader",
    "ParquetLiteWriter",
    "ROW_GROUP_ROWS",
    "RowGroupMeta",
    "RowGroupReader",
    "Schema",
    "SchemaError",
    "SidelineView",
    "build_column_group",
    "build_row_group",
    "choose_encoding",
    "coerce_value",
    "infer_schema",
    "page_encoding",
    "read_page",
    "write_page",
    "write_records",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".columnar": (
        "ParquetLiteError", "ParquetLiteReader", "ParquetLiteWriter",
        "write_records"),
    ".encodings": ("Encoding", "EncodingError", "choose_encoding"),
    ".jsonstore": ("JsonSideStore", "SidelineView"),
    ".metadata": ("MAGIC", "ColumnChunkMeta", "FileMeta", "RowGroupMeta"),
    ".pages": ("PageStats", "page_encoding", "read_page", "write_page"),
    ".rowgroup": ("ROW_GROUP_ROWS", "RowGroupReader", "build_column_group",
                  "build_row_group"),
    ".schema": (
        "ColumnType", "Field", "Schema", "SchemaError", "coerce_value",
        "infer_schema"),
})
