"""Parquet-lite: the from-scratch columnar storage substrate, plus the raw
JSON sideline store used by partial loading."""

from .columnar import (
    ParquetLiteError,
    ParquetLiteReader,
    ParquetLiteWriter,
    write_records,
)
from .encodings import Encoding, EncodingError, choose_encoding
from .jsonstore import JsonSideStore, SidelineView
from .metadata import MAGIC, ColumnChunkMeta, FileMeta, RowGroupMeta
from .pages import PageStats, page_encoding, read_page, write_page
from .rowgroup import RowGroupReader, build_row_group
from .schema import (
    ColumnType,
    Field,
    Schema,
    SchemaError,
    coerce_value,
    infer_schema,
)

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
    "RowGroupMeta",
    "RowGroupReader",
    "Schema",
    "SchemaError",
    "SidelineView",
    "build_row_group",
    "choose_encoding",
    "coerce_value",
    "infer_schema",
    "page_encoding",
    "read_page",
    "write_page",
    "write_records",
]
