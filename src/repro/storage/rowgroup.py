"""Row-group assembly: columns in, column chunks + metadata out.

A row group is the skipping granularity: its footer entry carries one
predicate bit-vector per pushed predicate (one bit per row), so a scan
rules a group out when a vector it needs is empty.  Groups are sized by
rows, not by writer calls: the partial loader keeps a part's loaded rows
(as columns) until it holds :data:`ROW_GROUP_ROWS` of them or seals, then
writes them as one group, and compaction re-groups merged parts to the
same size.

The build is column-major: each column is pulled out of the rows once
(:func:`~repro.storage.schema.column_values`, by
:func:`build_row_group`, or by the caller of :func:`build_column_group`),
coerced in one bulk step by its exact type set
(:func:`~repro.storage.schema.coerce_column`, which falls back to the
per-value :func:`~repro.storage.schema.coerce_value` for any other type
set) and written as one page.  No Python call runs per
value or per bit on the common path.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.sanitizer import make_lock
from ..bitvec.bitvector import BitVector
from .encodings import Encoding
from .metadata import ColumnChunkMeta, RowGroupMeta
from .pages import read_page, write_page
from .schema import Schema, coerce_column, column_values


#: Rows per row group that a writer fills before starting the next: the
#: loader's seal-time grouping and compaction's re-grouping both use it.
#: Big enough that per-group costs (a footer entry and a vector per
#: predicate, a batch per scan) stay small beside the rows, small enough
#: that an empty bit-vector still rules out a useful slice of a part.
ROW_GROUP_ROWS = 1024


def build_row_group(
    rows: Sequence[Mapping[str, Any]],
    schema: Schema,
    base_offset: int,
    bitvectors: Optional[Mapping[int, BitVector]] = None,
    encoding: Optional[Encoding] = None,
) -> Tuple[bytes, RowGroupMeta]:
    """Encode *rows* into a row-group block positioned at *base_offset*.

    Pulls each schema column out of *rows* and hands them to
    :func:`build_column_group`.
    """
    if not rows:
        raise ValueError("row groups must contain at least one row")
    columns = {field.name: column_values(rows, field.name)
               for field in schema}
    return build_column_group(columns, len(rows), schema, base_offset,
                              bitvectors=bitvectors, encoding=encoding)


def build_column_group(
    columns: Mapping[str, List[Any]],
    row_count: int,
    schema: Schema,
    base_offset: int,
    bitvectors: Optional[Mapping[int, BitVector]] = None,
    encoding: Optional[Encoding] = None,
) -> Tuple[bytes, RowGroupMeta]:
    """Encode *row_count* rows, given as *columns*, into a row-group block
    positioned at *base_offset*.

    Returns the block bytes and its metadata (column chunk offsets are
    absolute file offsets, so the caller passes where the block will land).
    A schema column missing from *columns* is all nulls; every column
    given holds exactly *row_count* values.
    """
    if row_count <= 0:
        raise ValueError("row groups must contain at least one row")
    meta = RowGroupMeta(row_count=row_count)
    block = bytearray()
    for field in schema:
        values = columns.get(field.name)
        if values is None:
            values = [None] * row_count
        elif len(values) != row_count:
            raise ValueError(
                f"column {field.name!r} has {len(values)} values for a "
                f"row group of {row_count} rows"
            )
        values = coerce_column(values, field.type)
        page, stats = write_page(values, field.type, encoding=encoding)
        meta.columns[field.name] = ColumnChunkMeta(
            offset=base_offset + len(block),
            length=len(page),
            stats=stats,
        )
        block += page
    if bitvectors:
        for predicate_id, bv in bitvectors.items():
            meta.attach_bitvector(predicate_id, bv)
    return bytes(block), meta


class RowGroupReader:
    """Decode columns of one row group from an open file.

    Concurrent queries share one file handle per Parquet-lite file (the
    catalog caches readers), so page reads must not race on the handle's
    seek position: where the platform has :func:`os.pread` the read is
    positionless and lock-free; otherwise *read_lock* serializes the
    seek+read pair.  Pass the same lock to every row group of one file.
    """

    def __init__(self, file_handle, schema: Schema, meta: RowGroupMeta,
                 read_lock=None):
        self._file = file_handle
        self._schema = schema
        self.meta = meta
        # guarded-by: _read_lock (the shared handle's seek position, on
        # platforms without pread)
        self._read_lock = read_lock or make_lock(
            "RowGroupReader._read_lock"
        )
        self._cache: Dict[str, List[Any]] = {}

    def _read_at(self, offset: int, length: int) -> bytes:
        """Read *length* bytes at *offset* without racing other readers."""
        try:
            fd = self._file.fileno()
        except (AttributeError, OSError):
            fd = None
        if fd is not None and hasattr(os, "pread"):
            parts: List[bytes] = []
            remaining = length
            position = offset
            while remaining > 0:
                part = os.pread(fd, remaining, position)
                if not part:
                    break
                parts.append(part)
                position += len(part)
                remaining -= len(part)
            return b"".join(parts)
        with self._read_lock:
            self._file.seek(offset)
            return self._file.read(length)

    @property
    def row_count(self) -> int:
        """Rows in this group."""
        return self.meta.row_count

    def column(self, name: str) -> List[Any]:
        """Decode (and cache) one column.

        The decoded list is kept until :meth:`clear_cache` or until this
        reader is dropped: the query engine never clears it, so a page is
        decoded once for every query that reads it while the table
        caches this file's reader (as long as the part stays in the
        table's view).  Callers must not mutate the list.  The cache is
        not locked: concurrent first readers of a column may each decode
        the page, and each gets a correct list; the last one stays
        cached.

        A column missing from this file's schema reads as all nulls — a
        query may reference keys that no loaded record ever had, or that
        only appear in a later, wider file of the same table.
        """
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        chunk = self.meta.columns.get(name)
        if chunk is None:
            values: List[Any] = [None] * self.meta.row_count
        else:
            page = self._read_at(chunk.offset, chunk.length)
            values = read_page(page, self._schema.field(name).type)
        self._cache[name] = values
        return values

    def read_batch(self, columns: Optional[Sequence[str]] = None
                   ) -> Dict[str, List[Any]]:
        """Decode the requested columns once, as column value lists.

        This is the columnar fast path under the batch query engine: each
        page is decoded exactly once and handed over as a plain list —
        no per-row dict is ever materialized (compare :meth:`rows`).
        Columns absent from the schema read as all-null lists, matching
        :meth:`column`.
        """
        names = list(columns) if columns is not None else self._schema.names
        return {name: self.column(name) for name in names}

    def rows(self, columns: Optional[Sequence[str]] = None,
             indices: Optional[Sequence[int]] = None
             ) -> List[Dict[str, Any]]:
        """Materialize rows as dicts.

        ``columns`` restricts which columns are decoded (projection
        pushdown); ``indices`` restricts which row positions materialize
        (the data-skipping hook — skipped rows are never built).
        """
        names = list(columns) if columns is not None else self._schema.names
        data = {name: self.column(name) for name in names}
        positions = indices if indices is not None else range(self.row_count)
        return [
            {name: data[name][i] for name in names} for i in positions
        ]

    def clear_cache(self) -> None:
        """Drop decoded column caches.

        For one-pass readers of a whole file (a compaction rewrite,
        :meth:`~repro.storage.columnar.ParquetLiteReader.iter_rows`), so
        memory holds one group at a time.  The query engine does not
        call it: its decoded columns live as long as the table keeps
        the reader.
        """
        self._cache.clear()
