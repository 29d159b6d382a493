"""Parquet-lite file writer and reader.

File layout::

    [MAGIC "PQL2"]
    [row group 0 block][row group 1 block]...
    [footer JSON]
    [footer length: 8 bytes little-endian]
    [MAGIC "PQL2"]

A row group block is its columns' pages back to back, each page
zlib-compressed when that makes it smaller (:mod:`repro.storage.pages`).
Writers write ``PQL2``; readers also accept ``PQL1`` files, whose pages
are never compressed.

The footer (see :mod:`repro.storage.metadata`) carries the schema, column
chunk locations, per-column stats, and CIAO's per-row-group predicate
bit-vectors.  Readers memory-map nothing and cache decoded columns per row
group; the format favours clarity over raw I/O tricks, but the *layout*
decisions (columnar pages, row-group skipping, footer-last) are the real
ones.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..analysis.sanitizer import make_lock
from ..bitvec.bitvector import BitVector
from .encodings import Encoding
from .metadata import MAGIC, READABLE_MAGICS, FileMeta, RowGroupMeta
from .rowgroup import (RowGroupReader, build_column_group,
                       build_row_group)
from .schema import Schema, infer_schema


class ParquetLiteError(ValueError):
    """Corrupt or inconsistent Parquet-lite file."""


class ParquetLiteWriter:
    """Streaming writer: append row groups, then :meth:`close` the footer.

    Usable as a context manager; the footer is written on exit.
    """

    def __init__(self, path: str | Path, schema: Schema,
                 encoding: Optional[Encoding] = None):
        self.path = Path(path)
        self.schema = schema
        self._encoding = encoding
        self._file = open(self.path, "wb")
        self._file.write(MAGIC)
        self._meta = FileMeta(schema=schema)
        self._closed = False

    def write_row_group(
        self,
        rows: Sequence[Mapping[str, Any]],
        bitvectors: Optional[Mapping[int, BitVector]] = None,
    ) -> RowGroupMeta:
        """Append *rows* as one row group with optional predicate
        bit-vectors (see :func:`~repro.storage.rowgroup.build_row_group`).
        """
        self._check_open()
        block, meta = build_row_group(
            rows,
            self.schema,
            base_offset=self._file.tell(),
            bitvectors=bitvectors,
            encoding=self._encoding,
        )
        return self._append(block, meta)

    def write_columns(
        self,
        columns: Mapping[str, List[Any]],
        row_count: int,
        bitvectors: Optional[Mapping[int, BitVector]] = None,
    ) -> RowGroupMeta:
        """Append *row_count* rows, given as *columns*, as one row group
        (see :func:`~repro.storage.rowgroup.build_column_group`)."""
        self._check_open()
        block, meta = build_column_group(
            columns,
            row_count,
            self.schema,
            base_offset=self._file.tell(),
            bitvectors=bitvectors,
            encoding=self._encoding,
        )
        return self._append(block, meta)

    def _append(self, block: bytes, meta: RowGroupMeta) -> RowGroupMeta:
        self._file.write(block)
        self._meta.row_groups.append(meta)
        return meta

    def close(self) -> FileMeta:
        """Write the footer and seal the file."""
        self._check_open()
        footer = self._meta.serialize()
        self._file.write(footer)
        self._file.write(len(footer).to_bytes(8, "little"))
        self._file.write(MAGIC)
        self._file.close()
        self._closed = True
        return self._meta

    def abandon(self) -> None:
        """Close the file without a footer, as a crash leaves it: it
        stays unreadable.  A no-op once closed."""
        self._file.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ParquetLiteError("writer already closed")

    def __enter__(self) -> "ParquetLiteWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            if exc_type is None:
                self.close()
            else:
                self.abandon()  # leave no half-written footer


class ParquetLiteReader:
    """Reader with row-group granularity and bit-vector access.

    Row-shaped consumers use :meth:`iter_rows`/:meth:`read_all`;
    columnar consumers (the batch query engine) go per row group via
    :meth:`repro.storage.rowgroup.RowGroupReader.read_batch`, which
    decodes each page once into plain value lists with no row dicts.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = open(self.path, "rb")
        self.meta = self._read_footer()
        # One lock per file: every row group shares the handle, so the
        # no-pread fallback in RowGroupReader must serialize across them.
        read_lock = make_lock("ParquetLiteReader._read_lock")
        self._groups = [
            RowGroupReader(self._file, self.meta.schema, rg,
                           read_lock=read_lock)
            for rg in self.meta.row_groups
        ]
        # Built once here and never mutated: cached readers are shared by
        # concurrent queries without a lock.
        self._all_groups = (1 << len(self._groups)) - 1
        self._summary = self._vector_summary()

    def _vector_summary(self) -> Dict[int, Tuple[int, int]]:
        """Per stored predicate id, two ints with one bit per row group:
        the groups whose vector for the id has a set bit, and the groups
        that store a vector for the id at all."""
        nonempty: Dict[int, int] = {}
        stored: Dict[int, int] = {}
        for index, rg in enumerate(self.meta.row_groups):
            bit = 1 << index
            for pid, bv in rg.bitvectors.items():
                stored[pid] = stored.get(pid, 0) | bit
                if bv.any():
                    nonempty[pid] = nonempty.get(pid, 0) | bit
        return {pid: (nonempty.get(pid, 0), groups)
                for pid, groups in stored.items()}

    def _read_footer(self) -> FileMeta:
        f = self._file
        f.seek(0, 2)
        size = f.tell()
        tail = len(MAGIC) + 8
        if size < len(MAGIC) + tail:
            raise ParquetLiteError(
                f"{self.path} is too small to be Parquet-lite"
            )
        f.seek(0)
        magic = f.read(len(MAGIC))
        if magic not in READABLE_MAGICS:
            raise ParquetLiteError(f"{self.path}: bad leading magic")
        f.seek(size - tail)
        footer_len = int.from_bytes(f.read(8), "little")
        if f.read(len(MAGIC)) != magic:
            raise ParquetLiteError(f"{self.path}: bad trailing magic")
        footer_start = size - tail - footer_len
        if footer_start < len(MAGIC):
            raise ParquetLiteError(f"{self.path}: footer length corrupt")
        f.seek(footer_start)
        return FileMeta.deserialize(f.read(footer_len))

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The file schema."""
        return self.meta.schema

    @property
    def total_rows(self) -> int:
        """Total rows across row groups."""
        return self.meta.total_rows

    def __len__(self) -> int:
        return len(self._groups)

    def row_group(self, index: int) -> RowGroupReader:
        """Reader for row group *index*."""
        return self._groups[index]

    def row_groups(self) -> Iterator[RowGroupReader]:
        """Iterate row-group readers in file order."""
        return iter(self._groups)

    def iter_rows(self, columns: Optional[Sequence[str]] = None
                  ) -> Iterator[Dict[str, Any]]:
        """Full scan, optionally projected."""
        for group in self._groups:
            yield from group.rows(columns=columns)
            group.clear_cache()

    def read_all(self) -> List[Dict[str, Any]]:
        """Materialize the whole file (tests / small files)."""
        return list(self.iter_rows())

    def candidate_groups(self, predicate_ids: Iterable[int]) -> int:
        """The row groups a scan over *predicate_ids* must visit, as an int
        with bit ``g`` for group ``g``.

        A group is ruled out only when every id stores a vector there and
        one of them is empty.  A group missing some id's vector (the
        predicate was pushed after the group loaded, or never reached this
        part) may match anything and is scanned in full.
        """
        matching = self._all_groups
        missing = 0
        for pid in predicate_ids:
            nonempty, stored = self._summary.get(pid, (0, 0))
            matching &= nonempty
            missing |= self._all_groups & ~stored
        return matching | missing

    def bitvector(self, group_index: int,
                  predicate_id: int) -> Optional[BitVector]:
        """The stored bit-vector for (row group, predicate), if any."""
        rg = self.meta.row_groups[group_index]
        return rg.bitvectors.get(predicate_id)

    def close(self) -> None:
        """Release the file handle."""
        self._file.close()

    def __enter__(self) -> "ParquetLiteReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def write_records(path: str | Path,
                  records: Sequence[Mapping[str, Any]],
                  row_group_size: int = 1000,
                  schema: Optional[Schema] = None,
                  encoding: Optional[Encoding] = None) -> FileMeta:
    """Convenience: write records in fixed-size row groups.

    Infers the schema from all records unless one is given.
    """
    if not records:
        raise ValueError("cannot write an empty Parquet-lite file")
    if row_group_size <= 0:
        raise ValueError("row_group_size must be positive")
    schema = schema or infer_schema(records)
    with ParquetLiteWriter(path, schema, encoding=encoding) as writer:
        for start in range(0, len(records), row_group_size):
            writer.write_row_group(records[start:start + row_group_size])
    return writer._meta
