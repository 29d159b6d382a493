"""File and row-group metadata for Parquet-lite.

The footer is where CIAO's integration with the storage format lives: each
row group carries, besides per-column statistics, the **predicate
bit-vectors** derived from the client chunks whose records were loaded into
it (paper §VI-A: "we store the bit-vector information of this object into
the metadata of each data block of the Parquet file").

The footer is JSON, written by :mod:`repro.rawjson.writer` and read by
:mod:`repro.rawjson.parser`.  Bit-vector payloads are hex-encoded strings
inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..bitvec.bitvector import BitVector, intersect_all
from ..rawjson.parser import loads
from ..rawjson.writer import dumps
from .pages import PageStats
from .schema import Schema

#: Format magic / version, first and last bytes of every file written.
#: ``PQL2`` files may hold zlib-compressed pages (:mod:`.pages`).
MAGIC = b"PQL2"
#: Every magic a reader accepts: ``PQL1`` files (no compressed pages)
#: stay readable, though nothing writes them any more.
READABLE_MAGICS = (b"PQL1", MAGIC)


@dataclass
class ColumnChunkMeta:
    """Location and statistics of one column chunk within a row group."""

    offset: int
    length: int
    stats: PageStats

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for the footer."""
        return {
            "offset": self.offset,
            "length": self.length,
            "row_count": self.stats.row_count,
            "null_count": self.stats.null_count,
            "min": self.stats.min_value,
            "max": self.stats.max_value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ColumnChunkMeta":
        """Inverse of :meth:`to_dict`."""
        return cls(
            offset=data["offset"],
            length=data["length"],
            stats=PageStats(
                row_count=data["row_count"],
                null_count=data["null_count"],
                min_value=data["min"],
                max_value=data["max"],
            ),
        )


@dataclass
class RowGroupMeta:
    """One row group: column locations, row count, and CIAO bit-vectors."""

    row_count: int
    columns: Dict[str, ColumnChunkMeta] = field(default_factory=dict)
    bitvectors: Dict[int, BitVector] = field(default_factory=dict)

    def attach_bitvector(self, predicate_id: int, bv: BitVector) -> None:
        """Attach a derived predicate bit-vector (one bit per loaded row)."""
        if len(bv) != self.row_count:
            raise ValueError(
                f"bit-vector has {len(bv)} bits for a row group of "
                f"{self.row_count} rows"
            )
        self.bitvectors[predicate_id] = bv

    def survivor_mask(self, predicate_ids: Iterable[int]
                      ) -> Optional[BitVector]:
        """The rows every id's stored vector admits: the AND of the ids'
        vectors (§VI-B).

        ``None`` when an id stores no vector here (it was pushed after
        this group loaded) or no id is given: the group may match
        anything and must be scanned in full.
        """
        vectors = [self.bitvectors.get(pid) for pid in predicate_ids]
        if not vectors or any(bv is None for bv in vectors):
            return None
        return intersect_all(vectors)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for the footer."""
        return {
            "row_count": self.row_count,
            "columns": {
                name: meta.to_dict() for name, meta in self.columns.items()
            },
            "bitvectors": {
                str(pid): bv.to_bytes().hex()
                for pid, bv in self.bitvectors.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RowGroupMeta":
        """Inverse of :meth:`to_dict`.

        Footers written when a row group held one client chunk also
        carry a ``source_chunk_id`` key; it is ignored.
        """
        meta = cls(row_count=data["row_count"])
        for name, column in data["columns"].items():
            meta.columns[name] = ColumnChunkMeta.from_dict(column)
        for pid, payload in data.get("bitvectors", {}).items():
            meta.bitvectors[int(pid)] = BitVector.from_bytes(
                bytes.fromhex(payload)
            )
        return meta


@dataclass
class FileMeta:
    """The footer: schema, row groups, global row count."""

    schema: Schema
    row_groups: List[RowGroupMeta] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        """Rows across all row groups."""
        return sum(rg.row_count for rg in self.row_groups)

    @property
    def predicate_ids(self) -> List[int]:
        """All predicate ids annotated anywhere in the file, sorted."""
        ids = set()
        for rg in self.row_groups:
            ids.update(rg.bitvectors)
        return sorted(ids)

    def serialize(self) -> bytes:
        """Footer bytes (JSON, UTF-8)."""
        return dumps(
            {
                "schema": self.schema.to_dict(),
                "row_groups": [rg.to_dict() for rg in self.row_groups],
            }
        ).encode("utf-8")

    @classmethod
    def deserialize(cls, payload: bytes) -> "FileMeta":
        """Inverse of :meth:`serialize`."""
        data = loads(payload.decode("utf-8"))
        meta = cls(schema=Schema.from_dict(data["schema"]))
        meta.row_groups = [
            RowGroupMeta.from_dict(rg) for rg in data["row_groups"]
        ]
        return meta
