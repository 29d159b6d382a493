"""The row-group writer value by value: the reference the bulk writer matches.

The storage write path builds each row group column by column with
C-level bulk operations (type sets, ``bytes(map(...))``, ``itemgetter``
gathers).  This module is the same writer one value and one bit at a
time — every coercion through :func:`coerce_value`, every varint through
:func:`write_varint`, every null-bitmap bit through ``BitVector.set`` —
so a differential test can demand equal bytes, equal page statistics and
equal exceptions from both.  The one intended difference from the
historical per-value writer is the zigzag fix: integers of any width map
``v >= 0`` to ``v << 1``.

Pages follow Parquet's per-page compression rule, spelled out here on its
own (:func:`compress_if_smaller`); ``compress=False`` writes the
uncompressed pages of ``PQL1`` files.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bitvec import BitVector
from repro.storage import ColumnType, Encoding, Field, Schema, SchemaError
from repro.storage.encodings import write_varint
from repro.storage.metadata import ColumnChunkMeta, RowGroupMeta
from repro.storage.pages import PageStats
from repro.storage.schema import coerce_value

_ENCODING_TAGS = {Encoding.PLAIN: 0, Encoding.DICTIONARY: 1, Encoding.RLE: 2}
#: Tag bit of a compressed page.
COMPRESSED_FLAG = 0x80


# ----------------------------------------------------------------------
# Encodings
# ----------------------------------------------------------------------
def zigzag_encode(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def encode_plain(values: Sequence[Any], column_type: ColumnType) -> bytes:
    out = bytearray()
    if column_type in (ColumnType.STRING, ColumnType.JSON):
        for value in values:
            raw = value.encode("utf-8")
            write_varint(out, len(raw))
            out += raw
    elif column_type is ColumnType.INT64:
        for value in values:
            write_varint(out, zigzag_encode(value))
    elif column_type is ColumnType.FLOAT64:
        out += struct.pack(f"<{len(values)}d", *values)
    elif column_type is ColumnType.BOOL:
        byte = 0
        for i, value in enumerate(values):
            if value:
                byte |= 1 << (i & 7)
            if i & 7 == 7:
                out.append(byte)
                byte = 0
        if len(values) & 7:
            out.append(byte)
    else:
        raise ValueError(f"unhandled column type {column_type}")
    return bytes(out)


def encode_dictionary(values: Sequence[Any],
                      column_type: ColumnType) -> bytes:
    dictionary: List[Any] = []
    index_of: Dict[Any, int] = {}
    indices: List[int] = []
    for value in values:
        slot = index_of.get(value)
        if slot is None:
            slot = len(dictionary)
            index_of[value] = slot
            dictionary.append(value)
        indices.append(slot)
    out = bytearray()
    write_varint(out, len(dictionary))
    dict_bytes = encode_plain(dictionary, column_type)
    write_varint(out, len(dict_bytes))
    out += dict_bytes
    for index in indices:
        write_varint(out, index)
    return bytes(out)


def encode_rle(values: Sequence[Any], column_type: ColumnType) -> bytes:
    out = bytearray()
    runs: List[Tuple[int, Any]] = []
    for value in values:
        if runs and runs[-1][1] == value and type(runs[-1][1]) is type(value):
            runs[-1] = (runs[-1][0] + 1, value)
        else:
            runs.append((1, value))
    write_varint(out, len(runs))
    for length, value in runs:
        write_varint(out, length)
        encoded = encode_plain([value], column_type)
        write_varint(out, len(encoded))
        out += encoded
    return bytes(out)


_ENCODERS = {
    Encoding.PLAIN: encode_plain,
    Encoding.DICTIONARY: encode_dictionary,
    Encoding.RLE: encode_rle,
}


def choose_encoding(values: Sequence[Any],
                    column_type: ColumnType) -> Encoding:
    if not values:
        return Encoding.PLAIN
    sample = values if len(values) <= 512 else values[:512]
    distinct = len(set(sample))
    runs = 1 + sum(1 for a, b in zip(sample, sample[1:]) if a != b)
    if runs <= len(sample) // 4:
        return Encoding.RLE
    if (column_type in (ColumnType.STRING, ColumnType.JSON,
                        ColumnType.INT64)
            and distinct <= len(sample) // 2):
        return Encoding.DICTIONARY
    return Encoding.PLAIN


# ----------------------------------------------------------------------
# Pages and row groups
# ----------------------------------------------------------------------
def compress_if_smaller(page: bytes) -> bytes:
    """The page's compressed form when that is shorter, else the page.

    The compressed form flags the tag, then holds the length of the
    bytes after the tag and their zlib (level 1) stream.
    """
    compressed = bytearray([page[0] | COMPRESSED_FLAG])
    write_varint(compressed, len(page) - 1)
    compressed += zlib.compress(page[1:], 1)
    if len(compressed) < len(page):
        return bytes(compressed)
    return page


def write_page(values: Sequence[Any], column_type: ColumnType,
               encoding: Optional[Encoding] = None, compress: bool = True
               ) -> Tuple[bytes, PageStats]:
    presence = BitVector(len(values))
    non_null: List[Any] = []
    for i, value in enumerate(values):
        if value is not None:
            presence.set(i)
            non_null.append(value)
    chosen = encoding or choose_encoding(non_null, column_type)
    payload = _ENCODERS[chosen](non_null, column_type)
    bitmap = presence.to_bytes()
    out = bytearray()
    out.append(_ENCODING_TAGS[chosen])
    write_varint(out, len(values))
    write_varint(out, len(bitmap))
    out += bitmap
    write_varint(out, len(payload))
    out += payload
    null_count = len(values) - len(non_null)
    # A float page holding an infinity keeps no bounds (JSON footers
    # have no infinity).
    unbounded = column_type is ColumnType.FLOAT64 and any(
        abs(value) == math.inf for value in non_null
    )
    if not non_null or column_type is ColumnType.JSON or unbounded:
        stats = PageStats(len(values), null_count, None, None)
    else:
        stats = PageStats(len(values), null_count, min(non_null),
                          max(non_null))
    page = bytes(out)
    return (compress_if_smaller(page) if compress else page), stats


def build_row_group(
    rows: Sequence[Mapping[str, Any]],
    schema: Schema,
    base_offset: int,
    bitvectors: Optional[Mapping[int, BitVector]] = None,
    encoding: Optional[Encoding] = None,
    compress: bool = True,
) -> Tuple[bytes, RowGroupMeta]:
    if not rows:
        raise ValueError("row groups must contain at least one row")
    meta = RowGroupMeta(row_count=len(rows))
    block = bytearray()
    for field in schema:
        values = [
            coerce_value(row.get(field.name), field.type) for row in rows
        ]
        page, stats = write_page(values, field.type, encoding=encoding,
                                 compress=compress)
        meta.columns[field.name] = ColumnChunkMeta(
            offset=base_offset + len(block), length=len(page), stats=stats,
        )
        block += page
    if bitvectors:
        for predicate_id, bv in bitvectors.items():
            meta.attach_bitvector(predicate_id, bv)
    return bytes(block), meta


# ----------------------------------------------------------------------
# Schema inference
# ----------------------------------------------------------------------
def _classify(value: Any) -> Optional[ColumnType]:
    if value is None:
        return None
    if isinstance(value, bool):
        return ColumnType.BOOL
    if isinstance(value, int):
        return ColumnType.INT64
    if isinstance(value, float):
        return ColumnType.FLOAT64
    if isinstance(value, str):
        return ColumnType.STRING
    return ColumnType.JSON


def infer_schema(records: Sequence[Mapping[str, Any]]) -> Schema:
    seen: Dict[str, Optional[ColumnType]] = {}
    order: List[str] = []
    for record in records:
        for key, value in record.items():
            if key not in seen:
                seen[key] = None
                order.append(key)
            kind = _classify(value)
            if kind is None:
                continue
            current = seen[key]
            if current is None or current == kind:
                seen[key] = kind
            elif {current, kind} == {ColumnType.INT64, ColumnType.FLOAT64}:
                seen[key] = ColumnType.FLOAT64
            else:
                seen[key] = ColumnType.JSON
    if not order:
        raise SchemaError("cannot infer a schema from zero records")
    return Schema(
        [Field(name, seen[name] or ColumnType.STRING) for name in order]
    )


# ----------------------------------------------------------------------
# Bit vectors
# ----------------------------------------------------------------------
def select(bv: BitVector, positions: Sequence[int]) -> BitVector:
    """``bv.select(positions)``, one bit test per position."""
    length = len(bv)
    data = bv.to_bytes()[4:]
    gathered = 0
    for row, position in enumerate(positions):
        if not 0 <= position < length:
            raise IndexError(f"bit {position} out of range for {length} bits")
        if data[position >> 3] >> (position & 7) & 1:
            gathered |= 1 << row
    payload = gathered.to_bytes((len(positions) + 7) // 8, "little")
    return BitVector(len(positions), payload)


def split_by_mask(mask: BitVector) -> Tuple[List[int], List[int]]:
    """``JsonChunk.split_by_mask``: (set positions, clear positions)."""
    bits = mask.to_bits()
    return ([i for i, bit in enumerate(bits) if bit],
            [i for i, bit in enumerate(bits) if not bit])
