"""Column-chunk pages: null bitmap + encoded values, with a tiny header.

Page layout (all integers varint unless noted):

    [encoding tag: 1 byte]
    [row count: varint]
    [null bitmap length: varint][null bitmap: BitVector bytes]
    [values length: varint][encoded non-null values]

The null bitmap has one bit per row (1 = present); only present values are
encoded, Parquet-style.

Every page is then offered to zlib (level 1), and the compressed form is
kept only when it is smaller, Parquet's per-page rule.  A compressed page
sets bit ``0x80`` of its tag and replaces everything after the tag::

    [encoding tag | 0x80: 1 byte]
    [uncompressed length: varint]
    [zlib stream of the bytes that followed the tag]

Pages written before compression existed (``PQL1`` files) never set the
bit, so one reader serves both.  Inflation is bounded by the stated
length, and a corrupt stream or a stated length the stream does not
match raises :class:`~repro.storage.encodings.EncodingError`.  A reader
inflates a page once, when it first decodes it; decoded pages are cached
per row group (:class:`~repro.storage.rowgroup.RowGroupReader`).

The writer works on the whole column at once: the presence flags are one
``bytes(map(is_not, values, repeat(None)))``, packed into the bitmap by
:meth:`~repro.bitvec.bitvector.BitVector.from_flags` (``translate`` plus
``int(…, 2)``), and the present values are one ``itertools.compress``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import Any, List, Optional, Sequence, Tuple

from ..bitvec.bitvector import BitVector
from .encodings import (
    Encoding,
    EncodingError,
    choose_encoding,
    decode,
    encode,
    read_varint,
    write_varint,
)
from .schema import ColumnType

_ENCODING_TAGS = {
    Encoding.PLAIN: 0,
    Encoding.DICTIONARY: 1,
    Encoding.RLE: 2,
}
_TAG_ENCODINGS = {tag: enc for enc, tag in _ENCODING_TAGS.items()}
#: Tag bit of a page stored zlib-compressed.
_COMPRESSED = 0x80
#: zlib level: the fastest, since pages are compressed on the load path.
_ZLIB_LEVEL = 1
#: Deflate never inflates past about 1032 bytes per stream byte, so a
#: stated length beyond that is a lie, rejected before inflating.
_MAX_INFLATE_RATIO = 1032


@dataclass(frozen=True)
class PageStats:
    """Per-page statistics kept in row-group metadata.

    min/max are tracked for orderable scalar types and are ``None`` for
    JSON columns or all-null pages; null_count always populated.
    """

    row_count: int
    null_count: int
    min_value: Optional[Any]
    max_value: Optional[Any]


def write_page(values: Sequence[Any], column_type: ColumnType,
               encoding: Optional[Encoding] = None
               ) -> Tuple[bytes, PageStats]:
    """Encode one column's values (with nulls) into a page.

    ``encoding`` forces a specific encoding (the ablation bench does);
    the default defers to :func:`choose_encoding` over non-null values.
    """
    flags = bytes(map(is_not, values, repeat(None)))
    non_null = list(compress(values, flags))
    presence = BitVector.from_flags(flags)
    chosen = encoding or choose_encoding(non_null, column_type)
    payload = encode(non_null, column_type, chosen)
    bitmap = presence.to_bytes()
    out = bytearray()
    out.append(_ENCODING_TAGS[chosen])
    write_varint(out, len(values))
    write_varint(out, len(bitmap))
    out += bitmap
    write_varint(out, len(payload))
    out += payload
    stats = _compute_stats(values, non_null, column_type)
    return _compress_if_smaller(out), stats


def _compress_if_smaller(page: bytearray) -> bytes:
    """*page*, or its compressed form when that is smaller."""
    with memoryview(page) as view:
        stream = zlib.compress(view[1:], _ZLIB_LEVEL)
    header = bytearray((page[0] | _COMPRESSED,))
    write_varint(header, len(page) - 1)
    if len(header) + len(stream) < len(page):
        header += stream
        return bytes(header)
    return bytes(page)


def read_page(data: bytes, column_type: ColumnType) -> List[Any]:
    """Decode a page back to its values (with ``None`` for nulls)."""
    encoding, data, pos = _page_body(data)
    row_count, pos = read_varint(data, pos)
    bitmap_len, pos = read_varint(data, pos)
    bitmap_end = pos + bitmap_len
    if bitmap_end > len(data):
        raise EncodingError("truncated null bitmap")
    presence = BitVector.from_bytes(data[pos:bitmap_end])
    pos = bitmap_end
    payload_len, pos = read_varint(data, pos)
    payload_end = pos + payload_len
    if payload_end > len(data):
        raise EncodingError("truncated page payload")
    payload = data[pos:payload_end]
    if len(presence) != row_count:
        raise EncodingError("null bitmap does not match page row count")
    n_present = presence.count()
    non_null = decode(payload, n_present, column_type, encoding)
    if n_present == row_count:
        # Dense page (no nulls): the decoded list already is the column,
        # no per-row scatter needed — the common case on the batch
        # engine's hot decode path.
        return non_null
    values: List[Any] = [None] * row_count
    for slot, row in enumerate(presence.iter_set()):
        values[row] = non_null[slot]
    return values


def page_encoding(data: bytes) -> Encoding:
    """Peek a page's encoding without decoding it (diagnostics)."""
    if not data:
        raise EncodingError("empty page")
    try:
        return _TAG_ENCODINGS[data[0] & ~_COMPRESSED]
    except KeyError:
        raise EncodingError(f"unknown encoding tag {data[0]}") from None


def _page_body(data: bytes) -> Tuple[Encoding, bytes, int]:
    """``(encoding, body, start)``: the page's bytes after its tag are
    ``body[start:]``, inflated first if the page is compressed."""
    encoding = page_encoding(data)
    if not data[0] & _COMPRESSED:
        return encoding, data, 1
    raw_len, pos = read_varint(data, 1)
    stream = data[pos:]
    if not 0 < raw_len <= _MAX_INFLATE_RATIO * len(stream):
        raise EncodingError(
            f"compressed page states {raw_len} bytes for a "
            f"{len(stream)}-byte stream"
        )
    inflater = zlib.decompressobj()
    try:
        body = inflater.decompress(stream, raw_len)
    except zlib.error as exc:
        raise EncodingError(f"corrupt compressed page: {exc}") from None
    if len(body) != raw_len or not inflater.eof or inflater.unused_data:
        raise EncodingError(
            f"compressed page does not inflate to its stated {raw_len} "
            f"bytes"
        )
    return encoding, body, 0


def _compute_stats(values: Sequence[Any], non_null: Sequence[Any],
                   column_type: ColumnType) -> PageStats:
    null_count = len(values) - len(non_null)
    if not non_null or column_type is ColumnType.JSON:
        return PageStats(len(values), null_count, None, None)
    return PageStats(
        row_count=len(values),
        null_count=null_count,
        min_value=min(non_null),
        max_value=max(non_null),
    )
