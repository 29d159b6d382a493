"""Wire format for client→server chunks.

Layout::

    [MAGIC "CIA3"]
    [u32 header length][header JSON (UTF-8)]
    [u32 records length][records: newline-joined raw JSON, UTF-8]
    [u32 block length][bit-vector block]

The header carries the chunk id, record count *n*, and the predicate ids,
strictly increasing.  The block is the chunk's
:class:`~repro.bitvec.bitvector.BitMatrix`: one row per header id, in
header order, each ``ceil(n/8)`` bytes holding that id's packed
bit-vector (bit ``i`` of the little-endian row is record ``i``; row
``r``'s bytes are :meth:`~repro.bitvec.bitvector.BitVector.to_bytes`
without its u32 length).  ``n/8`` bytes per id against a few hundred bytes
per record of raw JSON keep the block well under 1 % of a frame, and
encoding it is one ``int.to_bytes``.  (``CIA2`` frames shipped one
``[u32 length][BitVector.to_bytes()]`` section per predicate, so both
ends did per-predicate work; ``CIA1`` frames also offered run-length
encoded vectors.)

Decoding is *strict*: every length field is bounds-checked before the bytes
it describes are touched, the block length must equal ``k * ceil(n/8)``
for the header's *k* ids before the block is read, duplicate or unordered
predicate ids are rejected, and any corruption — truncation at an
arbitrary byte offset, bad UTF-8, a malformed header, a set padding bit in
any row of the block — raises :class:`ProtocolError` (never ``IndexError``
or a silent mis-parse).  Decoding is also *iterative and zero-copy*: it
walks a ``memoryview`` cursor over the payload, so the sharded ingest
workers (:mod:`repro.server.pipeline`) can decode concurrent chunks
without re-copying record blobs, and :func:`decode_chunk_stream` yields
successive chunks straight out of one concatenated buffer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..bitvec.bitvector import BitMatrix
from ..rawjson.chunks import JsonChunk
from ..rawjson.errors import JsonError
from ..rawjson.parser import loads
from ..rawjson.writer import dumps

MAGIC = b"CIA3"

#: Default chunk frames concatenated per channel message.  Measured in
#: ``benchmarks/bench_parallel_ingest.py`` (see
#: ``benchmarks/results/batched_framing.txt``): per-message overhead is a
#: fixed cost, so batching wins in proportion to how small messages are —
#: ~2.1× transport time on the file-spool channel (the paper's
#: deployment) at 25-record chunks, ~1.1× at 250 — while the in-memory
#: delta is noise next to parse cost.  Returns diminish past ~8 frames.
DEFAULT_SHIP_BATCH = 8

class ProtocolError(ValueError):
    """Malformed chunk payload."""


def encode_chunk(chunk: JsonChunk) -> bytes:
    """Serialize a chunk with its bit-vector block."""
    header = dumps(
        {
            "chunk_id": chunk.chunk_id,
            "records": len(chunk.records),
            "predicates": chunk.predicate_ids,
        }
    ).encode("utf-8")
    records_blob = "\n".join(chunk.records).encode("utf-8")
    block = chunk.matrix.to_block()
    out = bytearray()
    out += MAGIC
    out += len(header).to_bytes(4, "little")
    out += header
    out += len(records_blob).to_bytes(4, "little")
    out += records_blob
    out += len(block).to_bytes(4, "little")
    out += block
    return bytes(out)


def encode_frame_batch(
    chunks: "Iterable[JsonChunk | bytes | bytearray | memoryview]",
) -> bytes:
    """Concatenate several chunk frames into one channel message.

    Frames are self-delimiting, so batching is plain concatenation; the
    point is to amortize per-message transport overhead (queue puts, spool
    files, message latency) across many small chunks.  Items may be
    :class:`JsonChunk` objects (encoded here) or already-encoded frame
    bytes (forwarded verbatim).  The receiver splits the batch back apart
    with :func:`split_frames` or decodes it wholesale with
    :func:`decode_chunk_stream`.
    """
    out = bytearray()
    for item in chunks:
        if isinstance(item, JsonChunk):
            out += encode_chunk(item)
        elif isinstance(item, (bytes, bytearray, memoryview)):
            out += item
        else:
            raise TypeError(
                f"frame batches carry JsonChunk or bytes, "
                f"got {type(item).__name__}"
            )
    return bytes(out)


def split_frames(data: bytes | bytearray | memoryview
                 ) -> Iterator[memoryview]:
    """Yield each chunk frame of a (possibly batched) payload, undecoded.

    Walks the frame structure — header, records length, block length —
    without parsing records or decoding bit-vectors, so
    a dispatcher can split a batch and ship individual frames to shard
    workers while staying off the expensive decode path.  A single
    un-batched frame yields itself.  Raises :class:`ProtocolError` on any
    structural corruption, like the full decoder would.
    """
    view = memoryview(data)
    pos = 0
    while pos < len(view):
        start = pos
        pos = _skip_one(view, pos)
        yield view[start:pos]


def _skip_one(view: memoryview, pos: int) -> int:
    """Advance past one chunk frame starting at *pos*; returns next_pos."""
    magic, pos = _take(view, pos, len(MAGIC), "chunk magic")
    if bytes(magic) != MAGIC:
        raise ProtocolError("bad chunk magic")
    header_len, pos = _read_u32(view, pos)
    header_blob, pos = _take(view, pos, header_len, "chunk header")
    header = _parse_header(header_blob)
    records_len, pos = _read_u32(view, pos)
    _, pos = _take(view, pos, records_len, "records payload")
    _, pos = _take_block(view, pos, header)
    return pos


def decode_chunk(data: bytes | bytearray | memoryview) -> JsonChunk:
    """Inverse of :func:`encode_chunk`, with structural validation."""
    view = memoryview(data)
    chunk, pos = _decode_one(view, 0)
    if pos != len(view):
        raise ProtocolError(f"{len(view) - pos} trailing bytes after chunk")
    return chunk


def decode_chunk_stream(data: bytes | bytearray | memoryview
                        ) -> Iterator[JsonChunk]:
    """Yield successive chunks from a buffer of concatenated frames.

    The iterative counterpart of :func:`decode_chunk` for transports that
    batch several encoded chunks into one payload: each frame is decoded in
    place off a shared ``memoryview``, so nothing is re-copied per chunk.
    """
    view = memoryview(data)
    pos = 0
    while pos < len(view):
        chunk, pos = _decode_one(view, pos)
        yield chunk


def _decode_one(view: memoryview, pos: int) -> Tuple[JsonChunk, int]:
    """Decode one chunk frame starting at *pos*; returns (chunk, next_pos)."""
    magic, pos = _take(view, pos, len(MAGIC), "chunk magic")
    if bytes(magic) != MAGIC:
        raise ProtocolError("bad chunk magic")
    header_len, pos = _read_u32(view, pos)
    header_blob, pos = _take(view, pos, header_len, "chunk header")
    header = _parse_header(header_blob)
    records_len, pos = _read_u32(view, pos)
    records_view, pos = _take(view, pos, records_len, "records payload")
    try:
        records_blob = str(records_view, "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"records payload is not valid UTF-8: {exc}")
    records: List[str] = records_blob.split("\n") if records_blob else []
    if len(records) != header["records"]:
        raise ProtocolError(
            f"header declares {header['records']} records, payload has "
            f"{len(records)}"
        )
    chunk = JsonChunk(chunk_id=header["chunk_id"], records=records)
    block, pos = _take_block(view, pos, header)
    try:
        chunk.matrix = BitMatrix.from_block(header["predicates"],
                                            len(records), block)
    except ValueError as exc:
        raise ProtocolError(f"corrupt bit-vector block: {exc}")
    return chunk, pos


def _take_block(view: memoryview, pos: int, header: dict
                ) -> Tuple[memoryview, int]:
    """Read the bit-vector block's length, check it against the header's
    shape, then take the block: a corrupt frame never sizes a read."""
    block_len, pos = _read_u32(view, pos)
    expected = len(header["predicates"]) * ((header["records"] + 7) // 8)
    if block_len != expected:
        raise ProtocolError(
            f"bit-vector block declares {block_len} bytes; "
            f"{len(header['predicates'])} rows of {header['records']} "
            f"bits need {expected}"
        )
    return _take(view, pos, block_len, "bit-vector block")


def _parse_header(blob: memoryview) -> dict:
    """Parse and validate the chunk header JSON."""
    try:
        header = loads(str(blob, "utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"chunk header is not valid UTF-8: {exc}")
    except JsonError as exc:
        raise ProtocolError(f"chunk header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise ProtocolError("chunk header must be a JSON object")
    chunk_id = header.get("chunk_id")
    n_records = header.get("records")
    predicates = header.get("predicates")
    if not isinstance(chunk_id, int) or isinstance(chunk_id, bool):
        raise ProtocolError("chunk header needs an integer 'chunk_id'")
    if (not isinstance(n_records, int) or isinstance(n_records, bool)
            or n_records < 0):
        raise ProtocolError(
            "chunk header needs a non-negative integer 'records'"
        )
    # type() is exact: a bool (JSON true/false) is not an int here.
    if not isinstance(predicates, list) or not set(
        map(type, predicates)
    ) <= {int}:
        raise ProtocolError(
            "chunk header needs a list of integer 'predicates'"
        )
    if len(set(predicates)) != len(predicates):
        raise ProtocolError("duplicate predicate ids in chunk header")
    if predicates != sorted(predicates):
        raise ProtocolError("chunk header predicate ids are not in order")
    return header


def bitvector_overhead(chunk: JsonChunk) -> Tuple[int, int]:
    """(record payload bytes, bit-vector block bytes) for one chunk."""
    records_blob = "\n".join(chunk.records).encode("utf-8")
    return len(records_blob), len(chunk.matrix.to_block())


def _take(view: memoryview, pos: int, size: int, what: str
          ) -> Tuple[memoryview, int]:
    """Bounds-checked cursor advance; raises before touching bytes."""
    if size < 0 or pos + size > len(view):
        raise ProtocolError(f"truncated {what}")
    return view[pos:pos + size], pos + size  # ciaolint: allow[PRO001] -- this IS the checked cursor primitive


def _read_u32(view: memoryview, pos: int) -> Tuple[int, int]:
    if pos + 4 > len(view):
        raise ProtocolError("truncated length field")
    return int.from_bytes(view[pos:pos + 4], "little"), pos + 4  # ciaolint: allow[PRO001] -- length prechecked on the line above
