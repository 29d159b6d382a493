"""Wire format for client→server chunks.

Layout::

    [MAGIC "CIA2"]
    [u32 header length][header JSON (UTF-8)]
    [u32 records length][records: newline-joined raw JSON, UTF-8]
    per predicate, in header order:
        [u32 payload length][packed bit-vector]

The header carries the chunk id, record count, and the predicate ids.  Each
bit-vector ships packed (:meth:`~repro.bitvec.bitvector.BitVector.to_bytes`:
a u32 bit length, then one bit per record): ``n/8`` bytes against a few
hundred bytes per record of raw JSON, so vectors stay well under 1 % of a
frame, and encoding one is a copy, not a scan for runs.  (``CIA1`` frames
also offered run-length-encoded vectors; choosing per vector cost more CPU
on both ends than the bytes it saved.)

Decoding is *strict*: every length field is bounds-checked before the bytes
it describes are touched, duplicate predicate ids are rejected, and any
corruption — truncation at an arbitrary byte offset, bad UTF-8, a malformed
header, set bits in bit-vector tail padding — raises :class:`ProtocolError`
(never ``IndexError`` or a silent mis-parse).  Decoding is also *iterative
and zero-copy*: it walks a ``memoryview`` cursor over the payload, so the
sharded ingest workers (:mod:`repro.server.pipeline`) can decode concurrent
chunks without re-copying record blobs, and :func:`decode_chunk_stream`
yields successive chunks straight out of one concatenated buffer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..bitvec.bitvector import BitVector
from ..rawjson.chunks import JsonChunk
from ..rawjson.errors import JsonError
from ..rawjson.parser import loads
from ..rawjson.writer import dumps

MAGIC = b"CIA2"

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
    """Serialize a chunk with its bit-vectors."""
    pred_ids = chunk.predicate_ids
    header = dumps(
        {
            "chunk_id": chunk.chunk_id,
            "records": len(chunk.records),
            "predicates": pred_ids,
        }
    ).encode("utf-8")
    records_blob = "\n".join(chunk.records).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += len(header).to_bytes(4, "little")
    out += header
    out += len(records_blob).to_bytes(4, "little")
    out += records_blob
    for pid in pred_ids:
        payload = chunk.bitvectors[pid].to_bytes()
        out += len(payload).to_bytes(4, "little")
        out += payload
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

    Walks the frame structure — header, records length, per-predicate
    segment lengths — without parsing records or decoding bit-vectors, so
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
    for _ in header["predicates"]:
        payload_len, pos = _read_u32(view, pos)
        _, pos = _take(view, pos, payload_len, "bit-vector payload")
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
    for pid in header["predicates"]:
        payload_len, pos = _read_u32(view, pos)
        payload, pos = _take(view, pos, payload_len, "bit-vector payload")
        if payload_len < 4:
            raise ProtocolError("truncated bit-vector payload")
        # Check the declared bit length against the record count BEFORE
        # decoding: a wrong-length vector is corruption, and a corrupt
        # frame must not size an allocation.
        declared_bits = int.from_bytes(payload[:4], "little")
        if declared_bits != len(records):
            raise ProtocolError(
                f"bit-vector for predicate {pid} declares {declared_bits} "
                f"bits for {len(records)} records"
            )
        try:
            chunk.attach(pid, BitVector.from_bytes(payload))
        except ValueError as exc:
            raise ProtocolError(
                f"corrupt bit-vector for predicate {pid}: {exc}"
            )
    return chunk, pos


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
    if not isinstance(predicates, list) or any(
        not isinstance(p, int) or isinstance(p, bool) for p in predicates
    ):
        raise ProtocolError(
            "chunk header needs a list of integer 'predicates'"
        )
    if len(set(predicates)) != len(predicates):
        raise ProtocolError("duplicate predicate ids in chunk header")
    return header


def bitvector_overhead(chunk: JsonChunk) -> Tuple[int, int]:
    """(record payload bytes, bit-vector payload bytes) for one chunk."""
    encoded = encode_chunk(chunk)
    records_blob = "\n".join(chunk.records).encode("utf-8")
    # Everything past magic+headers+records is bit-vector payload.
    header = dumps(
        {
            "chunk_id": chunk.chunk_id,
            "records": len(chunk.records),
            "predicates": chunk.predicate_ids,
        }
    ).encode("utf-8")
    fixed = len(MAGIC) + 4 + len(header) + 4 + len(records_blob)
    return len(records_blob), len(encoded) - fixed


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
