"""JSON chunks: the unit of transfer between clients and the server.

Clients batch records into chunks (paper §III assumes e.g. 1 000 objects per
chunk) and attach one bit-vector per pushed-down predicate.  A chunk is the
granularity at which the server makes partial-loading decisions and at which
bit-vectors are carried into Parquet-lite block metadata.

A chunk holds its vectors as one :class:`~repro.bitvec.bitvector.BitMatrix`
(:attr:`JsonChunk.matrix`: sorted ids, one packed int, row ``r`` the
vector of id ``r``), the one form the evaluator writes, the wire ships and
the loader reads.  :attr:`JsonChunk.bitvectors` is a mapping view over
it that builds a :class:`~repro.bitvec.bitvector.BitVector` only for the
id someone reads.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from functools import reduce
from itertools import compress
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

from ..bitvec.bitvector import BitMatrix, BitVector, int_flags

DEFAULT_CHUNK_SIZE = 1000

#: Flips 0/1 flag bytes.
_NEGATE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class JsonChunk:
    """A batch of raw JSON records plus per-predicate validity bit-vectors.

    Attributes:
        chunk_id: Monotone sequence number assigned by the producing client.
        records: Raw single-line JSON texts, in arrival order.
        matrix: The predicate vectors, one ``len(records)``-bit row per
            annotated id; bit ``i`` of a row says record ``i`` *may*
            satisfy that predicate.

    *bitvectors* (optional) seeds the matrix from ``{id: BitVector}``.
    """

    __slots__ = ("chunk_id", "records", "matrix")

    def __init__(self, chunk_id: int, records: List[str],
                 bitvectors: Optional[Mapping[int, BitVector]] = None):
        self.chunk_id = chunk_id
        self.records = records
        self.matrix = BitMatrix((), len(records))
        for pred_id, bv in (bitvectors or {}).items():
            self.attach(pred_id, bv)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (f"JsonChunk(chunk_id={self.chunk_id}, "
                f"records={len(self.records)}, "
                f"predicates={list(self.matrix.ids)})")

    @property
    def predicate_ids(self) -> List[int]:
        """Ids of the predicates annotated on this chunk, sorted."""
        return list(self.matrix.ids)

    @property
    def bitvectors(self) -> "MutableMapping[int, BitVector]":
        """``{id: BitVector}`` view of :attr:`matrix`, built per read;
        assigning or deleting an id writes the matrix."""
        return _VectorView(self)

    def attach(self, predicate_id: int, bv: BitVector) -> None:
        """Attach (or replace) a predicate bit-vector, validating its
        length."""
        if len(bv) != len(self.records):
            raise ValueError(
                f"bit-vector for predicate {predicate_id} has {len(bv)} "
                f"bits for {len(self.records)} records"
            )
        self.matrix = self.matrix.with_row(
            predicate_id, int.from_bytes(bv.to_bytes()[4:], "little")
        )

    def load_flags(self) -> bytes:
        """The load mask as one 0/1 byte per record: the union of all
        predicate vectors (a record loads iff it may satisfy at least one).

        With no annotations at all (budget 0 / baseline), every record must
        be loaded, so the mask is all ones.
        """
        if not self.matrix.ids:
            return b"\x01" * len(self.records)
        return int_flags(self.matrix.union(), len(self.records))

    def load_mask(self) -> BitVector:
        """:meth:`load_flags` as a bit-vector."""
        return BitVector.from_flags(self.load_flags())

    def loaded_ratio(self) -> float:
        """Fraction of records the load mask selects (paper's loading ratio)."""
        if not self.records:
            return 0.0
        return self.load_flags().count(1) / len(self.records)

    def iter_records(self) -> Iterator[str]:
        """Iterate raw record texts."""
        return iter(self.records)

    def total_bytes(self) -> int:
        """Payload size of the raw records (network accounting)."""
        return sum(len(r) for r in self.records)

    def split_by_mask(self, mask: BitVector) -> tuple:
        """Partition record indices by *mask*: (selected, rejected)."""
        if len(mask) != len(self.records):
            raise ValueError("mask length does not match chunk size")
        return split_flags(mask.to_flags())


class _VectorView(MutableMapping):
    """:attr:`JsonChunk.bitvectors`: ids map to their rows, built as
    :class:`BitVector` objects only when read."""

    __slots__ = ("_chunk",)

    def __init__(self, chunk: JsonChunk):
        self._chunk = chunk

    def __getitem__(self, predicate_id: int) -> BitVector:
        return self._chunk.matrix.vector(predicate_id)

    def __contains__(self, predicate_id: object) -> bool:
        return predicate_id in self._chunk.matrix

    def __iter__(self) -> Iterator[int]:
        return iter(self._chunk.matrix.ids)

    def __len__(self) -> int:
        return len(self._chunk.matrix.ids)

    def __setitem__(self, predicate_id: int, bv: BitVector) -> None:
        self._chunk.attach(predicate_id, bv)

    def __delitem__(self, predicate_id: int) -> None:
        self._chunk.matrix = self._chunk.matrix.without_row(predicate_id)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def split_flags(flags: bytes) -> tuple:
    """Partition positions by 0/1 *flags*: (selected, rejected) lists."""
    positions = range(len(flags))
    return (list(compress(positions, flags)),
            list(compress(positions, flags.translate(_NEGATE))))


def chunk_records(records: Iterable[str],
                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                  start_id: int = 0) -> Iterator[JsonChunk]:
    """Group an iterable of raw JSON lines into :class:`JsonChunk` batches.

    The final chunk may be short.  ``chunk_size`` bounds bit-vector length
    and therefore the granularity of partial loading; the chunk-size ablation
    bench sweeps it.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    buffer: List[str] = []
    chunk_id = start_id
    for record in records:
        buffer.append(record)
        if len(buffer) == chunk_size:
            yield JsonChunk(chunk_id, buffer)
            buffer = []
            chunk_id += 1
    if buffer:
        yield JsonChunk(chunk_id, buffer)


def concat_chunks(chunks: Sequence[JsonChunk]) -> JsonChunk:
    """Merge chunks (and their aligned bit-vectors) into one.

    All chunks must annotate the same predicate ids; used by tests and by
    the chunk-size ablation to re-batch a stream.
    """
    if not chunks:
        raise ValueError("cannot concatenate zero chunks")
    ids = chunks[0].matrix.ids
    if any(chunk.matrix.ids != ids for chunk in chunks[1:]):
        raise ValueError("chunks annotate different predicate sets")
    records: List[str] = []
    for chunk in chunks:
        records.extend(chunk.records)
    merged = JsonChunk(chunks[0].chunk_id, records)
    for pred_id in ids:
        merged.attach(pred_id, reduce(BitVector.concat, (
            chunk.matrix.vector(pred_id) for chunk in chunks
        )))
    return merged
