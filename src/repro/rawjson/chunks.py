"""JSON chunks: the unit of transfer between clients and the server.

Clients batch records into chunks (paper §III assumes e.g. 1 000 objects per
chunk) and attach one bit-vector per pushed-down predicate.  A chunk is the
granularity at which the server makes partial-loading decisions and at which
bit-vectors are carried into Parquet-lite block metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Sequence

from ..bitvec.bitvector import BitVector, union_all

DEFAULT_CHUNK_SIZE = 1000

#: Flips the 0/1 flag bytes of :meth:`BitVector.to_flags`.
_NEGATE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass
class JsonChunk:
    """A batch of raw JSON records plus per-predicate validity bit-vectors.

    Attributes:
        chunk_id: Monotone sequence number assigned by the producing client.
        records: Raw single-line JSON texts, in arrival order.
        bitvectors: Mapping from predicate id to a bit-vector of
            ``len(records)`` bits; bit ``i`` says record ``i`` *may* satisfy
            that predicate.
    """

    chunk_id: int
    records: List[str]
    bitvectors: Dict[int, BitVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pred_id, bv in self.bitvectors.items():
            if len(bv) != len(self.records):
                raise ValueError(
                    f"bit-vector for predicate {pred_id} has {len(bv)} bits "
                    f"but the chunk holds {len(self.records)} records"
                )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def predicate_ids(self) -> List[int]:
        """Ids of the predicates annotated on this chunk, sorted."""
        return sorted(self.bitvectors)

    def attach(self, predicate_id: int, bv: BitVector) -> None:
        """Attach a predicate bit-vector, validating its length."""
        if len(bv) != len(self.records):
            raise ValueError(
                f"bit-vector has {len(bv)} bits for {len(self.records)} records"
            )
        self.bitvectors[predicate_id] = bv

    def load_mask(self) -> BitVector:
        """Union of all predicate vectors: which records to load eagerly.

        With no annotations at all (budget 0 / baseline), every record must
        be loaded, so the mask is all ones.
        """
        if not self.bitvectors:
            return BitVector.ones(len(self.records))
        return union_all([self.bitvectors[p] for p in self.predicate_ids])

    def loaded_ratio(self) -> float:
        """Fraction of records the load mask selects (paper's loading ratio)."""
        if not self.records:
            return 0.0
        return self.load_mask().count() / len(self.records)

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
        flags = mask.to_flags()
        positions = range(len(flags))
        selected = list(compress(positions, flags))
        rejected = list(compress(positions, flags.translate(_NEGATE)))
        return selected, rejected


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
    ids = set(chunks[0].bitvectors)
    for chunk in chunks[1:]:
        if set(chunk.bitvectors) != ids:
            raise ValueError("chunks annotate different predicate sets")
    records: List[str] = []
    for chunk in chunks:
        records.extend(chunk.records)
    merged = JsonChunk(chunks[0].chunk_id, records)
    for pred_id in ids:
        vec = chunks[0].bitvectors[pred_id]
        for chunk in chunks[1:]:
            vec = vec.concat(chunk.bitvectors[pred_id])
        merged.attach(pred_id, vec)
    return merged
