"""Packed bit-vectors used to annotate JSON chunks with predicate validity.

CIAO clients produce one :class:`BitVector` per pushed-down predicate per
chunk (bit ``1`` = the record *may* satisfy the predicate, bit ``0`` = the
record definitely does not).  The server unions them to decide which records
to load and intersects them to skip tuples at query time, so the hot
operations here are ``|``, ``&``, ``count`` and ``iter_set``.

Bits are packed little-endian within each byte: bit ``i`` lives at
``data[i // 8] >> (i % 8) & 1``.  All logical operators require equal-length
operands; mixing chunk sizes is a logic error and raises ``ValueError``.

The bulk operations (``intersect_update``, ``union_update``, ``slice``,
``concat``, ``count``, ``iter_set``) are implemented as word-level kernels
over Python big-ints: the whole payload is reinterpreted as one
little-endian integer and combined with a single C-level ``&``/``|``/
shift, so cost scales with machine words, not bits.  A 1M-bit intersect is
two ``int.from_bytes`` calls, one ``&``, and one ``to_bytes`` — orders of
magnitude faster than a per-byte Python loop
(``benchmarks/bench_parallel_ingest.py`` tracks the ratio).

Per-position work goes through the vector's *bit string* instead — one
``'0'``/``'1'`` character per bit, in index order, made and parsed by the
C-level ``format``/``int(…, 2)``: :func:`selector` gathers positions with
one ``operator.itemgetter``, and :meth:`BitVector.from_flags` /
:meth:`BitVector.to_flags` convert from and to one 0/1 byte per bit, the
form ``bytes(map(...))`` and ``itertools.compress`` speak.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Sequence

#: ``bytes.translate`` tables between 0/1 flag bytes and bit-string digits:
#: any nonzero flag byte is a set bit.
_FLAGS_TO_DIGITS = b"0" + b"1" * 255
_DIGITS_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class BitVector:
    """A fixed-length sequence of bits with fast bulk logical operations.

    >>> bv = BitVector.from_bits([1, 0, 1, 1])
    >>> bv.count()
    3
    >>> list(bv.iter_set())
    [0, 2, 3]
    """

    __slots__ = ("_length", "_data")

    def __init__(self, length: int,
                 data: bytearray | bytes | memoryview | None = None):
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self._length = length
        nbytes = (length + 7) // 8
        if data is None:
            self._data = bytearray(nbytes)
        else:
            if len(data) != nbytes:
                raise ValueError(
                    f"need {nbytes} bytes for {length} bits, got {len(data)}"
                )
            self._data = bytearray(data)
            self._mask_tail()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        """A vector of *length* cleared bits."""
        return cls(length)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        """A vector of *length* set bits."""
        bv = cls(length)
        bv._data = bytearray(b"\xff" * len(bv._data))
        bv._mask_tail()
        return bv

    @classmethod
    def from_bits(cls, bits: Sequence[int] | Iterable[int]) -> "BitVector":
        """Build from an iterable of truthy/falsy values.

        This is the batch engine's selection-vector builder (one call per
        predicate per :class:`~repro.engine.batch.ColumnBatch`), so like
        the other bulk operations it packs at C level: one ``bool`` per
        value into a flag byte, then :meth:`from_flags`.
        """
        return cls.from_flags(bytes(map(bool, bits)))

    @classmethod
    def from_flags(cls, flags: bytes) -> "BitVector":
        """Build from one byte per bit: bit ``i`` is set iff ``flags[i]``.

        The C-level packer behind page null bitmaps: ``translate`` turns
        the flags into a bit string and ``int(…, 2)`` packs it, with no
        Python call per bit.
        """
        return cls._from_bit_string(flags.translate(_FLAGS_TO_DIGITS))

    @classmethod
    def _from_bit_string(cls, digits: bytes | str) -> "BitVector":
        """Inverse of :meth:`_bit_string` (``'0'``/``'1'`` per bit)."""
        bv = cls(len(digits))
        if digits:
            bv._data[:] = int(digits[::-1], 2).to_bytes(
                len(bv._data), "little"
            )
        return bv

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVector":
        """Build a *length*-bit vector with the given positions set."""
        bv = cls(length)
        for i in indices:
            bv.set(i)
        return bv

    # ------------------------------------------------------------------
    # Single-bit access
    # ------------------------------------------------------------------
    def set(self, index: int, value: bool = True) -> None:
        """Set (or clear, with ``value=False``) bit *index*."""
        self._check_index(index)
        if value:
            self._data[index >> 3] |= 1 << (index & 7)
        else:
            self._data[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def clear(self, index: int) -> None:
        """Clear bit *index*."""
        self.set(index, False)

    def get(self, index: int) -> bool:
        """Return bit *index* as a bool."""
        self._check_index(index)
        return bool(self._data[index >> 3] >> (index & 7) & 1)

    def __getitem__(self, index: int) -> bool:
        if isinstance(index, slice):
            raise TypeError("use .slice(start, stop) for sub-vectors")
        if index < 0:
            index += self._length
        return self.get(index)

    def __setitem__(self, index: int, value: bool) -> None:
        if index < 0:
            index += self._length
        self.set(index, bool(value))

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        combined = int.from_bytes(self._data, "little") & int.from_bytes(
            other._data, "little"
        )
        return self._from_int(combined)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        combined = int.from_bytes(self._data, "little") | int.from_bytes(
            other._data, "little"
        )
        return self._from_int(combined)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        combined = int.from_bytes(self._data, "little") ^ int.from_bytes(
            other._data, "little"
        )
        return self._from_int(combined)

    def _from_int(self, value: int) -> "BitVector":
        out = BitVector(self._length)
        out._data = bytearray(value.to_bytes(len(self._data), "little"))
        out._mask_tail()
        return out

    def __invert__(self) -> "BitVector":
        out = BitVector(self._length)
        nbytes = len(self._data)
        if nbytes:
            flipped = int.from_bytes(self._data, "little") ^ (
                (1 << (nbytes * 8)) - 1
            )
            out._data[:] = flipped.to_bytes(nbytes, "little")
            out._mask_tail()
        return out

    def intersect_update(self, other: "BitVector") -> None:
        """In-place AND, avoiding an allocation on the hot skipping path."""
        self._check_compatible(other)
        nbytes = len(self._data)
        if nbytes:
            combined = int.from_bytes(self._data, "little") & int.from_bytes(
                other._data, "little"
            )
            self._data[:] = combined.to_bytes(nbytes, "little")

    def union_update(self, other: "BitVector") -> None:
        """In-place OR, used when folding per-predicate vectors for loading."""
        self._check_compatible(other)
        nbytes = len(self._data)
        if nbytes:
            combined = int.from_bytes(self._data, "little") | int.from_bytes(
                other._data, "little"
            )
            self._data[:] = combined.to_bytes(nbytes, "little")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of set bits (population count)."""
        return int.from_bytes(self._data, "little").bit_count()

    def any(self) -> bool:
        """True if at least one bit is set."""
        return any(self._data)

    def all(self) -> bool:
        """True if every bit is set."""
        return self.count() == self._length

    def density(self) -> float:
        """Fraction of set bits; 0.0 for the empty vector."""
        if self._length == 0:
            return 0.0
        return self.count() / self._length

    def iter_set(self) -> Iterator[int]:
        """Yield the indices of set bits in increasing order."""
        data = self._data
        for word_index in range(0, len(data), 8):
            word = int.from_bytes(data[word_index:word_index + 8], "little")
            base = word_index << 3
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def to_flags(self) -> bytes:
        """One 0/1 byte per bit, in index order (inverse of :meth:`from_flags`).

        Ready for ``itertools.compress``: the positions of the set bits are
        ``compress(range(len(bv)), bv.to_flags())``.
        """
        return self._bit_string().encode("ascii").translate(_DIGITS_TO_FLAGS)

    def _bit_string(self) -> str:
        """``'0'``/``'1'`` per bit, character ``i`` being bit ``i``."""
        if not self._length:
            return ""
        return format(
            int.from_bytes(self._data, "little"), f"0{self._length}b"
        )[::-1]

    def to_bits(self) -> List[int]:
        """Expand to a list of 0/1 ints (small vectors / tests only)."""
        return [1 if self.get(i) else 0 for i in range(self._length)]

    def slice(self, start: int, stop: int) -> "BitVector":
        """Copy of bits ``[start, stop)`` as a new vector."""
        if not 0 <= start <= stop <= self._length:
            raise ValueError(f"bad slice [{start}, {stop}) of {self._length} bits")
        width = stop - start
        out = BitVector(width)
        if width:
            window = (int.from_bytes(self._data, "little") >> start) & (
                (1 << width) - 1
            )
            out._data[:] = window.to_bytes(len(out._data), "little")
        return out

    def concat(self, other: "BitVector") -> "BitVector":
        """New vector holding ``self`` followed by ``other``."""
        out = BitVector(self._length + other._length)
        if out._length:
            combined = int.from_bytes(self._data, "little") | (
                int.from_bytes(other._data, "little") << self._length
            )
            out._data[:] = combined.to_bytes(len(out._data), "little")
        return out

    def select(self, positions: Sequence[int]) -> "BitVector":
        """Gather bits at *positions* into a dense ``len(positions)``-vector.

        Bit ``i`` of the result is ``self[positions[i]]``.  This is the bulk
        primitive behind deriving row-group bit-vectors from chunk vectors:
        the loader keeps only the parsed positions, and the stored vector
        must be re-indexed to the surviving rows.  Out-of-range positions
        raise ``IndexError``.  To restrict many vectors to the same
        positions, build the :func:`selector` once.
        """
        return selector(positions)(self)

    # ------------------------------------------------------------------
    # Serialization (wire format for the client/server protocol)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize as ``<u32 length little-endian><packed payload>``."""
        return self._length.to_bytes(4, "little") + bytes(self._data)

    @classmethod
    def from_bytes(cls, raw: bytes | memoryview) -> "BitVector":
        """Inverse of :meth:`to_bytes`; strict about payload size and padding.

        Wire decoding is deliberately unforgiving: a payload whose size does
        not match the declared length, or whose tail padding carries set
        bits, is corrupt.  Constructing a vector from it anyway (as
        ``__init__``'s silent ``_mask_tail`` would) would *change semantics*
        — bits a client set would vanish — so corruption fails loudly here
        instead.
        """
        if len(raw) < 4:
            raise ValueError("bit-vector payload shorter than its header")
        length = int.from_bytes(raw[:4], "little")
        payload = raw[4:]
        nbytes = (length + 7) // 8
        if len(payload) != nbytes:
            raise ValueError(
                f"need {nbytes} payload bytes for {length} bits, "
                f"got {len(payload)}"
            )
        tail = length & 7
        if tail and nbytes and payload[-1] >> tail:
            raise ValueError(
                "nonzero bits in the tail padding of a bit-vector payload"
            )
        return cls(length, payload)

    def serialized_size(self) -> int:
        """Byte size :meth:`to_bytes` will produce (header + payload)."""
        return 4 + len(self._data)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._length, bytes(self._data)))

    def __repr__(self) -> str:
        if self._length <= 64:
            bits = "".join(str(b) for b in self.to_bits())
            return f"BitVector({bits!r})"
        return f"BitVector(length={self._length}, set={self.count()})"

    def copy(self) -> "BitVector":
        """Independent copy."""
        return BitVector(self._length, bytes(self._data))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _mask_tail(self) -> None:
        tail = self._length & 7
        if tail and self._data:
            self._data[-1] &= (1 << tail) - 1

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise IndexError(f"bit {index} out of range for {self._length} bits")

    def _check_compatible(self, other: "BitVector") -> None:
        if self._length != other._length:
            raise ValueError(
                f"length mismatch: {self._length} vs {other._length} bits"
            )


def selector(positions: Sequence[int]
             ) -> Callable[[BitVector], BitVector]:
    """A reusable :meth:`BitVector.select` for one list of *positions*.

    The gather is one ``operator.itemgetter(*positions)`` over the
    vector's bit string, built once and applied to every vector of a
    chunk; the range check is one ``min``/``max``, also done once.
    """
    count = len(positions)
    if not count:
        return lambda bv: BitVector(0)
    low, high = min(positions), max(positions)
    pick = itemgetter(*positions)

    def select(bv: BitVector) -> BitVector:
        length = bv._length
        if low < 0 or high >= length:
            bad = next(p for p in positions if not 0 <= p < length)
            raise IndexError(f"bit {bad} out of range for {length} bits")
        # One position makes itemgetter return a bare character, which
        # "".join passes through unchanged.
        return BitVector._from_bit_string("".join(pick(bv._bit_string())))

    return select


def set_bits(value: int) -> Iterator[int]:
    """Yield the positions of the set bits of a non-negative int, in
    increasing order (one step per set bit, none per clear bit)."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def intersect_all(vectors: Sequence[BitVector]) -> BitVector:
    """AND a non-empty sequence of equal-length vectors.

    This is the data-skipping primitive: a query's conjunctive predicates map
    to one vector each and a tuple survives only if *every* vector agrees.
    """
    if not vectors:
        raise ValueError("intersect_all needs at least one vector")
    out = vectors[0].copy()
    for vec in vectors[1:]:
        out.intersect_update(vec)
    return out


def union_all(vectors: Sequence[BitVector]) -> BitVector:
    """OR a non-empty sequence of equal-length vectors.

    This is the partial-loading primitive: a record is loaded if it is valid
    for *at least one* pushed-down predicate.
    """
    if not vectors:
        raise ValueError("union_all needs at least one vector")
    out = vectors[0].copy()
    for vec in vectors[1:]:
        out.union_update(vec)
    return out
