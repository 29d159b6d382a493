"""Run-length encoded bit-vectors.

Predicate bit-vectors are typically highly skewed: a selective predicate
yields long runs of zeros, and a predicate matching a hot key yields long
runs of ones.  :class:`RleBitVector` stores alternating run lengths starting
with a zero-run, which compresses both cases, and is the wire encoding the
client protocol chooses when it beats the packed representation.

This module is an *extension* over the paper (which ships packed vectors);
the ablation bench ``bench_ablation_chunk_size`` quantifies the saving.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from .bitvector import BitVector


class RleBitVector:
    """Immutable run-length encoded view of a bit sequence.

    Runs alternate ``0``-run, ``1``-run, ``0``-run, ... with the first run
    allowed to be empty so every sequence has a canonical encoding:

    >>> rle = RleBitVector.from_bitvector(BitVector.from_bits([1, 1, 0, 1]))
    >>> rle.runs
    (0, 2, 1, 1)
    >>> rle.count()
    3
    """

    __slots__ = ("_length", "_runs")

    def __init__(self, length: int, runs: Sequence[int]):
        if sum(runs) != length:
            raise ValueError(
                f"runs sum to {sum(runs)} but declared length is {length}"
            )
        if any(r < 0 for r in runs):
            raise ValueError("run lengths must be non-negative")
        self._length = length
        self._runs = tuple(self._canonicalize(runs))

    @staticmethod
    def _canonicalize(runs: Sequence[int]) -> List[int]:
        """Merge empty interior runs so equal sequences encode equally."""
        if 0 not in runs[1:]:
            return list(runs)  # no empty interior or trailing run: canonical
        out: List[int] = []
        for i, run in enumerate(runs):
            if i == 0:
                out.append(run)
                continue
            if run == 0:
                continue
            # Parity of position in `out` decides the bit value of the run.
            same_bit_as_last = (len(out) - 1) % 2 == i % 2
            if same_bit_as_last and out:
                out[-1] += run
            else:
                out.append(run)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_bitvector(cls, bv: BitVector) -> "RleBitVector":
        """Encode a packed vector.

        Driven by the set bits only (via the word-level ``iter_set``), so
        cost scales with runs, not with vector length — the common selective
        predicate encodes in microseconds regardless of chunk size.
        """
        runs: List[int] = []
        cursor = 0  # first position not yet encoded
        ones = 0  # length of the currently open 1-run
        for index in bv.iter_set():
            if ones and index == cursor:
                ones += 1
                cursor += 1
                continue
            if ones:
                runs.append(ones)
            # Zero-gap up to this set bit (the leading zero-run may be 0).
            runs.append(index - cursor if runs else index)
            ones = 1
            cursor = index + 1
        if ones:
            runs.append(ones)
        if not runs:
            runs.append(len(bv))  # all-zero vector: one zero-run
        elif cursor < len(bv):
            runs.append(len(bv) - cursor)  # trailing zero-run
        return cls(len(bv), runs)

    def to_bitvector(self) -> BitVector:
        """Decode back to a packed vector (word-level run masks)."""
        bv = BitVector(self._length)
        value = 0
        pos = 0
        for i, run in enumerate(self._runs):
            if i % 2 == 1 and run:
                value |= ((1 << run) - 1) << pos
            pos += run
        if value:
            bv._data[:] = value.to_bytes(len(bv._data), "little")
        return bv

    # ------------------------------------------------------------------
    @property
    def runs(self) -> tuple:
        """The canonical alternating run lengths (zero-run first)."""
        return self._runs

    def count(self) -> int:
        """Number of set bits."""
        return sum(run for i, run in enumerate(self._runs) if i % 2 == 1)

    def iter_set(self) -> Iterator[int]:
        """Yield set-bit indices in order without materializing."""
        pos = 0
        for i, run in enumerate(self._runs):
            if i % 2 == 1:
                yield from range(pos, pos + run)
            pos += run

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RleBitVector):
            return NotImplemented
        return self._length == other._length and self._runs == other._runs

    def __hash__(self) -> int:
        return hash((self._length, self._runs))

    def __repr__(self) -> str:
        return f"RleBitVector(length={self._length}, runs={self._runs})"

    # ------------------------------------------------------------------
    # Serialization: varint-packed run lengths.
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize as ``<u32 length><u32 #runs><varint runs...>``."""
        body = bytearray()
        body += self._length.to_bytes(4, "little")
        body += len(self._runs).to_bytes(4, "little")
        for run in self._runs:
            body += _encode_varint(run)
        return bytes(body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RleBitVector":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) < 8:
            raise ValueError("RLE payload shorter than its header")
        length = int.from_bytes(raw[:4], "little")
        nruns = int.from_bytes(raw[4:8], "little")
        body = raw[8:]
        if len(body) == nruns and (not body or max(body) < 0x80):
            # Every run is shorter than 128 (always so for chunks of up to
            # 127 records): each varint is one byte, the bytes the runs.
            return cls(length, tuple(body))
        runs: List[int] = []
        pos = 8
        for _ in range(nruns):
            run, pos = _decode_varint(raw, pos)
            runs.append(run)
        if pos != len(raw):
            raise ValueError(
                f"{len(raw) - pos} trailing bytes after RLE runs"
            )
        return cls(length, runs)

    def serialized_size(self) -> int:
        """Byte size of :meth:`to_bytes` output."""
        return len(self.to_bytes())


def best_encoding(bv: BitVector) -> "BitVector | RleBitVector":
    """Pick the smaller wire encoding for *bv* (packed vs RLE)."""
    rle = RleBitVector.from_bitvector(bv)
    if rle.serialized_size() < bv.serialized_size():
        return rle
    return bv


def _encode_varint(value: int) -> bytes:
    """LEB128-style unsigned varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(raw: bytes, pos: int) -> tuple:
    """Decode one varint starting at *pos*; returns (value, next_pos)."""
    value = 0
    shift = 0
    while True:
        if pos >= len(raw):
            raise ValueError("truncated varint")
        byte = raw[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
