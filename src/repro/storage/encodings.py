"""Column encodings for Parquet-lite: PLAIN, DICTIONARY, and RLE.

Each encoder turns a list of non-null python values of one
:class:`~repro.storage.schema.ColumnType` into bytes and back.  Null
handling lives one level up (the column chunk stores a presence bit-vector
and only non-null values are encoded), mirroring Parquet's
definition-levels-then-values layout in miniature.

Encoding selection is heuristic, as in real writers: low-cardinality
columns dictionary-encode, runs compress with RLE, everything else stays
plain.  The encodings ablation bench measures the trade-offs.
"""

from __future__ import annotations

import struct
from enum import Enum
from operator import ne, truth
from typing import Any, Dict, List, Sequence, Tuple

from ..bitvec.bitvector import BitVector
from .schema import ColumnType


class Encoding(Enum):
    """Available physical encodings."""

    PLAIN = "plain"
    DICTIONARY = "dictionary"
    RLE = "rle"


class EncodingError(ValueError):
    """Corrupt encoded payload or unencodable values."""


# ----------------------------------------------------------------------
# Varints (shared by all encodings for counts/lengths/indices)
# ----------------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise EncodingError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at *pos*; return (value, next_pos)."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def write_varints(values: Sequence[int]) -> bytes:
    """Unsigned varints back to back, as :func:`write_varint` writes them.

    Values under 128 are their own one-byte varint, so a block of them is
    just ``bytes(values)``; only longer varints take a call each.
    """
    if not values or max(values) < 0x80:
        return bytes(values)
    out = bytearray()
    for value in values:
        if value < 0x80:
            out.append(value)
        else:
            write_varint(out, value)
    return bytes(out)


#: One-byte varints, indexed by value: the length prefixes of strings
#: shorter than 128 bytes.
_ONE_BYTE_VARINTS = [bytes((value,)) for value in range(0x80)]


def zigzag_encode(value: int) -> int:
    """Map a signed int to unsigned for varint storage.

    ``0, -1, 1, -2, …`` map to ``0, 1, 2, 3, …`` for ints of any width:
    JSON integers are unbounded, so there is no 64-bit sign fold.
    """
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# Plain value codecs per column type
# ----------------------------------------------------------------------
def _encode_plain_values(values: Sequence[Any],
                         column_type: ColumnType) -> bytes:
    if column_type in (ColumnType.STRING, ColumnType.JSON):
        encoded = [value.encode("utf-8") for value in values]
        return b"".join([
            (_ONE_BYTE_VARINTS[len(raw)] if len(raw) < 0x80
             else write_varints((len(raw),))) + raw
            for raw in encoded
        ])
    if column_type is ColumnType.INT64:
        return write_varints(
            [value << 1 if value >= 0 else ((-value) << 1) - 1
             for value in values]  # zigzag_encode, inlined
        )
    if column_type is ColumnType.FLOAT64:
        return struct.pack(f"<{len(values)}d", *values)
    if column_type is ColumnType.BOOL:
        # Bit-packed little-endian within bytes: the BitVector payload.
        flags = bytes(map(truth, values))
        return BitVector.from_flags(flags).to_bytes()[4:]
    raise EncodingError(f"unhandled column type {column_type}")


def read_varint_block(data: bytes, limit: int) -> List[int]:
    """Decode up to *limit* back-to-back varints in one pass.

    The bulk primitive under the batch engine's page decode: one tight
    C-speed iteration over the byte string instead of one
    :func:`read_varint` call (bounds check + tuple allocation) per value.
    Stops after *limit* values; trailing bytes are the caller's problem
    (plain INT64 pages are exactly varints, so there are none).
    """
    prefix = data[:limit] if limit < len(data) else data
    if not prefix or max(prefix) < 0x80:
        # Every varint in range is single-byte (e.g. dictionary indices
        # over < 128 distinct values): the byte string *is* the values.
        return list(prefix)
    values: List[int] = []
    append = values.append
    value = 0
    shift = 0
    for byte in data:
        if byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
            continue
        append(value | (byte << shift))
        if len(values) == limit:
            break
        value = 0
        shift = 0
    else:
        if shift:
            raise EncodingError("truncated varint")
    return values


def _decode_plain_values(data: bytes, count: int,
                         column_type: ColumnType) -> List[Any]:
    values: List[Any] = []
    pos = 0
    if column_type in (ColumnType.STRING, ColumnType.JSON):
        append = values.append
        size = len(data)
        for _ in range(count):
            if pos >= size:
                raise EncodingError("truncated varint")
            length = data[pos]
            pos += 1
            if length & 0x80:  # multi-byte varint (strings >= 128 bytes)
                length &= 0x7F
                shift = 7
                while True:
                    if pos >= size:
                        raise EncodingError("truncated varint")
                    byte = data[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            end = pos + length
            if end > size:
                raise EncodingError("truncated string payload")
            append(data[pos:end].decode("utf-8"))
            pos = end
    elif column_type is ColumnType.INT64:
        values = [
            (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)  # un-zigzag
            for raw in read_varint_block(data, count)
        ]
        if len(values) != count:
            raise EncodingError("truncated varint")
    elif column_type is ColumnType.FLOAT64:
        if len(data) < count * 8:
            raise EncodingError("truncated float64 block")
        values = list(struct.unpack_from(f"<{count}d", data, 0))  # ciaolint: allow[PRO002] -- length prechecked on the line above
    elif column_type is ColumnType.BOOL:
        for i in range(count):
            values.append(bool(data[i >> 3] >> (i & 7) & 1))
    else:
        raise EncodingError(f"unhandled column type {column_type}")
    return values


# ----------------------------------------------------------------------
# Encoders
# ----------------------------------------------------------------------
def encode_plain(values: Sequence[Any], column_type: ColumnType) -> bytes:
    """PLAIN: values back to back in type-specific form."""
    return _encode_plain_values(values, column_type)


def decode_plain(data: bytes, count: int,
                 column_type: ColumnType) -> List[Any]:
    """Inverse of :func:`encode_plain`."""
    return _decode_plain_values(data, count, column_type)


def encode_dictionary(values: Sequence[Any],
                      column_type: ColumnType) -> bytes:
    """DICTIONARY: distinct values (plain) + per-row varint indices."""
    index_of: Dict[Any, int] = {}
    indices = [index_of.setdefault(value, len(index_of)) for value in values]
    out = bytearray()
    write_varint(out, len(index_of))
    dict_bytes = _encode_plain_values(list(index_of), column_type)
    write_varint(out, len(dict_bytes))
    out += dict_bytes
    out += write_varints(indices)
    return bytes(out)


def decode_dictionary(data: bytes, count: int,
                      column_type: ColumnType) -> List[Any]:
    """Inverse of :func:`encode_dictionary`."""
    dict_size, pos = read_varint(data, 0)
    dict_len, pos = read_varint(data, pos)
    dict_end = pos + dict_len
    if dict_end > len(data):
        raise EncodingError("truncated dictionary block")
    dictionary = _decode_plain_values(
        data[pos:dict_end], dict_size, column_type
    )
    pos = dict_end
    indices = read_varint_block(data[pos:], count)
    if len(indices) != count:
        raise EncodingError("truncated varint")
    try:
        return [dictionary[index] for index in indices]
    except IndexError:
        raise EncodingError("dictionary index out of range") from None


def encode_rle(values: Sequence[Any], column_type: ColumnType) -> bytes:
    """RLE: (run length, value) pairs; values plain-encoded one at a time."""
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
        encoded = _encode_plain_values([value], column_type)
        write_varint(out, len(encoded))
        out += encoded
    return bytes(out)


def decode_rle(data: bytes, count: int, column_type: ColumnType) -> List[Any]:
    """Inverse of :func:`encode_rle`."""
    n_runs, pos = read_varint(data, 0)
    values: List[Any] = []
    for _ in range(n_runs):
        length, pos = read_varint(data, pos)
        enc_len, pos = read_varint(data, pos)
        enc_end = pos + enc_len
        if enc_end > len(data):
            raise EncodingError("truncated RLE run payload")
        value = _decode_plain_values(
            data[pos:enc_end], 1, column_type
        )[0]
        pos = enc_end
        values.extend([value] * length)
    if len(values) != count:
        raise EncodingError(
            f"RLE decoded {len(values)} values, expected {count}"
        )
    return values


_ENCODERS = {
    Encoding.PLAIN: (encode_plain, decode_plain),
    Encoding.DICTIONARY: (encode_dictionary, decode_dictionary),
    Encoding.RLE: (encode_rle, decode_rle),
}


def encode(values: Sequence[Any], column_type: ColumnType,
           encoding: Encoding) -> bytes:
    """Encode with an explicit encoding."""
    return _ENCODERS[encoding][0](values, column_type)


def decode(data: bytes, count: int, column_type: ColumnType,
           encoding: Encoding) -> List[Any]:
    """Decode *count* values with an explicit encoding."""
    return _ENCODERS[encoding][1](data, count, column_type)


def choose_encoding(values: Sequence[Any],
                    column_type: ColumnType) -> Encoding:
    """Writer heuristic: dictionary for low cardinality, RLE for runs.

    Floats never dictionary-encode (distinctness is near-total and the
    dictionary would just add overhead); booleans are already bit-packed in
    PLAIN so only long runs justify RLE.
    """
    if not values:
        return Encoding.PLAIN
    sample = values if len(values) <= 512 else values[:512]
    distinct = len(set(sample))
    # Every distinct value opens at least one run, so runs >= distinct:
    # count runs only when RLE is still possible.
    if distinct <= len(sample) // 4:
        runs = 1 + sum(map(truth, map(ne, sample, sample[1:])))
        if runs <= len(sample) // 4:
            return Encoding.RLE
    if (column_type in (ColumnType.STRING, ColumnType.JSON,
                        ColumnType.INT64)
            and distinct <= len(sample) // 2):
        return Encoding.DICTIONARY
    return Encoding.PLAIN
