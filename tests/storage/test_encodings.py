"""Unit tests for the column encodings."""

import pytest

from repro.storage import ColumnType, Encoding, EncodingError, choose_encoding
from repro.storage.encodings import (
    decode,
    encode,
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)

CASES = [
    (ColumnType.STRING, ["a", "", "héllo", "x" * 300]),
    (ColumnType.INT64, [0, 1, -1, 2 ** 40, -(2 ** 40), 7, 7, 7]),
    (ColumnType.FLOAT64, [0.0, -2.5, 1e300, 3.14159]),
    (ColumnType.BOOL, [True, False, True, True, False, True, False, False,
                       True]),
    (ColumnType.JSON, ['{"a":1}', "[1,2]", "null"]),
]


@pytest.mark.parametrize("encoding", list(Encoding))
@pytest.mark.parametrize("column_type,values", CASES)
def test_roundtrip_every_encoding_and_type(encoding, column_type, values):
    payload = encode(values, column_type, encoding)
    assert decode(payload, len(values), column_type, encoding) == values


@pytest.mark.parametrize("encoding", list(Encoding))
def test_empty_values_roundtrip(encoding):
    payload = encode([], ColumnType.INT64, encoding)
    assert decode(payload, 0, ColumnType.INT64, encoding) == []


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 35])
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        got, pos = read_varint(bytes(out), 0)
        assert got == value and pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            write_varint(bytearray(), -1)

    def test_truncated_rejected(self):
        with pytest.raises(EncodingError):
            read_varint(b"\x80", 0)


class TestZigzag:
    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 10 ** 12, -(10 ** 12),
                                       2 ** 63, 2 ** 64 + 5, -(2 ** 70)])
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_int64_range_keeps_its_bytes(self):
        # The 64-bit sign fold was a no-op below 2**63: fixing it for wider
        # ints changes no byte of any in-range value.
        for value in (0, 1, 2 ** 62, 2 ** 63 - 1, -1, -(2 ** 63)):
            folded = ((value << 1) ^ (value >> 63) if value >= 0
                      else ((-value) << 1) - 1)
            assert zigzag_encode(value) == folded

    def test_small_magnitudes_encode_small(self):
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2


class TestDictionary:
    def test_compresses_low_cardinality(self):
        values = ["alpha", "beta"] * 500
        plain = encode(values, ColumnType.STRING, Encoding.PLAIN)
        dictionary = encode(values, ColumnType.STRING, Encoding.DICTIONARY)
        assert len(dictionary) < len(plain) / 2

    def test_corrupt_index_rejected(self):
        payload = bytearray(encode(["a"], ColumnType.STRING,
                                   Encoding.DICTIONARY))
        payload[-1] = 0x7F  # out-of-range dictionary slot
        with pytest.raises(EncodingError):
            decode(bytes(payload), 1, ColumnType.STRING,
                   Encoding.DICTIONARY)


class TestRle:
    def test_compresses_runs(self):
        values = [5] * 1000
        plain = encode(values, ColumnType.INT64, Encoding.PLAIN)
        rle = encode(values, ColumnType.INT64, Encoding.RLE)
        assert len(rle) < len(plain) / 10

    def test_count_mismatch_detected(self):
        payload = encode([1, 1], ColumnType.INT64, Encoding.RLE)
        with pytest.raises(EncodingError):
            decode(payload, 3, ColumnType.INT64, Encoding.RLE)


class TestChooseEncoding:
    def test_runs_pick_rle(self):
        assert choose_encoding([7] * 100, ColumnType.INT64) is Encoding.RLE

    def test_low_cardinality_picks_dictionary(self):
        values = [f"v{i % 5}" for i in range(100)]
        # Interleaved values: no long runs, few distinct.
        assert choose_encoding(values, ColumnType.STRING) is \
            Encoding.DICTIONARY

    def test_high_cardinality_stays_plain(self):
        values = [f"v{i}" for i in range(100)]
        assert choose_encoding(values, ColumnType.STRING) is Encoding.PLAIN

    def test_floats_never_dictionary(self):
        values = [float(i % 3) for i in range(100)]
        assert choose_encoding(values, ColumnType.FLOAT64) in (
            Encoding.PLAIN, Encoding.RLE
        )

    def test_empty_is_plain(self):
        assert choose_encoding([], ColumnType.STRING) is Encoding.PLAIN
