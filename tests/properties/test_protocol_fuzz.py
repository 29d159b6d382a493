"""Adversarial wire-protocol tests: truncation, mutation, corrupt headers.

The contract under test: :func:`repro.client.protocol.decode_chunk` either
returns a faithful chunk or raises :class:`ProtocolError` — it must never
surface ``IndexError``/``UnicodeDecodeError``, silently mis-slice a
truncated bit-vector block, read a block whose declared length does not
fit the header's shape, or report nonsensical trailing-byte counts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.client import (
    ProtocolError,
    decode_chunk,
    decode_chunk_stream,
    encode_chunk,
    split_frames,
)
from repro.client.protocol import MAGIC
from repro.rawjson import JsonChunk, dump_record


def sample_chunk(n=25, chunk_id=9):
    records = [
        dump_record({"i": i, "text": f"rekörd {i} ünïcode"}) for i in range(n)
    ]
    chunk = JsonChunk(chunk_id=chunk_id, records=records)
    chunk.attach(0, BitVector.from_bits([i % 3 == 0 for i in range(n)]))
    chunk.attach(5, BitVector.from_indices(n, [n - 1]))
    return chunk


def frame(header: bytes, records: bytes, block: bytes,
          block_len: int | None = None) -> bytes:
    """Hand-assemble a wire frame from raw sections; *block_len* overrides
    the block's declared length."""
    declared = len(block) if block_len is None else block_len
    return (
        MAGIC
        + len(header).to_bytes(4, "little") + header
        + len(records).to_bytes(4, "little") + records
        + declared.to_bytes(4, "little") + block
    )


class TestTruncation:
    def test_every_truncation_offset_raises_protocol_error(self):
        # The load-bearing fuzz: a frame cut at ANY byte offset must raise
        # ProtocolError — never IndexError, never a silent partial decode,
        # never a negative "trailing bytes" complaint.
        payload = encode_chunk(sample_chunk())
        for offset in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_chunk(payload[:offset])

    def test_truncation_of_vectorless_chunk(self):
        chunk = JsonChunk(0, [dump_record({"i": i}) for i in range(4)])
        payload = encode_chunk(chunk)
        for offset in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_chunk(payload[:offset])

    def test_trailing_garbage_rejected(self):
        payload = encode_chunk(sample_chunk())
        with pytest.raises(ProtocolError):
            decode_chunk(payload + b"\x00")


class TestMutation:
    def test_random_single_byte_flips_never_crash(self):
        payload = bytearray(encode_chunk(sample_chunk()))
        rng = random.Random(1234)
        for _ in range(400):
            index = rng.randrange(len(payload))
            original = payload[index]
            payload[index] = rng.randrange(256)
            try:
                decode_chunk(bytes(payload))
            except ProtocolError:
                pass  # rejected is fine; any other exception is a bug
            finally:
                payload[index] = original

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_bytes_never_crash(self, blob):
        try:
            decode_chunk(blob)
        except ProtocolError:
            pass


class TestCorruptSections:
    def test_duplicate_predicate_ids_rejected(self):
        payload = frame(
            b'{"chunk_id": 1, "records": 0, "predicates": [3, 3]}',
            b"",
            b"",
        )
        with pytest.raises(ProtocolError, match="duplicate predicate"):
            decode_chunk(payload)

    def test_set_tail_padding_bits_rejected(self):
        # 3 records, row byte 0x85 = bits 101 plus a set padding bit:
        # corruption must fail loudly instead of being masked away.
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [1]}',
            b"{}\n{}\n{}",
            b"\x85",
        )
        with pytest.raises(ProtocolError, match="corrupt bit-vector"):
            decode_chunk(payload)

    def test_truncated_bitvector_payload_message(self):
        payload = encode_chunk(sample_chunk())
        with pytest.raises(ProtocolError, match="truncated bit-vector"):
            decode_chunk(payload[:-3])

    def test_header_must_be_object_with_typed_fields(self):
        for header in (
            b"[1, 2]",
            b'{"chunk_id": "x", "records": 0, "predicates": []}',
            b'{"chunk_id": 0, "records": -1, "predicates": []}',
            b'{"chunk_id": 0, "records": 0, "predicates": "nope"}',
            b'{"chunk_id": 0, "records": 0, "predicates": [true]}',
            b'{"chunk_id": 0, "records": 0}',
            b"{broken",
        ):
            with pytest.raises(ProtocolError):
                decode_chunk(frame(header, b"", b""))

    def test_out_of_range_numbers_in_header_are_protocol_errors(self):
        # An integer past the interpreter's digit limit, or a non-standard
        # constant, must not escape as a bare ValueError.
        for value in (b"9" * 5000, b"NaN", b"-Infinity"):
            header = (b'{"chunk_id": ' + value
                      + b', "records": 0, "predicates": []}')
            with pytest.raises(ProtocolError, match="not valid JSON"):
                decode_chunk(frame(header, b"", b""))

    def test_record_count_mismatch_rejected(self):
        payload = frame(
            b'{"chunk_id": 0, "records": 5, "predicates": []}',
            b"{}\n{}",
            b"",
        )
        with pytest.raises(ProtocolError, match="declares 5 records"):
            decode_chunk(payload)

    def test_wrong_vector_length_rejected(self):
        # A block sized for two rows when the header names one must be
        # rejected before it is even decoded.
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [0]}',
            b"{}\n{}\n{}",
            b"\x01\x02",
        )
        with pytest.raises(ProtocolError, match="declares 2 bytes"):
            decode_chunk(payload)

    def test_length_bomb_rejected_before_allocation(self):
        # A few wire bytes can declare a multi-gigabyte block; the
        # declared length must be checked against the header's shape
        # BEFORE decoding, so the frame is rejected without the huge
        # allocation.
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [0]}',
            b"{}\n{}\n{}",
            b"\xff" * 4,
            block_len=1 << 31,
        )
        with pytest.raises(ProtocolError, match="declares 2147483648 bytes"):
            decode_chunk(payload)

    def test_bad_utf8_records_rejected(self):
        payload = frame(
            b'{"chunk_id": 0, "records": 1, "predicates": []}',
            b"\xff\xfe{}",
            b"",
        )
        with pytest.raises(ProtocolError, match="not valid UTF-8"):
            decode_chunk(payload)


class TestBlock:
    """Strict decoding of the ``CIA3`` bit-vector block: ``k`` rows of
    ``ceil(n/8)`` bytes, checked before anything is read from it."""

    HEADER = b'{"chunk_id": 0, "records": 5, "predicates": [1, 4, 9]}'
    RECORDS = b"\n".join([b"{}"] * 5)

    def decode_without_reading_the_block(self, payload, monkeypatch):
        # A rejected shape must never reach the block decoder.
        from repro.client import protocol

        def fail(*args):
            raise AssertionError("block decoded from an unchecked length")

        monkeypatch.setattr(protocol.BitMatrix, "from_block", fail)
        with pytest.raises(ProtocolError):
            decode_chunk(payload)

    def test_well_formed_block_decodes(self):
        chunk = decode_chunk(frame(self.HEADER, self.RECORDS,
                                   b"\x01\x1f\x10"))
        assert {pid: bv.to_bits() for pid, bv in chunk.bitvectors.items()} \
            == {1: [1, 0, 0, 0, 0], 4: [1, 1, 1, 1, 1], 9: [0, 0, 0, 0, 1]}

    def test_truncated_block(self):
        payload = frame(self.HEADER, self.RECORDS, b"\x01\x1f\x10")
        for cut in range(1, 4):
            with pytest.raises(ProtocolError, match="truncated bit-vector"):
                decode_chunk(payload[:-cut])
            with pytest.raises(ProtocolError, match="truncated bit-vector"):
                list(split_frames(payload[:-cut]))

    def test_block_length_must_be_rows_times_stride(self, monkeypatch):
        for block in (b"", b"\x01", b"\x01\x02", b"\x01\x02\x03\x04",
                      bytes(15)):
            payload = frame(self.HEADER, self.RECORDS, block)
            with pytest.raises(ProtocolError, match="rows of 5 bits need 3"):
                decode_chunk(payload)
            with pytest.raises(ProtocolError, match="rows of 5 bits need 3"):
                list(split_frames(payload))
            self.decode_without_reading_the_block(payload, monkeypatch)

    def test_padding_bit_in_any_row(self):
        for row in range(3):
            for bit in range(5, 8):
                block = bytearray(b"\x01\x1f\x10")
                block[row] |= 1 << bit
                with pytest.raises(ProtocolError, match="row padding"):
                    decode_chunk(frame(self.HEADER, self.RECORDS,
                                       bytes(block)))

    def test_zero_record_chunk(self, monkeypatch):
        header = b'{"chunk_id": 2, "records": 0, "predicates": [0, 3]}'
        chunk = decode_chunk(frame(header, b"", b""))
        assert chunk.records == [] and chunk.predicate_ids == [0, 3]
        assert all(len(bv) == 0 for bv in chunk.bitvectors.values())
        for block in (b"\x00", b"\x00\x00"):
            payload = frame(header, b"", block)
            with pytest.raises(ProtocolError, match="need 0"):
                decode_chunk(payload)
            self.decode_without_reading_the_block(payload, monkeypatch)

    def test_chunk_with_no_predicates(self, monkeypatch):
        header = b'{"chunk_id": 2, "records": 5, "predicates": []}'
        chunk = decode_chunk(frame(header, self.RECORDS, b""))
        assert chunk.bitvectors == {} and len(chunk.records) == 5
        payload = frame(header, self.RECORDS, b"\x00")
        with pytest.raises(ProtocolError, match="0 rows of 5 bits need 0"):
            decode_chunk(payload)
        self.decode_without_reading_the_block(payload, monkeypatch)

    def test_predicate_ids_must_increase(self):
        header = b'{"chunk_id": 0, "records": 5, "predicates": [4, 1, 9]}'
        with pytest.raises(ProtocolError, match="not in order"):
            decode_chunk(frame(header, self.RECORDS, b"\x01\x1f\x10"))


class TestStreamDecode:
    def test_stream_yields_each_frame(self):
        chunks = [sample_chunk(n=6, chunk_id=i) for i in range(3)]
        buffer = b"".join(encode_chunk(c) for c in chunks)
        decoded = list(decode_chunk_stream(buffer))
        assert [c.chunk_id for c in decoded] == [0, 1, 2]
        for original, copy in zip(chunks, decoded):
            assert copy.records == original.records
            assert copy.bitvectors == original.bitvectors

    def test_stream_rejects_truncated_tail(self):
        buffer = b"".join(
            encode_chunk(sample_chunk(n=4, chunk_id=i)) for i in range(2)
        )
        with pytest.raises(ProtocolError):
            list(decode_chunk_stream(buffer[:-5]))

    def test_stream_accepts_memoryview(self):
        payload = encode_chunk(sample_chunk(n=3))
        (decoded,) = list(decode_chunk_stream(memoryview(payload)))
        assert decoded.records == sample_chunk(n=3).records
