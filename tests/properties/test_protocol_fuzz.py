"""Adversarial wire-protocol tests: truncation, mutation, corrupt headers.

The contract under test: :func:`repro.client.protocol.decode_chunk` either
returns a faithful chunk or raises :class:`ProtocolError` — it must never
surface ``IndexError``/``UnicodeDecodeError``, silently mis-slice a
truncated bit-vector payload, or report nonsensical trailing-byte counts.
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


def frame(header: bytes, records: bytes, vectors: bytes) -> bytes:
    """Hand-assemble a wire frame from raw sections."""
    return (
        MAGIC
        + len(header).to_bytes(4, "little") + header
        + len(records).to_bytes(4, "little") + records
        + vectors
    )


def vector_section(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


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
        empty_bv = BitVector(0).to_bytes()
        payload = frame(
            b'{"chunk_id": 1, "records": 0, "predicates": [3, 3]}',
            b"",
            vector_section(empty_bv) + vector_section(empty_bv),
        )
        with pytest.raises(ProtocolError, match="duplicate predicate"):
            decode_chunk(payload)

    def test_set_tail_padding_bits_rejected(self):
        # 3 declared bits, payload byte 0x85 = bits 101 plus a set padding
        # bit: corruption must fail loudly instead of being masked away.
        bad_bv = (3).to_bytes(4, "little") + b"\x85"
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [1]}',
            b"{}\n{}\n{}",
            vector_section(bad_bv),
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
        # A structurally valid bit-vector whose length disagrees with the
        # record count must be rejected before it is even decoded.
        two_bits = BitVector.from_bits([1, 0]).to_bytes()
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [0]}',
            b"{}\n{}\n{}",
            vector_section(two_bits),
        )
        with pytest.raises(ProtocolError, match="declares 2 bits"):
            decode_chunk(payload)

    def test_length_bomb_rejected_before_allocation(self):
        # A few wire bytes can declare a multi-gigabit vector; the
        # declared length must be checked against the record count BEFORE
        # decoding, so the frame is rejected without the huge allocation.
        declared = 1 << 31
        bomb = declared.to_bytes(4, "little") + b"\xff" * 4
        payload = frame(
            b'{"chunk_id": 0, "records": 3, "predicates": [0]}',
            b"{}\n{}\n{}",
            vector_section(bomb),
        )
        with pytest.raises(ProtocolError, match="declares 2147483648 bits"):
            decode_chunk(payload)

    def test_bad_utf8_records_rejected(self):
        payload = frame(
            b'{"chunk_id": 0, "records": 1, "predicates": []}',
            b"\xff\xfe{}",
            b"",
        )
        with pytest.raises(ProtocolError, match="not valid UTF-8"):
            decode_chunk(payload)


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
