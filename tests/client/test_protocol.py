"""Unit tests for the chunk wire protocol."""

import hashlib

import pytest

from repro.bitvec import BitVector
from repro.client import (
    ProtocolError,
    bitvector_overhead,
    decode_chunk,
    encode_chunk,
)
from repro.rawjson import JsonChunk, dump_record


def sample_chunk(n=10, with_vectors=True):
    records = [dump_record({"i": i, "text": f"record {i}"})
               for i in range(n)]
    chunk = JsonChunk(chunk_id=3, records=records)
    if with_vectors:
        chunk.attach(0, BitVector.from_bits([i % 2 == 0 for i in range(n)]))
        chunk.attach(2, BitVector.from_indices(n, [1]))
    return chunk


class TestRoundtrip:
    def test_full_roundtrip(self):
        chunk = sample_chunk()
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.chunk_id == chunk.chunk_id
        assert decoded.records == chunk.records
        assert decoded.bitvectors == chunk.bitvectors

    def test_chunk_without_vectors(self):
        chunk = sample_chunk(with_vectors=False)
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.bitvectors == {}
        assert decoded.records == chunk.records

    def test_empty_chunk(self):
        chunk = JsonChunk(chunk_id=0, records=[])
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded.records == []

    def test_sparse_vector_roundtrips(self):
        chunk = JsonChunk(
            chunk_id=1,
            records=[dump_record({"i": i}) for i in range(5000)],
        )
        chunk.attach(0, BitVector.from_indices(5000, [4321]))
        decoded = decode_chunk(encode_chunk(chunk))
        assert list(decoded.bitvectors[0].iter_set()) == [4321]

    def test_vectors_ship_packed(self):
        # Each vector is its u32 payload length, then its packed bytes:
        # a sparse one is not run-length encoded.
        chunk = sample_chunk(n=5000)
        payload = encode_chunk(chunk)
        tail = b"".join(
            len(bv.to_bytes()).to_bytes(4, "little") + bv.to_bytes()
            for bv in (chunk.bitvectors[0], chunk.bitvectors[2])
        )
        assert payload.endswith(tail)


class TestValidation:
    def test_bad_magic(self):
        payload = encode_chunk(sample_chunk())
        with pytest.raises(ProtocolError):
            decode_chunk(b"XXXX" + payload[4:])

    def test_truncated_payload(self):
        payload = encode_chunk(sample_chunk())
        with pytest.raises((ProtocolError, ValueError)):
            decode_chunk(payload[: len(payload) // 2])

    def test_trailing_garbage(self):
        payload = encode_chunk(sample_chunk())
        with pytest.raises(ProtocolError):
            decode_chunk(payload + b"zz")


class TestOverhead:
    def test_bitvector_overhead_is_small(self):
        chunk = sample_chunk(n=1000)
        record_bytes, vector_bytes = bitvector_overhead(chunk)
        # Two bit-vectors over 1000 records: ≤ ~260 bytes vs ~20 KB of
        # records — well under 2%.
        assert vector_bytes < record_bytes * 0.02

    def test_overhead_zero_without_vectors(self):
        chunk = sample_chunk(with_vectors=False)
        _, vector_bytes = bitvector_overhead(chunk)
        assert vector_bytes == 0


class TestFrameBatching:
    """encode_frame_batch / split_frames: self-delimiting frame batches."""

    def payloads(self, n=4):
        return [encode_chunk(sample_chunk(n=3 + i)) for i in range(n)]

    def test_split_inverts_batch(self):
        from repro.client import encode_frame_batch, split_frames

        payloads = self.payloads()
        batch = encode_frame_batch(payloads)
        assert [bytes(f) for f in split_frames(batch)] == payloads

    def test_batch_accepts_chunks_and_bytes(self):
        from repro.client import encode_frame_batch, split_frames

        chunk = sample_chunk()
        batch = encode_frame_batch([chunk, encode_chunk(chunk)])
        frames = list(split_frames(batch))
        assert len(frames) == 2
        assert bytes(frames[0]) == bytes(frames[1])

    def test_batch_rejects_other_types(self):
        from repro.client import encode_frame_batch

        with pytest.raises(TypeError):
            encode_frame_batch([42])

    def test_single_frame_yields_itself(self):
        from repro.client import split_frames

        payload = encode_chunk(sample_chunk())
        assert [bytes(f) for f in split_frames(payload)] == [payload]

    def test_split_does_not_decode_records(self):
        # split_frames must bound-check structure but not parse records:
        # a frame whose records are not valid JSON still splits fine.
        from repro.client import encode_frame_batch, split_frames

        broken = JsonChunk(chunk_id=1, records=["{not json", "also not"])
        batch = encode_frame_batch([broken, sample_chunk()])
        assert len(list(split_frames(batch))) == 2

    def test_split_raises_on_truncation(self):
        from repro.client import encode_frame_batch, split_frames

        batch = encode_frame_batch(self.payloads(2))
        with pytest.raises(ProtocolError):
            list(split_frames(batch[:-3]))

    def test_split_raises_on_bad_magic(self):
        from repro.client import split_frames

        payload = encode_chunk(sample_chunk())
        with pytest.raises(ProtocolError):
            list(split_frames(payload + b"JUNK" + payload))

    def test_stream_decode_matches_split_then_decode(self):
        from repro.client import (
            decode_chunk_stream,
            encode_frame_batch,
            split_frames,
        )

        payloads = self.payloads(3)
        batch = encode_frame_batch(payloads)
        streamed = [c.records for c in decode_chunk_stream(batch)]
        split = [decode_chunk(f).records for f in split_frames(batch)]
        assert streamed == split


class TestFrameDigest:
    """Wire frames of a real load are pinned byte for byte."""

    #: sha256 of one yelp_pushdown load (seed 1, 100-record chunks,
    #: 34 bit vectors each, all packed) framed as one batch.
    YELP_PUSHDOWN_SHA256 = (
        "1941bde5c0256e73dfed4e94cbfd56c1c292e05b6653fff7cb70b7a395b1c19c"
    )

    def test_yelp_pushdown_frames_are_pinned(self, yelp_pushdown_plan,
                                             yelp_pushdown_chunks):
        from repro.client import ClientEvaluator, encode_frame_batch

        evaluator = ClientEvaluator(yelp_pushdown_plan.entries)
        for chunk in yelp_pushdown_chunks:
            evaluator.annotate(chunk)
        batch = encode_frame_batch(yelp_pushdown_chunks)
        assert hashlib.sha256(batch).hexdigest() == self.YELP_PUSHDOWN_SHA256
