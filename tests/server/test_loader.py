"""Unit tests for the client-assisted partial loader."""

import hashlib

import pytest

from repro.bitvec import BitVector
from repro.rawjson import JsonChunk, dump_record
from repro.server import ClientAssistedLoader
from repro.storage import JsonSideStore, ParquetLiteReader

RECORDS = [{"i": i, "name": f"u{i}"} for i in range(10)]


def chunk_with_mask(bits, chunk_id=0):
    chunk = JsonChunk(chunk_id, [dump_record(r) for r in RECORDS])
    chunk.attach(0, BitVector.from_bits(bits))
    return chunk


@pytest.fixture()
def paths(tmp_path):
    return tmp_path / "t.pql", JsonSideStore(tmp_path / "side.jsonl")


class TestPartialLoading:
    def test_mask_splits_records(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        bits = [1, 0, 1, 0, 0, 0, 0, 0, 0, 1]
        report = loader.ingest(chunk_with_mask(bits))
        loader.finalize()
        assert report.loaded == 3
        assert report.sidelined == 7
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            rows = reader.read_all()
        assert [r["i"] for r in rows] == [0, 2, 9]
        assert side.record_count == 7

    def test_derived_bitvectors_restricted_to_loaded_rows(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        bits = [1, 0, 1, 0, 0, 0, 0, 0, 0, 1]
        loader.ingest(chunk_with_mask(bits))
        loader.finalize()
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            derived = reader.bitvector(0, 0)
        # All three loaded rows satisfied predicate 0.
        assert derived.to_bits() == [1, 1, 1]

    def test_two_predicate_union(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        chunk = JsonChunk(0, [dump_record(r) for r in RECORDS])
        chunk.attach(0, BitVector.from_indices(10, [1]))
        chunk.attach(1, BitVector.from_indices(10, [8]))
        report = loader.ingest(chunk)
        loader.finalize()
        assert report.loaded == 2
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            assert reader.bitvector(0, 0).to_bits() == [1, 0]
            assert reader.bitvector(0, 1).to_bits() == [0, 1]

    def test_partial_loading_off_loads_everything(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=False)
        bits = [0] * 10
        report = loader.ingest(chunk_with_mask(bits))
        loader.finalize()
        assert report.loaded == 10
        assert side.record_count == 0
        # Bit-vectors are still retained for skipping.
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            assert reader.bitvector(0, 0).count() == 0

    def test_planless_baseline_stores_no_bitvectors(self, paths):
        # The zero-budget baseline: without a plan, clients attach no
        # bit-vectors, so everything loads and no vectors are stored.
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=False)
        report = loader.ingest(
            JsonChunk(0, [dump_record(r) for r in RECORDS])
        )
        summary = loader.finalize()
        assert report.loaded == 10
        assert side.record_count == 0
        assert summary.loading_ratio == 1.0
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            assert reader.total_rows == 10
            assert reader.meta.predicate_ids == []

    def test_all_zero_mask_sidelines_whole_chunk(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        report = loader.ingest(chunk_with_mask([0] * 10))
        summary = loader.finalize()
        assert report.loaded == 0
        assert side.record_count == 10
        assert summary.loading_ratio == 0.0
        # No parquet file is written when nothing was loaded.
        assert loader.parquet_paths == []


class TestMalformedRecords:
    def test_malformed_selected_records_counted(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        chunk = JsonChunk(0, [dump_record(RECORDS[0]), "{broken"])
        chunk.attach(0, BitVector.from_bits([1, 1]))
        report = loader.ingest(chunk)
        loader.finalize()
        assert report.loaded == 1
        assert report.malformed == 1

    def test_malformed_records_quarantined_in_side_store(self, paths):
        # A selected record that fails to parse must not be dropped: its
        # raw text lands in the sideline alongside mask-rejected records.
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        chunk = JsonChunk(
            7, [dump_record(RECORDS[0]), "{broken", dump_record(RECORDS[1])]
        )
        chunk.attach(0, BitVector.from_bits([1, 1, 0]))
        report = loader.ingest(chunk)
        loader.finalize()
        assert report.received == 3
        assert report.loaded == 1
        assert report.sidelined == 1  # the mask-rejected record
        assert report.malformed == 1  # the unparseable record
        # Side store holds sidelined + malformed, in arrival order.
        assert list(side.iter_raw()) == [
            (7, "{broken"), (7, dump_record(RECORDS[1]))
        ]

    def test_counters_partition_received(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        records = [dump_record(RECORDS[0]), "not json", "[1, 2]",
                   dump_record(RECORDS[1]), dump_record(RECORDS[2])]
        chunk = JsonChunk(0, records)
        chunk.attach(0, BitVector.from_bits([1, 1, 1, 0, 1]))
        report = loader.ingest(chunk)
        loader.finalize()
        # "[1, 2]" parses but is not an object — also malformed.
        assert report.malformed == 2
        assert report.received == (
            report.loaded + report.sidelined + report.malformed
        )
        assert side.record_count == report.sidelined + report.malformed

    def test_derived_vectors_skip_malformed_positions(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        chunk = JsonChunk(
            0, [dump_record(RECORDS[0]), "{broken", dump_record(RECORDS[1])]
        )
        chunk.attach(0, BitVector.from_bits([1, 1, 1]))
        loader.ingest(chunk)
        loader.finalize()
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            # Two loaded rows (positions 0 and 2), both valid for pred 0.
            assert reader.bitvector(0, 0).to_bits() == [1, 1]


class TestSummary:
    def test_accumulates_across_chunks(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        loader.ingest(chunk_with_mask([1] * 10, chunk_id=0))
        loader.ingest(chunk_with_mask([1, 0] * 5, chunk_id=1))
        summary = loader.finalize()
        assert summary.chunks == 2
        assert summary.received == 20
        assert summary.loaded == 15
        assert summary.loading_ratio == pytest.approx(0.75)
        assert len(summary.reports) == 2

    def test_ingest_after_finalize_rejected(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        loader.ingest(chunk_with_mask([1] * 10))
        loader.finalize()
        with pytest.raises(RuntimeError):
            loader.ingest(chunk_with_mask([1] * 10, chunk_id=1))

    def test_finalize_idempotent(self, paths):
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=True)
        loader.ingest(chunk_with_mask([1] * 10))
        first = loader.finalize()
        second = loader.finalize()
        assert first is second


class TestLargeIntegers:
    def test_integers_beyond_int64_round_trip(self, paths):
        # JSON integers have no width; a value past 2**63 must read back
        # exactly, not wrapped into a negative number by the encoder.
        parquet, side = paths
        loader = ClientAssistedLoader(parquet, side, partial_loading=False)
        values = [2**63, 12345678901234567890, 2**64 + 5, -(2**70), 7]
        loader.ingest(JsonChunk(
            0, [dump_record({"a": value}) for value in values]
        ))
        loader.finalize()
        with ParquetLiteReader(loader.parquet_paths[0]) as reader:
            assert [row["a"] for row in reader.read_all()] == values


def _pushdown_load(tmp_path, plan, chunks, seal_every=None):
    """Load *chunks* the yelp_pushdown way; return (parts, sideline path)."""
    from repro.client import ClientEvaluator

    evaluator = ClientEvaluator(plan.entries)
    side = JsonSideStore(tmp_path / "t.sideline.jsonl")
    loader = ClientAssistedLoader(
        tmp_path / "t.pql", side, partial_loading=True,
        required_predicate_ids=plan.predicate_ids,
    )
    for count, chunk in enumerate(chunks, 1):
        evaluator.annotate(chunk)
        loader.ingest(chunk)
        if seal_every is not None and count % seal_every == 0:
            loader.seal_part()
    loader.finalize()
    return loader.parquet_paths, side.path


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestStoredBytes:
    """The files of a real load are pinned byte for byte."""

    #: sha256 of the one part and the sideline of one yelp_pushdown load
    #: (Budget(20) plan, 8,000 seed-1 records in 100-record chunks).
    PART_SHA256 = (
        "3f0e3d08a0148c87a35e9fc9d07ab9c041feca0ad19ab4685a60c3ce78b5ae6b"
    )
    SIDELINE_SHA256 = (
        "56e185dc96081465f4a7b3931fff3536814e3adb2480ce15ceaa8b91e00de467"
    )
    #: The same load sealed every 8 chunks (the benchmark servers'
    #: ``seal_interval``): one sha256 per part, in part order.
    SEALED_PART_SHA256 = (
        "f4ffbd081c384f8e243470850a13d4696eb1245225c6857a24161584d4319899",
        "687fd12d2ac4001ad60b9e7110a72d834c7d124cb106b07c547464311e44b4cd",
        "f9f66e526b7a29a9b8233b1e299a1d8e6f1d749739c2e5542a785cfeba3b516c",
        "820c0c11593af207e51da860740c989e9039172cb0bf5fb4a6587742c0d7bb69",
        "d52fa08aaabc31ab168f3275f4628f1df26f0584aef7c692d6d53da8878a1e6a",
        "d5a95264fa095c5e3746b4be4f32765525d30aaa583edb03ae99746d5bc7b4e1",
        "9ff131a9bc0c2616bfee72138935b6c49649ce5bf4ae1e6103299ff291001e17",
        "27160659beb5a5e3a5309c2480ed2533368fc72a678b8e6af0537de8bd55ad36",
        "4677b0cb39f361e1439ff9e11d643caf804fdec8a954b8cff0675a3ac7fa7f66",
        "6e1532186fe1ac589f462f4f7ed46adf4eda2c53c224c20443feb3040f8b92bd",
    )
    #: One ``rewrite_parts`` of those ten parts, clustered on ``stars``.
    COMPACTED_SHA256 = (
        "0fb439c517a33659b4945a177bb04bb5ffcb4d9705f447d53ddfffff15151b18"
    )

    def test_yelp_pushdown_files_are_pinned(self, tmp_path, yelp_pushdown_plan,
                                            yelp_pushdown_chunks):
        parts, sideline = _pushdown_load(
            tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks
        )
        [part] = parts
        assert _sha256(part) == self.PART_SHA256
        assert _sha256(sideline) == self.SIDELINE_SHA256

    def test_sealed_parts_and_their_compaction_are_pinned(
            self, tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks):
        from repro.compact import rewrite_parts

        parts, sideline = _pushdown_load(
            tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks, seal_every=8
        )
        assert tuple(map(_sha256, parts)) == self.SEALED_PART_SHA256
        assert _sha256(sideline) == self.SIDELINE_SHA256
        compacted = tmp_path / "compacted.pql"
        rewrite_parts(parts, compacted, cluster_by="stars")
        assert _sha256(compacted) == self.COMPACTED_SHA256
