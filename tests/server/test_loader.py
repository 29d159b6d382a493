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
    """The files of a real load are pinned byte for byte (``PQL2``, pages
    compressed where that shrinks them; :class:`TestDecodedContent`
    checks they decode as the uncompressed ``PQL1`` parts did)."""

    #: sha256 of the one part and the sideline of one yelp_pushdown load
    #: (Budget(20) plan, 8,000 seed-1 records in 100-record chunks).
    PART_SHA256 = (
        "97a0fb9339f07ef9aa072f82c277259174c018d385f0f6548df224841ea12e13"
    )
    SIDELINE_SHA256 = (
        "56e185dc96081465f4a7b3931fff3536814e3adb2480ce15ceaa8b91e00de467"
    )
    #: The same load sealed every 8 chunks (the benchmark servers'
    #: ``seal_interval``): one sha256 per part, in part order.
    SEALED_PART_SHA256 = (
        "2d44cd251a884e45c95a26410ce399bc70027c5629ee2990a567ac658e06e5b3",
        "9945a7137e941129e71356e243e6cb36fb18d091d916d3f03d73c3258320d3f4",
        "2627a6a5df891aec4f88e990c3c1f28efb74496e84f2d1e4d3e79a9e79e17645",
        "572ed8115d0d279e907d9ef8d38571e0f05ba85a33b71280d9201d778031328d",
        "9a4f19ae10b29eb2d19a96f9c76cc17f60f30fed30c261ab2e53fdea388a63fd",
        "d4cef2e8da877e0d40a21de5b30b713f67d9fc5d658e7542a7a4e34fb42fe7cc",
        "144167d3f595af3e9bbc70847ff8b41445a157951b3105b751a1adaf0e4dd4fe",
        "597689302d3381c244bbf0c7e452d4d71069534d6b8423a19d32ca38e9d401c3",
        "4c5d6806c554420441b4b18f212def171cbbfb13bd6cccbfcbd5f37ef1bf0767",
        "6e83b944373dfff578d1b2c7d90beb7e422b57dbb95d1c3ff8682219fd16d1a3",
    )
    #: One ``rewrite_parts`` of those ten parts, clustered on ``stars``.
    COMPACTED_SHA256 = (
        "7fc3bcee856b97da892a835606705482dbfccf6223a57b48096554b7baac1748"
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


def _decoded_sha256(path):
    """sha256 of what a reader decodes from *path*, not of its bytes: the
    schema, each row group's row count, column statistics and bit
    vectors, then every row.  Page compression leaves it unchanged."""
    with ParquetLiteReader(path) as reader:
        content = [reader.schema.to_dict()]
        for rg in reader.meta.row_groups:
            content.append((
                rg.row_count,
                sorted((name, c.stats) for name, c in rg.columns.items()),
                sorted((pid, bv.to_bytes())
                       for pid, bv in rg.bitvectors.items()),
            ))
        content.append(reader.read_all())
    return hashlib.sha256(repr(content).encode()).hexdigest()


class TestDecodedContent:
    """The loads :class:`TestStoredBytes` pins decode to the rows,
    ``PageStats`` and bit vectors their uncompressed ``PQL1`` parts
    decoded to (digests taken from the ``PQL1`` writer's parts)."""

    PART_SHA256 = (
        "522bb1ab9f67eb6e5211af431e2dce1c885c9f802968356f0a579ffda68c8e6f"
    )
    SEALED_PART_SHA256 = (
        "07317c08019326ccdff7b1cf232593c7f8f5a6ec1cea8482b639db68b15549df",
        "d7e25663bc97c434789b556f8f3e8c7a1a8bb7177e74f6c3e7c3dd41e2b3482a",
        "c906a25bb01683debe3d49cdc478744dc253547b5506ab2d81c22ac3f4ba4560",
        "46c770102fe82c96ae0ca669101eb67adb051688ddfcbc6a19c0a9178965a10b",
        "9c5fd9f99b8d88389b96bb12bf0030963e525df9499e9637bfef387f1f579019",
        "716056cdb2a506fc5af9a58cfecddaf6a7eb5659e885a258545fdc02f9275ffc",
        "3bd8046823f4b87f97abd644f1c44cc2341c1f2880a2f81e2a3501530a4157dc",
        "2084c1fb78bc25b833af29125efe32382905e68332818a5839302998d197f6cc",
        "1a579090ae93a1c68d4c4a9d69a725b017d37847114855674002c100daca49d4",
        "4f300ae16b372af0157dec8c20c424b4b3459679962720792064df12aabfdb38",
    )
    COMPACTED_SHA256 = (
        "ae999f1464b6b782ceb1189de8545dacf1acea38cf1ce0a49ec85e924d8b1bde"
    )

    def test_part_decodes_as_the_uncompressed_part_did(
            self, tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks):
        [part], _ = _pushdown_load(
            tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks
        )
        assert part.read_bytes()[:4] == b"PQL2"
        assert _decoded_sha256(part) == self.PART_SHA256

    def test_sealed_parts_and_compaction_decode_as_before(
            self, tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks):
        from repro.compact import rewrite_parts

        parts, _ = _pushdown_load(
            tmp_path, yelp_pushdown_plan, yelp_pushdown_chunks, seal_every=8
        )
        assert tuple(map(_decoded_sha256, parts)) == self.SEALED_PART_SHA256
        compacted = tmp_path / "compacted.pql"
        rewrite_parts(parts, compacted, cluster_by="stars")
        assert _decoded_sha256(compacted) == self.COMPACTED_SHA256
