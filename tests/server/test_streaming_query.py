"""Query-during-load: streaming snapshots, work stealing, and lifecycle.

The contract under test: a server — serial or sharded — answers queries
*while loading*, and every mid-load answer equals what serial ingest of
exactly the covered chunks would answer; after finalize, answers equal
serial ingest of the whole stream.  Plus the lifecycle fixes that make the seam safe — explicit
``loading → finalized`` states and loud errors on ingest-after-finalize.
"""

import pytest

from repro.api import CiaoSession, DeploymentConfig
from repro.bitvec import BitVector
from repro.client import encode_chunk
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import JsonSideStore, SidelineView
from repro.server.pipeline import ShardedIngestPipeline

SEED = 4242
N_CHUNKS = 10
CHUNK_RECORDS = 30


def make_chunks(n_chunks=N_CHUNKS, n_records=CHUNK_RECORDS):
    chunks = []
    for cid in range(n_chunks):
        records = [
            dump_record({
                "i": (cid * n_records + k) % 7,
                "v": cid * n_records + k,
                "tag": f"t{k % 3}",
            })
            for k in range(n_records)
        ]
        chunks.append(JsonChunk(cid, records))
    return chunks


def make_skewed_chunks(n_shards=4, rounds=4, big=120, small=10):
    """Every n_shards-th chunk is huge: round-robin pins them to shard 0."""
    chunks = []
    cid = 0
    for _ in range(rounds):
        for pos in range(n_shards):
            size = big if pos == 0 else small
            records = [
                dump_record({"i": (cid * 1000 + k) % 5, "v": cid * 1000 + k})
                for k in range(size)
            ]
            chunks.append(JsonChunk(cid, records))
            cid += 1
    return chunks


def serial_reference(tmp_path, chunks, tag):
    """Serial ingest of *chunks*, finalized — the ground truth."""
    server = CiaoServer(tmp_path / tag)
    for chunk in chunks:
        server.ingest(chunk)
    server.finalize_loading()
    return server


QUERIES = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE i = 3",
    "SELECT SUM(v) FROM t WHERE i = 1",
]


def answers(server):
    return [server.query(sql).scalar() for sql in QUERIES]


class TestStreamingQueryEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_mid_load_equals_serial_prefix(self, tmp_path, n_shards):
        chunks = make_chunks()
        prefix = len(chunks) // 2
        server = CiaoServer(tmp_path / "stream", n_shards=n_shards,
                            shard_mode="thread")
        for chunk in chunks[:prefix]:
            server.ingest(chunk)
        server.quiesce()
        reference = serial_reference(tmp_path, chunks[:prefix], "ref-prefix")
        assert answers(server) == answers(reference)
        assert server.state == "loading"
        # Loading continues after the mid-load queries.
        for chunk in chunks[prefix:]:
            server.ingest(chunk)
        server.finalize_loading()
        full = serial_reference(tmp_path, chunks, "ref-full")
        assert answers(server) == answers(full)
        assert server.load_summary.received == full.load_summary.received

    def test_one_shard_pipeline_streams_via_snapshot_scan(self, tmp_path):
        """1-shard arm, driven at the engine level: a pipeline snapshot
        set as a TableEntry's live view must answer like serial ingest
        of the prefix."""
        from repro.engine.catalog import Catalog, TableEntry
        from repro.engine.executor import Executor

        chunks = make_chunks()
        prefix = 5
        side = JsonSideStore(tmp_path / "t.sideline.jsonl")
        pipeline = ShardedIngestPipeline(
            tmp_path / "t.pql", side, n_shards=1, partial_loading=False,
            mode="thread", seal_interval=2,
        )
        table = TableEntry(name="t")
        catalog = Catalog()
        catalog.register(table)
        executor = Executor(catalog)
        for chunk in chunks[:prefix]:
            pipeline.submit(chunk)
        snap = pipeline.quiesce()
        table.set_view(snap.parquet_paths, snap.sidelines, live=True)
        reference = serial_reference(tmp_path, chunks[:prefix], "ref")
        got = [executor.execute(sql).scalar() for sql in QUERIES]
        assert got == answers(reference)
        for chunk in chunks[prefix:]:
            pipeline.submit(chunk)
        pipeline.finalize()
        table.set_view(pipeline.parquet_paths,
                       [(side.path, side.record_count)])
        full = serial_reference(tmp_path, chunks, "full")
        got = [executor.execute(sql).scalar() for sql in QUERIES]
        assert got == answers(full)

    def test_mid_load_group_by_matches(self, tmp_path):
        chunks = make_chunks()
        server = CiaoServer(tmp_path / "s", n_shards=3, shard_mode="thread")
        for chunk in chunks[:6]:
            server.ingest(chunk)
        server.quiesce()
        reference = serial_reference(tmp_path, chunks[:6], "ref")
        sql = "SELECT tag, COUNT(*) FROM t GROUP BY tag"
        got = sorted(
            (r["tag"], r["count(*)"]) for r in server.query(sql).rows
        )
        want = sorted(
            (r["tag"], r["count(*)"]) for r in reference.query(sql).rows
        )
        assert got == want

    def test_snapshot_covers_exactly_reported_chunks(self, tmp_path):
        """Without quiescing, whatever the snapshot covers must be exact."""
        chunks = make_chunks()
        server = CiaoServer(tmp_path / "s", n_shards=2, shard_mode="thread")
        for chunk in chunks:
            server.ingest(chunk)
        # No quiesce: the snapshot may cover any subset of the stream.
        result = server.query("SELECT COUNT(*) FROM t")
        covered = server._pipeline.snapshot()
        # The count the query saw cannot exceed what is now covered, and
        # must equal some consistent chunk-set size (multiples of whole
        # chunks: every chunk is all-in or all-out).
        assert result.scalar() % CHUNK_RECORDS == 0
        assert result.scalar() <= covered.summary.received
        server.finalize_loading()
        assert server.query(
            "SELECT COUNT(*) FROM t").scalar() == N_CHUNKS * CHUNK_RECORDS

    def test_mid_load_with_partial_loading_sideline(self, tmp_path):
        """Snapshot view = sealed parts + sideline watermarks, together."""
        n = 20
        side = JsonSideStore(tmp_path / "t.sideline.jsonl")
        pipeline = ShardedIngestPipeline(
            tmp_path / "t.pql", side, n_shards=2, partial_loading=True,
            mode="thread", seal_interval=2,
        )
        for cid in range(6):
            records = [dump_record({"i": cid * n + k}) for k in range(n)]
            chunk = JsonChunk(cid, records)
            chunk.attach(
                0, BitVector.from_bits([k % 4 == 0 for k in range(n)])
            )
            pipeline.submit(chunk)
        snap = pipeline.quiesce()
        assert snap.complete
        assert snap.summary.loaded == 6 * 5
        assert snap.summary.sidelined == 6 * 15
        # The sideline segments hold exactly the sidelined records.
        viewed = sum(1 for path, records in snap.sidelines
                     for _ in SidelineView(path, records).iter_raw())
        assert viewed == snap.summary.sidelined
        pipeline.finalize()

    def test_process_mode_mid_load(self, tmp_path):
        chunks = make_chunks(n_chunks=6)
        server = CiaoServer(tmp_path / "s", n_shards=2,
                            shard_mode="process")
        for chunk in chunks[:3]:
            server.ingest(encode_chunk(chunk))
        server.quiesce()
        reference = serial_reference(tmp_path, chunks[:3], "ref")
        assert answers(server) == answers(reference)
        for chunk in chunks[3:]:
            server.ingest(encode_chunk(chunk))
        server.finalize_loading()
        full = serial_reference(tmp_path, chunks, "full")
        assert answers(server) == answers(full)


class TestSerialMidLoad:
    """A serial server seals and publishes like a one-shard load."""

    def test_quiesced_prefix_equals_finalized_serial(self, tmp_path):
        chunks = make_chunks()
        prefix = 5
        server = CiaoServer(tmp_path / "live")
        for chunk in chunks[:prefix]:
            server.ingest(chunk)
        server.quiesce()
        reference = serial_reference(tmp_path, chunks[:prefix], "ref")
        assert answers(server) == answers(reference)
        assert server.state == "loading"
        assert server.load_summary.received == \
            reference.load_summary.received
        for chunk in chunks[prefix:]:
            server.ingest(chunk)
        server.finalize_loading()
        full = serial_reference(tmp_path, chunks, "full")
        assert answers(server) == answers(full)

    def test_query_sees_only_sealed_chunks(self, tmp_path):
        server = CiaoServer(tmp_path, seal_interval=4)
        for chunk in make_chunks():
            server.ingest(chunk)
        # Two seals cover eight chunks; the last two wait for the next.
        assert server.query("SELECT COUNT(*) FROM t").scalar() \
            == 8 * CHUNK_RECORDS
        assert server.load_summary.chunks == 8
        assert len(server.sealed_parts()) == 2
        server.finalize_loading()
        assert server.query("SELECT COUNT(*) FROM t").scalar() \
            == N_CHUNKS * CHUNK_RECORDS
        assert len(server.table.parquet_paths) == 3

    def test_view_is_resolved_once_per_publication(self, tmp_path,
                                                   monkeypatch):
        from repro.compact import rewrite_parts

        resolved = []
        original = CiaoServer._remap_parts

        def counting(self, paths):
            if self is server:
                resolved.append(len(paths))
            return original(self, paths)

        monkeypatch.setattr(CiaoServer, "_remap_parts", counting)
        chunks = make_chunks()
        server = CiaoServer(tmp_path / "live", seal_interval=2)
        for chunk in chunks[:4]:
            server.ingest(chunk)
        sql = "SELECT COUNT(*) FROM t WHERE i = 3"
        answers = {server.query(sql).scalar() for _ in range(10)}
        assert len(resolved) == 1  # ten queries, one unchanged snapshot
        for chunk in chunks[4:6]:  # one more seal publishes
            server.ingest(chunk)
        assert server.query(sql).scalar() > min(answers)
        assert len(resolved) == 2
        parts = server.table.parquet_paths
        merged = tmp_path / "live" / "merged.pql"
        rewrite_parts(parts, merged)
        server.commit_compaction(parts, merged)
        assert len(resolved) == 3
        assert server.table.parquet_paths == [merged]
        reference = serial_reference(tmp_path, chunks[:6], "ref")
        assert server.query(sql).scalar() == reference.query(sql).scalar()
        assert len(resolved) == 3

    def test_mid_load_sideline_is_covered_once(self, tmp_path):
        """Sealed parts + the main sideline file's watermark, together."""
        n = 20
        chunks = []
        for cid in range(6):
            chunk = JsonChunk(
                cid, [dump_record({"i": cid * n + k}) for k in range(n)]
            )
            chunk.attach(
                0, BitVector.from_bits([k % 4 == 0 for k in range(n)])
            )
            chunks.append(chunk)
        server = CiaoServer(tmp_path, partial_loading="on", seal_interval=4)
        for chunk in chunks:
            server.ingest(chunk)
        mid = server.query("SELECT COUNT(*) FROM t")
        assert mid.scalar() == 4 * n
        assert mid.stats.sideline_records_parsed == 4 * 15
        assert server.table.sidelines == [(server._side_store.path, 4 * 15)]
        server.quiesce()
        assert server.query("SELECT COUNT(*) FROM t").scalar() == 6 * n
        assert server.load_summary.sidelined == 6 * 15

    def test_concurrent_queries_see_whole_publications(self, tmp_path):
        """Queries racing the ingest thread see only whole seals."""
        import sys
        import threading

        chunks = make_chunks(n_chunks=40)
        server = CiaoServer(tmp_path, seal_interval=2)
        seen = {i: [] for i in range(4)}
        done = threading.Event()

        def reader(i):
            while not done.is_set():
                seen[i].append(
                    server.query("SELECT COUNT(*) FROM t").scalar()
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader, args=(i,))
                       for i in range(4)]
            for thread in readers:
                thread.start()
            for chunk in chunks:
                server.ingest(chunk)
            done.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        for counts in seen.values():
            assert all(c % (2 * CHUNK_RECORDS) == 0 for c in counts), counts
            assert counts == sorted(counts)
        assert server.query("SELECT COUNT(*) FROM t").scalar() \
            == 40 * CHUNK_RECORDS
        assert server.state == "loading"


class TestWorkStealing:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_equivalent_to_round_robin_on_skewed_chunks(self, tmp_path,
                                                        mode):
        chunks = make_skewed_chunks()
        results = {}
        for dispatch in ("work-stealing", "round-robin"):
            server = CiaoServer(
                tmp_path / dispatch, n_shards=4, shard_mode=mode,
                dispatch=dispatch,
            )
            for chunk in chunks:
                server.ingest(chunk)
            summary = server.finalize_loading()
            results[dispatch] = (
                answers(server),
                summary.received, summary.loaded, summary.sidelined,
                [r.chunk_id for r in summary.reports],
            )
        assert results["work-stealing"] == results["round-robin"]

    def test_reports_in_submission_order_under_stealing(self, tmp_path):
        chunks = make_skewed_chunks(rounds=2)
        server = CiaoServer(tmp_path, n_shards=3, shard_mode="thread")
        for chunk in chunks:
            server.ingest(chunk)
        summary = server.finalize_loading()
        assert [r.chunk_id for r in summary.reports] == [
            c.chunk_id for c in chunks
        ]


class TestLifecycle:
    def test_states(self, tmp_path):
        server = CiaoServer(tmp_path)
        assert server.state == "loading"
        server.ingest(make_chunks(1)[0])
        server.finalize_loading()
        assert server.state == "finalized"

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_ingest_after_finalize_raises(self, tmp_path, n_shards):
        server = CiaoServer(tmp_path, n_shards=n_shards,
                            shard_mode="thread")
        chunk = make_chunks(1)[0]
        server.ingest(chunk)
        server.finalize_loading()
        with pytest.raises(RuntimeError, match="finalized server"):
            server.ingest(chunk)
        with pytest.raises(RuntimeError, match="finalized server"):
            server.ingest(encode_chunk(chunk))

    def test_ingest_channel_after_finalize_raises(self, tmp_path):
        from repro.transport import MemoryChannel

        server = CiaoServer(tmp_path)
        server.finalize_loading()
        channel = MemoryChannel()
        channel.send(encode_chunk(make_chunks(1)[0]))
        with pytest.raises(RuntimeError, match="finalized server"):
            server.ingest_channel(channel)
        # The channel was not drained by the failed call.
        assert channel.pending() == 1

    def test_sharded_query_does_not_finalize(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread")
        server.ingest(make_chunks(1)[0])
        server.quiesce()
        assert server.query("SELECT COUNT(*) FROM t").scalar() \
            == CHUNK_RECORDS
        assert server.state == "loading"
        server.ingest(make_chunks(2)[1])  # still accepts data
        server.finalize_loading()
        assert server.state == "finalized"

    def test_finalize_idempotent_and_summary_stable(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread")
        for chunk in make_chunks(4):
            server.ingest(chunk)
        first = server.finalize_loading()
        second = server.finalize_loading()
        assert first.received == second.received == 4 * CHUNK_RECORDS


class TestServerConfig:
    """Construction options reach the server and are validated by it."""

    def test_from_config_round_trip(self, tmp_path):
        config = DeploymentConfig(
            mode="sharded", table_name="events", n_shards=2,
            shard_mode="thread", dispatch="round-robin", seal_interval=4,
        )
        session = CiaoSession(config=config, data_dir=tmp_path)
        server = session.external_load().server
        assert server.table_name == "events"
        assert server._pipeline is not None
        assert server._pipeline.dispatch == "round-robin"
        assert server._pipeline.seal_interval == 4
        server.ingest(make_chunks(1)[0])
        server.finalize_loading()
        assert server.query(
            "SELECT COUNT(*) FROM events").scalar() == CHUNK_RECORDS
        session.close()

    def test_invalid_shard_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard_mode"):
            CiaoServer(tmp_path, shard_mode="fiber")

    def test_invalid_dispatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dispatch"):
            CiaoServer(tmp_path, n_shards=2, dispatch="lottery")
