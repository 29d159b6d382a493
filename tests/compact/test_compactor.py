"""Compactor against live servers: swaps, crash safety, session, STATS."""

import gc
import json
import time
import weakref

import pytest

from repro.api import CiaoSession, DeploymentConfig
from repro.compact import CompactionConfig, Compactor, resolve_compaction
from repro.compact import compactor as compactor_module
from repro.obs import Metrics, QueryLog
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import rowgroup

QUERIES = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE k = 3",
    "SELECT SUM(v) FROM t WHERE k = 1",
]


def make_chunks(n_chunks=12, n_records=20):
    chunks = []
    for cid in range(n_chunks):
        records = [
            dump_record({
                "k": (cid * n_records + i) % 8,
                "v": cid * n_records + i,
            })
            for i in range(n_records)
        ]
        chunks.append(JsonChunk(cid, records))
    return chunks


def answers(server):
    return [server.query(sql).scalar() for sql in QUERIES]


def streaming_server(tmp_path, tag, **kwargs):
    return CiaoServer(tmp_path / tag, n_shards=2, shard_mode="thread",
                      seal_interval=1, **kwargs)


def serial_reference(tmp_path, chunks, tag="ref"):
    server = CiaoServer(tmp_path / tag)
    for chunk in chunks:
        server.ingest(chunk)
    server.finalize_loading()
    return server


class TestReaderLifetime:
    def test_advance_keeps_readers_and_swap_closes_replaced(self, tmp_path):
        chunks = make_chunks()
        server = streaming_server(tmp_path, "stream")
        for chunk in chunks[:4]:
            server.ingest(chunk)
        server.quiesce()
        answers(server)
        before = {str(r.path): r for r in server.table.open_readers()}
        for chunk in chunks[4:8]:
            server.ingest(chunk)
        server.quiesce()
        answers(server)
        after = {str(r.path): r for r in server.table.open_readers()}
        # A snapshot advance opens only the newly sealed parts.
        assert set(before) < set(after)
        assert all(after[path] is reader for path, reader in before.items())
        comp = Compactor(server, config=CompactionConfig(min_observations=1))
        assert comp.run_once() is not None
        # The commit closes exactly the readers of the parts it replaced.
        live = {str(p) for p in server.sealed_parts()}
        replaced = [r for path, r in after.items() if path not in live]
        assert replaced and all(r._file.closed for r in replaced)
        assert not any(r._file.closed for path, r in after.items()
                       if path in live)
        assert answers(server) == answers(
            serial_reference(tmp_path, chunks[:8]))
        server.finalize_loading()


    def test_repeated_queries_decode_each_page_once(self, tmp_path,
                                                    monkeypatch):
        server = serial_reference(tmp_path, make_chunks())
        decoded = []
        real = rowgroup.read_page

        def counting(page, column_type):
            decoded.append(column_type)
            return real(page, column_type)

        monkeypatch.setattr(rowgroup, "read_page", counting)
        first = answers(server)
        groups = sum(len(reader) for reader in server.table.open_readers())
        # The queries touch k and v: each page of each group, once.
        assert groups and len(decoded) == 2 * groups
        for _ in range(3):
            assert answers(server) == first
        assert len(decoded) == 2 * groups

    def test_dropped_part_releases_its_decoded_columns(self, tmp_path):
        server = serial_reference(tmp_path, make_chunks())
        table = server.table
        parts = list(table.parquet_paths)
        first = answers(server)
        (reader,) = table.open_readers()
        assert all(group._cache for group in reader.row_groups())
        released = weakref.ref(reader)
        del reader
        table.set_view([], table.sidelines)
        gc.collect()
        assert released() is None
        table.set_view(parts, table.sidelines)
        assert answers(server) == first


class TestMidLoadCompaction:
    def test_swap_preserves_answers_and_load_continues(self, tmp_path):
        chunks = make_chunks()
        qlog = QueryLog()
        server = streaming_server(tmp_path, "stream", query_log=qlog)
        for chunk in chunks[:8]:
            server.ingest(chunk)
        server.quiesce()
        before = answers(server)
        parts_before = len(server.sealed_parts())
        assert parts_before >= 4
        comp = Compactor(
            server,
            config=CompactionConfig(min_observations=1),
            query_log=qlog,
        )
        stats = comp.run_once()
        assert stats is not None
        assert len(server.sealed_parts()) < parts_before
        # Mid-load answers unchanged by the swap, byte-identical.
        assert answers(server) == before
        # Ingest continues across the compacted catalog.
        for chunk in chunks[8:]:
            server.ingest(chunk)
        server.quiesce()
        reference = serial_reference(tmp_path, chunks)
        assert answers(server) == answers(reference)
        server.finalize_loading()
        assert answers(server) == answers(reference)

    def test_warm_snapcache_equals_cold_after_swap(self, tmp_path):
        chunks = make_chunks()
        qlog = QueryLog()
        server = streaming_server(tmp_path, "stream", query_log=qlog)
        for chunk in chunks:
            server.ingest(chunk)
        server.quiesce()
        warm_before = answers(server)  # populates per-part partials
        comp = Compactor(server, config=CompactionConfig(
            min_observations=1), query_log=qlog)
        assert comp.run_once() is not None
        warm_after = answers(server)  # partials for replaced parts gone
        server.table.clear_snapshot_cache()
        cold = answers(server)
        assert warm_before == warm_after == cold

    def test_recluster_improves_zone_pruning(self, tmp_path):
        chunks = make_chunks()
        qlog = QueryLog()
        server = streaming_server(tmp_path, "stream", query_log=qlog)
        for chunk in chunks:
            server.ingest(chunk)
        server.quiesce()
        for _ in range(4):
            server.query("SELECT COUNT(*) FROM t WHERE k = 3")
        comp = Compactor(server, config=CompactionConfig(
            min_observations=1, row_group_rows=20), query_log=qlog)
        stats = comp.run_once()
        assert stats is not None and stats.cluster_by == "k"
        result = server.query("SELECT COUNT(*) FROM t WHERE k = 3")
        skip_units = (result.stats.row_groups_skipped
                      + result.stats.row_groups_pruned_by_zonemap)
        assert skip_units > 0  # clustered groups prune or skip now

    def test_finalized_server_compacts_too(self, tmp_path):
        chunks = make_chunks()
        server = streaming_server(tmp_path, "stream")
        for chunk in chunks:
            server.ingest(chunk)
        server.finalize_loading()
        reference = serial_reference(tmp_path, chunks)
        parts_before = len(server.sealed_parts())
        comp = Compactor(server, config=CompactionConfig())
        assert comp.run_once() is not None
        assert len(server.sealed_parts()) < parts_before
        assert answers(server) == answers(reference)

    def test_serial_loading_server_has_no_sealed_parts(self, tmp_path):
        server = CiaoServer(tmp_path / "serial")
        server.ingest(make_chunks(2)[0])
        assert server.sealed_parts() == []
        comp = Compactor(server)
        assert comp.run_once() is None


class TestCrashSafety:
    def test_compactor_death_mid_rewrite_keeps_old_parts(
            self, tmp_path, monkeypatch):
        chunks = make_chunks()
        qlog = QueryLog()
        metrics = Metrics()
        server = streaming_server(tmp_path, "stream", query_log=qlog)
        for chunk in chunks:
            server.ingest(chunk)
        server.quiesce()
        before = answers(server)
        parts_before = server.sealed_parts()

        def die(*args, **kwargs):
            raise RuntimeError("compactor died mid-rewrite")

        monkeypatch.setattr(compactor_module, "rewrite_parts", die)
        comp = Compactor(server, config=CompactionConfig(
            poll_interval=0.005), metrics=metrics, query_log=qlog)
        comp.start()
        deadline = time.time() + 5.0
        while comp.stats()["errors"] == 0 and time.time() < deadline:
            time.sleep(0.01)
        comp.close()
        stats = comp.stats()
        assert stats["errors"] >= 1
        assert "compactor died" in stats["last_error"]
        assert metrics.counter("compact.errors").value >= 1
        # Catalog still points at the intact old parts.
        assert server.sealed_parts() == parts_before
        assert answers(server) == before
        monkeypatch.undo()

    def test_failed_round_does_not_kill_the_worker(self, tmp_path,
                                                   monkeypatch):
        chunks = make_chunks()
        server = streaming_server(tmp_path, "stream")
        for chunk in chunks:
            server.ingest(chunk)
        server.quiesce()
        calls = {"n": 0}
        real = compactor_module.rewrite_parts

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(compactor_module, "rewrite_parts", flaky)
        comp = Compactor(server, config=CompactionConfig(
            poll_interval=0.005))
        comp.start()
        deadline = time.time() + 5.0
        while comp.stats()["rewrites"] == 0 and time.time() < deadline:
            time.sleep(0.01)
        comp.close()
        stats = comp.stats()
        assert stats["errors"] >= 1
        assert stats["rewrites"] >= 1  # recovered after the failure


class TestSessionIntegration:
    def test_resolve_compaction_forms(self):
        assert resolve_compaction(None) is None
        assert resolve_compaction(False) is None
        assert isinstance(resolve_compaction(True), CompactionConfig)
        config = CompactionConfig(min_inputs=3)
        assert resolve_compaction(config) is config
        with pytest.raises(TypeError):
            resolve_compaction("yes")

    def test_session_background_compaction_end_to_end(self, tmp_path):
        qlog = QueryLog()
        metrics = Metrics()
        config = DeploymentConfig(mode="sharded", n_shards=2,
                                  shard_mode="thread", seal_interval=1,
                                  chunk_size=20)
        lines = [dump_record({"k": i % 8, "v": i}) for i in range(400)]
        with CiaoSession(
            source=lines, config=config,
            data_dir=tmp_path, metrics=metrics, query_log=qlog,
            compaction=CompactionConfig(min_observations=1,
                                        poll_interval=0.005),
        ) as session:
            job = session.load()
            assert session.compactor is not None
            assert session.compactor.running
            job.result()
            # Give the worker rounds to merge the sealed parts.
            deadline = time.time() + 5.0
            while (session.compaction_stats()["rewrites"] == 0
                    and time.time() < deadline):
                time.sleep(0.01)
            assert session.compaction_stats()["rewrites"] >= 1
            total = session.query("SELECT COUNT(*) FROM t").scalar()
            assert total == 400
            hot = session.query(
                "SELECT COUNT(*) FROM t WHERE k = 3"
            ).scalar()
            assert hot == 50
            assert metrics.counter("compact.parts_written").value >= 1
        assert not (session.compactor is not None
                    and session.compactor.running)

    def test_session_without_compaction_has_no_worker(self, tmp_path):
        lines = [dump_record({"k": i}) for i in range(10)]
        with CiaoSession(source=lines, data_dir=tmp_path) as session:
            session.load().result()
            assert session.compactor is None
            assert session.compaction_stats() is None


class TestServiceStats:
    def test_stats_reply_exposes_compaction_state(self, tmp_path):
        from repro.service import CiaoService, RemoteSession

        qlog = QueryLog()
        config = DeploymentConfig(mode="sharded", n_shards=2,
                                  shard_mode="thread", seal_interval=1,
                                  chunk_size=10)
        session = CiaoSession(
            config=config, data_dir=tmp_path, query_log=qlog,
            compaction=CompactionConfig(poll_interval=0.005),
        )
        service = CiaoService(session)
        try:
            remote = RemoteSession(service.address, client_id="c0")
            remote.load([dump_record({"k": i % 4, "v": i})
                         for i in range(100)], source_id="c0")
            remote.commit()
            assert remote.query("SELECT COUNT(*) FROM t").scalar() == 100
            stats = remote.stats()
            assert "compaction" in stats
            assert stats["compaction"]["running"] is True
            assert "policy" in stats["compaction"]
            remote.close()
        finally:
            service.close()
            session.close()

    def test_stats_without_compaction_has_no_key(self, tmp_path):
        from repro.service import CiaoService

        session = CiaoSession(data_dir=tmp_path)
        service = CiaoService(session)
        try:
            doc = service.stats()
            assert "compaction" not in doc
            assert json.dumps(doc)  # stays JSON-able
        finally:
            service.close()
            session.close()
