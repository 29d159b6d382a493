"""Crash recovery: durable manifests rebuild servers and sessions.

The contract under test is the paper-system's fault story: a kill -9
loses at most the unsealed tail (everything past the last checkpoint),
recovery quarantines torn parts instead of crashing, recovered answers
are byte-identical over the same sealed set, and the recovered ingest
ledger makes client replay exactly-once.
"""

import json
import multiprocessing
import threading
from pathlib import Path

import pytest

from repro.api import CiaoSession
from repro.api.config import DeploymentConfig
from repro.bitvec import BitVector
from repro.client.protocol import encode_chunk
from repro.obs.metrics import Metrics
from repro.rawjson.chunks import JsonChunk
from repro.recovery import Manifest, ManifestError
from repro.server import pipeline as pipeline_module
from repro.server.pipeline import DEFAULT_SEAL_INTERVAL
from repro.server.ciao import CiaoServer
from repro.server.loader import LoadSummary
from repro.service import CiaoService, RemoteSession
from repro.service.results import canonical_result_bytes


def batch(i, rows=4):
    records = [
        json.dumps({"k": f"v{i % 3}", "n": i}) for _ in range(rows)
    ]
    return encode_chunk(JsonChunk(chunk_id=i, records=records))


def durable_server(path, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("shard_mode", "thread")
    kwargs.setdefault("seal_interval", 2)
    return CiaoServer(path, durable=True, **kwargs)


def record_counts(summary):
    """The load counters bar wall time (a job's differs by design)."""
    if not isinstance(summary, dict):
        summary = summary.to_dict()
    return {k: v for k, v in summary.items() if k != "wall_seconds"}


def sorted_rows(result):
    return sorted(json.dumps(row, sort_keys=True) for row in result.rows)


def feed(server, seqs, client_id="c1", source_id="src"):
    session = server.open_ingest_session(source_id)
    for seq in seqs:
        session.ingest_sequenced(batch(seq), seq=seq, client_id=client_id)
    return session


def sidelining_batch(i, rows=4):
    """One record per batch is loaded (bit 0 set); the rest sideline."""
    chunk = JsonChunk(chunk_id=i, records=[
        json.dumps({"k": f"v{i % 3}", "n": i * rows + r})
        for r in range(rows)
    ])
    chunk.attach(0, BitVector.from_bits([r == 0 for r in range(rows)]))
    return encode_chunk(chunk)


def feed_sidelining(server, seqs):
    session = server.open_ingest_session("src")
    for seq in seqs:
        session.ingest_sequenced(sidelining_batch(seq), seq=seq,
                                 client_id="c1")


class TestDurableManifest:
    def test_constructor_writes_loading_manifest(self, tmp_path):
        server = durable_server(tmp_path)
        path = Manifest.path_for(tmp_path, "t")
        assert path.exists()
        _, doc = Manifest.load(path)
        assert doc["state"] == "loading"
        assert doc["generation"] == 0
        assert server.manifest_revision == 1
        server.close()

    def test_non_durable_server_has_no_manifest(self, tmp_path):
        server = CiaoServer(tmp_path)
        assert server.manifest_revision is None
        assert not Manifest.path_for(tmp_path, "t").exists()
        server.close()

    def test_checkpoint_advances_revision(self, tmp_path):
        server = durable_server(tmp_path)
        feed(server, range(1, 5))
        assert server.checkpoint() is True
        assert server.manifest_revision == 2
        _, doc = Manifest.load(Manifest.path_for(tmp_path, "t"))
        assert doc["ledger"] == [["c1", "src", 4]]
        assert doc["parts"], "checkpoint must record sealed parts"
        server.close()

    def test_finalize_writes_finalized_manifest(self, tmp_path):
        server = durable_server(tmp_path)
        feed(server, range(1, 5))
        server.finalize_loading()
        _, doc = Manifest.load(Manifest.path_for(tmp_path, "t"))
        assert doc["state"] == "finalized"
        assert doc["summary"]["loaded"] == 16
        server.close()

    def test_checkpoint_on_non_durable_is_a_noop(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread",
                            seal_interval=2)
        assert server.checkpoint() is False
        server.finalize_loading()
        server.close()


class TestRecovery:
    def test_midload_recovery_is_byte_identical(self, tmp_path):
        server = durable_server(tmp_path)
        feed(server, range(1, 9))
        assert server.checkpoint() is True
        sql = "SELECT k, COUNT(*) FROM t GROUP BY k"
        before = canonical_result_bytes(server.query(sql))
        # Abandon the server (simulated kill -9) and rebuild from disk.
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.state == "loading"
        assert recovered.generation == 1
        after = canonical_result_bytes(recovered.query(sql))
        assert before == after
        server.close()
        recovered.close()

    @pytest.mark.parametrize("shard_mode", ["thread", "process"])
    def test_checkpoint_cut_is_exact_without_idle_poll(self, tmp_path,
                                                       monkeypatch,
                                                       shard_mode):
        # With the idle publish slowed to 10 s, only the flush barrier
        # can make the shards seal the odd batches the seal interval left
        # open — and a 3 s checkpoint must still cut exactly there.
        monkeypatch.setattr(pipeline_module, "_IDLE_POLL_SECONDS", 10.0)
        server = durable_server(tmp_path / "durable", shard_mode=shard_mode)
        session = feed(server, range(1, 10))
        assert server.checkpoint(timeout=3) is True
        for seq in (10, 11, 12):  # past the cut: lost by the crash
            session.ingest_sequenced(batch(seq), seq=seq, client_id="c1")
        recovered = CiaoServer.recover(tmp_path / "durable")
        assert recovered.ledger_last("c1", "src") == 9
        serial = CiaoServer(tmp_path / "serial")
        for seq in range(1, 10):
            serial.ingest(batch(seq))
        serial.finalize_loading()
        for sql in ("SELECT COUNT(*) FROM t",
                    "SELECT k, COUNT(*), SUM(n) FROM t GROUP BY k"):
            # Groups come out in part-scan order, which a sharded layout
            # does not share with serial ingest: compare the row sets.
            assert sorted_rows(recovered.query(sql)) == \
                sorted_rows(serial.query(sql))
        server.finalize_loading()
        recovered.finalize_loading()
        for each in (server, recovered, serial):
            each.close()

    def test_uncheckpointed_tail_is_lost_and_replayable(self, tmp_path):
        server = durable_server(tmp_path)
        session = feed(server, range(1, 5))
        server.checkpoint()
        # These batches are acked but never checkpointed: the crash
        # eats them, and the recovered watermark says so.
        for seq in (5, 6):
            session.ingest_sequenced(batch(seq), seq=seq, client_id="c1")
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.ledger_last("c1", "src") == 4
        replay = recovered.resume_ingest_session("src")
        results = [
            replay.ingest_sequenced(batch(seq), seq=seq, client_id="c1")
            for seq in (3, 4, 5, 6)  # client replays past the watermark
        ]
        assert [dup for _, dup in results] == [True, True, False, False]
        summary = recovered.finalize_loading()
        assert summary.received == 6 * 4  # every batch exactly once
        server.close()
        recovered.close()

    def test_finalized_recovery_is_byte_identical(self, tmp_path):
        server = durable_server(tmp_path)
        feed(server, range(1, 7))
        server.finalize_loading()
        sql = "SELECT k, COUNT(*) FROM t GROUP BY k"
        before = canonical_result_bytes(server.query(sql))
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.state == "finalized"
        assert canonical_result_bytes(recovered.query(sql)) == before
        server.close()
        recovered.close()

    @pytest.mark.parametrize("shard_mode", ["thread", "process"])
    def test_finalized_recovery_leaves_no_shard_worker(self, tmp_path,
                                                       shard_mode):
        # Nothing is left to load into a finalized manifest: recovery
        # finalizes the empty sink, so no shard worker outlives close().
        def shard_threads():
            return {t for t in threading.enumerate()
                    if "_run_shard" in t.name}

        server = durable_server(tmp_path, shard_mode=shard_mode)
        feed(server, range(1, 5))
        server.finalize_loading()
        server.close()
        threads, children = shard_threads(), set(
            multiprocessing.active_children()
        )
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.state == "finalized"
        assert recovered.query("SELECT COUNT(*) FROM t").scalar() == 4 * 4
        recovered.close()
        assert not any(w.is_alive() for w in recovered._pipeline._workers)
        assert shard_threads() <= threads
        assert set(multiprocessing.active_children()) <= children

    def test_torn_part_is_quarantined_not_fatal(self, tmp_path):
        metrics = Metrics()
        server = durable_server(tmp_path)
        feed(server, range(1, 9))
        server.checkpoint()
        _, doc = Manifest.load(Manifest.path_for(tmp_path, "t"))
        victim = tmp_path / doc["parts"][0]["path"]
        victim.write_bytes(victim.read_bytes()[:10])  # torn footer
        recovered = CiaoServer.recover(tmp_path, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["recovery.parts_quarantined"] == 1
        assert victim.with_suffix(
            victim.suffix + ".quarantined"
        ).exists()
        # The surviving parts still answer.
        rows = recovered.query("SELECT COUNT(*) FROM t").rows
        assert 0 < rows[0]["count(*)"] < 32
        server.close()
        recovered.close()

    def test_unlisted_part_is_quarantined(self, tmp_path):
        # Sealed every 4 chunks, checkpointed at 5, killed after 7: the
        # crashed generation's open part holds chunks 6-7 and no manifest
        # lists it.
        metrics = Metrics()
        server = durable_server(tmp_path, n_shards=1, seal_interval=4)
        session = feed(server, range(1, 6))
        assert server.checkpoint() is True
        for seq in (6, 7):
            session.ingest_sequenced(batch(seq), seq=seq, client_id="c1")
        unsealed = tmp_path / "t.part2.pql"
        assert unsealed.exists()
        recovered = CiaoServer.recover(tmp_path, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["recovery.parts_quarantined"] == 1
        assert counters["recovery.parts_recovered"] == 2
        assert not unsealed.exists()
        assert (tmp_path / "t.part2.pql.quarantined").exists()
        recovered.finalize_loading()
        assert recovered.query("SELECT COUNT(*) FROM t").scalar() == 5 * 4
        _, doc = Manifest.load(Manifest.path_for(tmp_path, "t"))
        listed = {record["path"] for record in doc["parts"]}
        assert listed == {"t.part0.pql", "t.part1.pql"}
        assert {p.name for p in tmp_path.glob("*.pql")} == listed
        server.close()
        recovered.close()

    def test_recovered_generation_gets_fresh_part_paths(self, tmp_path):
        server = durable_server(tmp_path)
        feed(server, range(1, 5))
        server.checkpoint()
        recovered = CiaoServer.recover(tmp_path)
        feed(recovered, range(5, 9))
        summary = recovered.finalize_loading()
        assert summary.received == 8 * 4
        rows = recovered.query("SELECT COUNT(*) FROM t").rows
        assert rows == [{"count(*)": 32}]
        server.close()
        recovered.close()

    def test_finalize_keeps_the_recovered_sideline_parsed(self, tmp_path):
        sql = "SELECT COUNT(*) FROM t"
        server = durable_server(tmp_path, partial_loading="on")
        feed_sidelining(server, range(1, 7))
        assert server.checkpoint() is True
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.state == "loading"
        feed_sidelining(recovered, range(7, 11))
        recovered.quiesce()
        mid = recovered.query(sql)
        assert mid.scalar() == 40
        # Mid-load the view parsed the recovered prefix (6 batches × 3
        # sidelined) and the 4 new batches' shard records.
        assert mid.stats.sideline_records_parsed == 30
        recovered.finalize_loading()
        final = recovered.query(sql)
        assert final.scalar() == 40
        # Finalize is the last publication: the view keeps the recovered
        # prefix and the shard files where they were, so nothing is
        # parsed again.
        assert final.stats.sideline_records_parsed == 0
        assert final.stats.sideline_records_cached == 30
        cached = list(recovered.table.sideline_cache._prefixes)
        assert cached == [str(path)
                          for path, _ in recovered.table.sidelines]
        assert all(Path(path).exists() for path in cached)
        server.close()
        recovered.close()

    def test_serial_midload_checkpoint_recovers_and_resumes(self, tmp_path):
        server = durable_server(tmp_path / "durable", n_shards=1)
        feed(server, range(1, 6))
        assert server.checkpoint() is True
        assert server.state == "loading"
        recovered = CiaoServer.recover(tmp_path / "durable")
        assert recovered.state == "loading"
        assert recovered.deployment_options["n_shards"] == 1
        assert recovered.ledger_last("c1", "src") == 5
        sql = "SELECT COUNT(*) FROM t"
        assert recovered.query(sql).scalar() == 5 * 4
        replay = recovered.resume_ingest_session("src")
        for seq in range(4, 10):  # replays past the watermark dedupe
            replay.ingest_sequenced(batch(seq), seq=seq, client_id="c1")
        summary = recovered.finalize_loading()
        assert summary.received == 9 * 4
        serial = CiaoServer(tmp_path / "serial")
        for seq in range(1, 10):
            serial.ingest(batch(seq))
        serial.finalize_loading()
        for sql in ("SELECT COUNT(*) FROM t",
                    "SELECT k, COUNT(*), SUM(n) FROM t GROUP BY k"):
            assert sorted_rows(recovered.query(sql)) == \
                sorted_rows(serial.query(sql))
        for each in (server, recovered, serial):
            each.close()

    def test_serial_recovered_sideline_is_one_segment(self, tmp_path):
        # The serial loader appends to the main sideline file right
        # after the recovered records: the view lists that file once.
        sql = "SELECT COUNT(*) FROM t"
        server = durable_server(tmp_path, n_shards=1, partial_loading="on")
        feed_sidelining(server, range(1, 7))
        assert server.checkpoint() is True
        recovered = CiaoServer.recover(tmp_path)
        main = tmp_path / "t.g1.sideline.jsonl"
        assert recovered.query(sql).scalar() == 24
        assert recovered.table.sidelines == [(main, 18)]
        feed_sidelining(recovered, range(7, 11))
        recovered.quiesce()
        mid = recovered.query(sql)
        assert mid.scalar() == 40
        assert recovered.table.sidelines == [(main, 30)]
        assert mid.stats.sideline_records_parsed == 12
        recovered.finalize_loading()
        final = recovered.query(sql)
        assert final.scalar() == 40
        assert final.stats.sideline_records_parsed == 0
        assert final.stats.sideline_records_cached == 30
        server.close()
        recovered.close()

    @pytest.mark.parametrize("stored", [{"seal_interval": None}, {}])
    def test_manifest_without_seal_interval_gets_the_default(self, tmp_path,
                                                            stored):
        # Servers that could switch sealing off wrote a null (or, older
        # still, no) seal_interval into their manifests.
        server = durable_server(tmp_path, n_shards=1)
        feed(server, range(1, 4))
        server.checkpoint()
        manifest, doc = Manifest.load(Manifest.path_for(tmp_path, "t"))
        del doc["options"]["seal_interval"]
        doc["options"].update(stored)
        manifest.write(doc)
        recovered = CiaoServer.recover(tmp_path)
        assert recovered.deployment_options["seal_interval"] == \
            DEFAULT_SEAL_INTERVAL
        assert recovered.query("SELECT COUNT(*) FROM t").scalar() == 3 * 4
        server.close()
        recovered.close()

    def test_recover_without_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestError):
            CiaoServer.recover(tmp_path)


class TestSessionRecovery:
    def _loaded_dir(self, tmp_path, durable=True):
        config = DeploymentConfig(durable=durable)
        with CiaoSession(source="yelp", config=config,
                         data_dir=tmp_path) as session:
            session.load(n_records=120).result()
            return canonical_result_bytes(
                session.query("SELECT COUNT(*) FROM t")
            )

    def test_recover_from_data_dir_discovers_load_subdir(self, tmp_path):
        before = self._loaded_dir(tmp_path)
        with CiaoSession(recover_from=tmp_path) as session:
            assert session.server.state == "finalized"
            after = canonical_result_bytes(
                session.query("SELECT COUNT(*) FROM t")
            )
        assert before == after

    def test_recover_from_manifest_dir_directly(self, tmp_path):
        before = self._loaded_dir(tmp_path)
        with CiaoSession(recover_from=tmp_path / "load-0") as session:
            after = canonical_result_bytes(
                session.query("SELECT COUNT(*) FROM t")
            )
        assert before == after

    def test_recover_restores_plan_and_config(self, tmp_path):
        config = DeploymentConfig(
            mode="sharded", n_shards=2, shard_mode="thread",
            seal_interval=2, durable=True,
        )
        with CiaoSession(source="yelp", config=config,
                         data_dir=tmp_path) as session:
            session.load(n_records=80).result()
        with CiaoSession(recover_from=tmp_path) as recovered:
            assert recovered.config.durable is True
            assert recovered.config.resolved_n_shards == 2
            assert recovered.config.seal_interval == 2

    def test_midload_recovery_attaches_external_job(self, tmp_path):
        config = DeploymentConfig(
            mode="sharded", n_shards=2, shard_mode="thread",
            seal_interval=2, durable=True,
        )
        session = CiaoSession(config=config, data_dir=tmp_path)
        job = session.external_load()
        feed(job.server, range(1, 5))
        job.server.checkpoint()
        # Crash: the session object is abandoned un-finalized.
        recovered = CiaoSession(recover_from=tmp_path)
        rejoined = recovered.external_load()
        assert rejoined is recovered.last_job  # attach, not a fresh load
        assert rejoined.server.state == "loading"
        feed(rejoined.server, range(5, 7))
        report = rejoined.finish_external()
        assert report.received == 6 * 4
        recovered.close()

    def test_recovered_finalized_job_is_born_done(self, tmp_path):
        config = DeploymentConfig(durable=True)
        with CiaoSession(source="yelp", config=config,
                         data_dir=tmp_path) as session:
            before = session.load(n_records=120).result()
        _, doc = Manifest.load(Manifest.path_for(tmp_path / "load-0", "t"))
        assert LoadSummary.from_dict(doc["summary"]).to_dict() == \
            doc["summary"]
        assert record_counts(doc["summary"]) == record_counts(before)
        with CiaoSession(recover_from=tmp_path) as recovered:
            job = recovered.last_job
            assert job.done
            assert job.wait(0)
            after = job.result(timeout=30)
        assert record_counts(after) == record_counts(before)
        assert after.accounting_ok and before.accounting_ok

    def test_external_job_finishes_through_one_event(self, tmp_path):
        session = CiaoSession(config=DeploymentConfig(durable=True),
                              data_dir=tmp_path)
        job = session.external_load()
        assert not job.done
        assert not job.wait(0)
        feed(job.server, range(1, 4))
        report = job.finish_external(timeout=30)
        assert job.done
        assert job.wait(0)
        assert job.finish_external() is report
        assert report.received == 3 * 4
        assert report.accounting_ok
        session.close()

    def test_committed_report_round_trips(self, tmp_path):
        session = CiaoSession(source="yelp",
                              config=DeploymentConfig(durable=True),
                              data_dir=tmp_path)
        with CiaoService(session) as service:
            with RemoteSession(service.address, client_id="c1") as remote:
                remote.load("yelp", n_records=60)
                committed = remote.commit()
        session.close()
        assert committed.pop("mode") == "serial"
        assert LoadSummary.from_dict(committed).to_dict() == committed
        assert committed["received"] == 60
        _, doc = Manifest.load(Manifest.path_for(tmp_path / "load-0", "t"))
        assert record_counts(doc["summary"]) == record_counts(committed)
        with CiaoSession(recover_from=tmp_path) as recovered:
            after = recovered.last_job.result(timeout=30)
        assert record_counts(after) == record_counts(committed)

    def test_recover_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(ManifestError, match="MANIFEST-t.json"):
            CiaoSession(recover_from=tmp_path)

    def test_non_durable_load_leaves_nothing_to_recover(self, tmp_path):
        self._loaded_dir(tmp_path, durable=False)
        with pytest.raises(ManifestError):
            CiaoSession(recover_from=tmp_path)
