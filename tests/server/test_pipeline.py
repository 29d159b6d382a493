"""Tests for the sharded ingest pipeline (serial-equivalence above all)."""

import threading
import time

import pytest

from repro.bitvec import BitVector
from repro.client import SimulatedClient, encode_chunk
from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
)
from repro.data import make_generator
from repro.obs.metrics import Metrics
from repro.rawjson import JsonChunk, dump_record
from repro.server import (
    CiaoServer,
    IngestPipelineError,
    ShardedIngestPipeline,
)
from repro.server import pipeline as pipeline_module
from repro.server.loader import ClientAssistedLoader
from repro.storage import JsonSideStore, SidelineView
from repro.workload import estimate_selectivities, table3_workload

SEED = 777


@pytest.fixture(scope="module")
def workload_setup():
    generator = make_generator("winlog", SEED)
    lines = list(generator.raw_lines(900))
    workload = table3_workload("winlog", "A", seed=SEED, n_queries=10)
    sels = estimate_selectivities(
        workload.candidate_pool, generator.sample(600)
    )
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    plan = CiaoOptimizer(workload, sels, model).plan(Budget(6.0))
    client = SimulatedClient("c", plan=plan, chunk_size=150)
    payloads = [encode_chunk(c) for c in client.process(lines)]
    return plan, workload, payloads


def finalize_within(pipeline, seconds):
    """Run ``finalize()`` on a helper thread; return what it raised.

    Fails (instead of hanging the suite) when finalize does not return
    within *seconds* — e.g. because a worker stayed parked on a flush.
    """
    outcome = {}

    def run():
        try:
            pipeline.finalize()
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"finalize() hung past {seconds}s"
    return outcome.get("error")


def run_server(tmp_path, plan, workload, payloads, n_shards, mode="thread"):
    server = CiaoServer(
        tmp_path, plan=plan, workload=workload,
        n_shards=n_shards, shard_mode=mode,
    )
    for payload in payloads:
        server.ingest(payload)
    summary = server.finalize_loading()
    results = [server.query(q.sql("t")).scalar() for q in workload.queries]
    return server, summary, results


def serial_summary(tmp_path, chunks):
    """What one serial loader reports for *chunks* (the reference)."""
    loader = ClientAssistedLoader(
        tmp_path / "serial.pql", JsonSideStore(tmp_path / "serial.jsonl"),
        partial_loading=True,
    )
    for chunk in chunks:
        loader.ingest(chunk)
    return loader.finalize()


def counts(summary):
    """A summary's record counts and per-chunk reports, bar wall time."""
    return (
        {k: v for k, v in summary.to_dict().items() if k != "wall_seconds"},
        [(r.chunk_id, r.received, r.loaded, r.sidelined, r.malformed)
         for r in summary.reports],
    )


class TestShardEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_query_results_identical_to_serial(self, tmp_path,
                                               workload_setup, n_shards):
        plan, workload, payloads = workload_setup
        _, serial_summary, serial_results = run_server(
            tmp_path / "serial", plan, workload, payloads, n_shards=1
        )
        _, summary, results = run_server(
            tmp_path / f"shards{n_shards}", plan, workload, payloads,
            n_shards=n_shards,
        )
        assert results == serial_results
        assert summary.received == serial_summary.received
        assert summary.loaded == serial_summary.loaded
        assert summary.sidelined == serial_summary.sidelined
        assert summary.malformed == serial_summary.malformed

    def test_merged_reports_in_submission_order(self, tmp_path,
                                                workload_setup):
        plan, workload, payloads = workload_setup
        server, summary, _ = run_server(
            tmp_path, plan, workload, payloads, n_shards=3
        )
        assert [r.chunk_id for r in summary.reports] == [
            r.chunk_id for r in
            run_server(tmp_path / "s", plan, workload, payloads, 1)[1].reports
        ]

    def test_sideline_contents_match_serial(self, tmp_path, workload_setup):
        plan, workload, payloads = workload_setup
        serial_server, _, _ = run_server(
            tmp_path / "serial", plan, workload, payloads, n_shards=1
        )
        sharded_server, _, _ = run_server(
            tmp_path / "sharded", plan, workload, payloads, n_shards=4
        )
        def sideline(server):
            return sorted(pair for path, records in server.table.sidelines
                          for pair in SidelineView(path, records).iter_raw())

        assert sideline(sharded_server) == sideline(serial_server)

    def test_process_mode_matches_serial(self, tmp_path, workload_setup):
        plan, workload, payloads = workload_setup
        _, serial_summary, serial_results = run_server(
            tmp_path / "serial", plan, workload, payloads, n_shards=1
        )
        _, summary, results = run_server(
            tmp_path / "proc", plan, workload, payloads,
            n_shards=2, mode="process",
        )
        assert results == serial_results
        assert summary.loaded == serial_summary.loaded

    def test_shard_sideline_files_cleaned_up(self, tmp_path, workload_setup):
        plan, workload, payloads = workload_setup
        run_server(tmp_path, plan, workload, payloads, n_shards=4)
        leftovers = list(tmp_path.glob("*.sideline.shard*"))
        assert leftovers == []


class TestPipelineBehavior:
    def simple_chunks(self, n_chunks=6, n_records=20):
        chunks = []
        for cid in range(n_chunks):
            records = [
                dump_record({"i": cid * n_records + i, "k": f"v{i}"})
                for i in range(n_records)
            ]
            chunk = JsonChunk(cid, records)
            chunk.attach(
                0, BitVector.from_bits([i % 2 == 0 for i in range(n_records)])
            )
            chunks.append(chunk)
        return chunks

    def make_pipeline(self, tmp_path, n_shards=2, mode="thread", **kwargs):
        side = JsonSideStore(tmp_path / "t.sideline.jsonl")
        return ShardedIngestPipeline(
            tmp_path / "t.pql", side, n_shards=n_shards,
            partial_loading=True, mode=mode, **kwargs
        ), side

    def test_accepts_decoded_and_encoded_payloads(self, tmp_path):
        pipeline, _ = self.make_pipeline(tmp_path)
        chunks = self.simple_chunks()
        for i, chunk in enumerate(chunks):
            pipeline.submit(encode_chunk(chunk) if i % 2 else chunk)
        summary = pipeline.finalize()
        assert summary.chunks == len(chunks)
        assert summary.received == 120
        assert summary.loaded == 60
        assert summary.sidelined == 60

    def test_round_robin_assignment_is_deterministic(self, tmp_path):
        # Round-robin dispatch (with streaming seals off) still promises
        # reproducible shard files; work-stealing trades that for load
        # balance, so the layout contract is opt-in now.
        pipeline, _ = self.make_pipeline(
            tmp_path, n_shards=2, dispatch="round-robin", seal_interval=None
        )
        for chunk in self.simple_chunks(n_chunks=4):
            pipeline.submit(chunk)
        pipeline.finalize()
        names = [p.name for p in pipeline.parquet_paths]
        assert names == ["t.shard0.part0.pql", "t.shard1.part0.pql"]

    def test_work_stealing_covers_every_chunk_once(self, tmp_path):
        pipeline, _ = self.make_pipeline(tmp_path, n_shards=2)
        chunks = self.simple_chunks(n_chunks=8)
        for chunk in chunks:
            pipeline.submit(chunk)
        summary = pipeline.finalize()
        assert sorted(r.chunk_id for r in summary.reports) == [
            c.chunk_id for c in chunks
        ]
        assert summary.received == sum(len(c.records) for c in chunks)

    def test_invalid_dispatch_and_seal_interval(self, tmp_path):
        side = JsonSideStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="dispatch"):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=2,
                                  partial_loading=True, mode="thread",
                                  dispatch="lottery")
        with pytest.raises(ValueError, match="seal_interval"):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=2,
                                  partial_loading=True, mode="thread",
                                  seal_interval=0)

    def test_submit_after_finalize_rejected(self, tmp_path):
        pipeline, _ = self.make_pipeline(tmp_path)
        pipeline.submit(self.simple_chunks(n_chunks=1)[0])
        pipeline.finalize()
        with pytest.raises(RuntimeError):
            pipeline.submit(self.simple_chunks(n_chunks=1)[0])

    def test_finalize_idempotent(self, tmp_path):
        pipeline, _ = self.make_pipeline(tmp_path)
        for chunk in self.simple_chunks(n_chunks=2):
            pipeline.submit(chunk)
        first = pipeline.finalize()
        second = pipeline.finalize()
        assert first is second

    def test_corrupt_payload_surfaces_at_finalize(self, tmp_path):
        pipeline, _ = self.make_pipeline(tmp_path)
        good = self.simple_chunks(n_chunks=2)
        pipeline.submit(good[0])
        pipeline.submit(b"CIA1 this is not a chunk")
        pipeline.submit(good[1])
        with pytest.raises(IngestPipelineError, match="shard"):
            pipeline.finalize()
        # And stays failed on repeat finalize.
        with pytest.raises(IngestPipelineError):
            pipeline.finalize()

    def test_shard_error_surfaces_in_snapshot_fast(self, tmp_path,
                                                   monkeypatch):
        # A corrupt payload must fail snapshot()/quiesce() promptly with
        # the real cause, not burn the quiesce timeout — and the failed
        # flush must release every parked worker, or finalize() hangs
        # (thread workers cannot be terminated).  With the idle publish
        # slowed to 10 s, only the flush can make the workers report.
        monkeypatch.setattr(pipeline_module, "_IDLE_POLL_SECONDS", 10.0)
        for mode, dispatch in (("thread", "work-stealing"),
                               ("thread", "round-robin"),
                               ("process", "work-stealing")):
            pipeline, _ = self.make_pipeline(
                tmp_path / f"{mode}-{dispatch}", mode=mode,
                dispatch=dispatch,
            )
            for chunk in self.simple_chunks(n_chunks=3):
                pipeline.submit(chunk)
            pipeline.submit(b"CIA1 this is not a chunk")
            start = time.monotonic()
            with pytest.raises(IngestPipelineError, match="failed on chunk"):
                pipeline.quiesce(timeout=5)
            assert time.monotonic() - start < 5
            error = finalize_within(
                pipeline, pipeline_module._ABANDON_GRACE_SECONDS
            )
            assert isinstance(error, IngestPipelineError)
            assert "abandoned" not in str(error)
            assert not any(w.is_alive() for w in pipeline._workers)
            with pytest.raises(IngestPipelineError):
                pipeline.finalize()

    def test_malformed_records_quarantined_across_shards(self, tmp_path):
        pipeline, side = self.make_pipeline(tmp_path, n_shards=2)
        records = [dump_record({"i": 0}), "{broken", dump_record({"i": 2})]
        for cid in range(2):
            chunk = JsonChunk(cid, list(records))
            chunk.attach(0, BitVector.from_bits([1, 1, 0]))
            pipeline.submit(chunk)
        summary = pipeline.finalize()
        assert summary.received == 6
        assert summary.loaded == 2
        assert summary.sidelined == 2
        assert summary.malformed == 2
        assert side.record_count == 4  # sidelined + malformed, both shards

    def test_shard_init_failure_does_not_deadlock(self, tmp_path,
                                                  monkeypatch):
        # If a shard loader fails to construct, the worker must still
        # drain its (bounded) queue or submit() blocks forever.
        from repro.server import pipeline as pipeline_module

        class ExplodingLoader:
            def __init__(self, *args, **kwargs):
                raise OSError("disk on fire")

        monkeypatch.setattr(
            pipeline_module, "ClientAssistedLoader", ExplodingLoader
        )
        side = JsonSideStore(tmp_path / "t.sideline.jsonl")
        pipeline = ShardedIngestPipeline(
            tmp_path / "t.pql", side, n_shards=1, partial_loading=True,
            mode="thread", queue_depth=2,
        )
        # Far more submissions than the queue depth: only passes if the
        # failed worker keeps consuming.
        for chunk in self.simple_chunks(n_chunks=10):
            pipeline.submit(chunk)
        with pytest.raises(IngestPipelineError, match="failed to init"):
            pipeline.finalize()

    def test_killed_worker_does_not_hang_finalize(self, tmp_path):
        # A shard killed mid-load: its flush token is never taken, so a
        # checkpoint times out (and is counted), the surviving worker is
        # released from its park, and finalize reports the dead shard
        # within its abandon grace.
        grace = pipeline_module._ABANDON_GRACE_SECONDS
        for dispatch in ("work-stealing", "round-robin"):
            metrics = Metrics()
            server = CiaoServer(
                tmp_path / dispatch, durable=True, n_shards=2,
                shard_mode="process", dispatch=dispatch, seal_interval=2,
                metrics=metrics,
            )
            pipeline = server._pipeline
            first, second = self.simple_chunks(n_chunks=2)
            server.ingest(encode_chunk(first))
            pipeline._workers[1].terminate()
            pipeline._workers[1].join()
            # Round-robin hands chunk #1 to the dead shard.
            server.ingest(encode_chunk(second))
            timed_out = []
            for flush in (lambda: pipeline.quiesce(timeout=1),
                          lambda: server.checkpoint(timeout=1)):
                start = time.monotonic()
                try:
                    flush()
                    timed_out.append(False)
                except TimeoutError:
                    timed_out.append(True)
                assert time.monotonic() - start < 1 + 1
            if dispatch == "round-robin":
                # Chunk #1 sits with the dead shard.  (Under work stealing
                # the survivor may have taken every chunk.)
                assert timed_out == [True, True]
            counters = metrics.snapshot()["counters"]
            assert counters["recovery.checkpoint_timeouts"] == timed_out[1]
            start = time.monotonic()
            with pytest.raises(IngestPipelineError,
                               match="terminated without reporting") as info:
                server.finalize_loading()
            assert time.monotonic() - start < grace + 3
            if dispatch == "round-robin":
                # The survivor drained to its stop sentinel: not parked.
                assert "abandoned" not in str(info.value)

    def test_worker_killed_while_parked_does_not_hang(self, tmp_path):
        # Shard 2 dies before the flush, so shards 0 and 1 stay parked
        # on the barrier after a successful quiesce; then shard 1 is
        # killed while parked.  A process barrier's abort() waits for
        # every parked worker to acknowledge its wake-up, which a dead
        # one never does — neither the next flush nor finalize may hang.
        pipeline, _ = self.make_pipeline(
            tmp_path, n_shards=3, mode="process", dispatch="round-robin"
        )
        pipeline._workers[2].terminate()
        pipeline._workers[2].join()
        for chunk in self.simple_chunks(n_chunks=2):  # shards 0 and 1
            pipeline.submit(chunk)
        assert pipeline.quiesce(timeout=3).chunks == 2
        deadline = time.monotonic() + 3
        while pipeline._barrier.n_waiting < 2:
            assert time.monotonic() < deadline, "shards did not park"
            time.sleep(0.01)
        pipeline._workers[1].terminate()
        pipeline._workers[1].join()
        pipeline.submit(self.simple_chunks(n_chunks=1)[0])  # to shard 2
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            pipeline.quiesce(timeout=1)
        assert time.monotonic() - start < 1 + 1
        error = finalize_within(
            pipeline, pipeline_module._ABANDON_GRACE_SECONDS + 5
        )
        assert isinstance(error, IngestPipelineError)
        assert "terminated without reporting" in str(error)

    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("dispatch", ["work-stealing", "round-robin"])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_quiesce_does_not_wait_on_idle_poll(self, tmp_path, monkeypatch,
                                                mode, dispatch, n_shards):
        # quiesce() is a flush barrier: with a 10 s idle poll, a quiesce
        # that waited for workers to go idle would time out at 3 s.
        monkeypatch.setattr(pipeline_module, "_IDLE_POLL_SECONDS", 10.0)
        chunks = self.simple_chunks(n_chunks=20)
        pipeline, _ = self.make_pipeline(
            tmp_path, n_shards=n_shards, mode=mode, dispatch=dispatch
        )
        for chunk in chunks[:10]:
            pipeline.submit(chunk)
        snap = pipeline.quiesce(timeout=3)
        assert snap.complete and snap.chunks == 10
        # A second flush re-uses the barrier.
        for chunk in chunks[10:]:
            pipeline.submit(chunk)
        snap = pipeline.quiesce(timeout=3)
        assert snap.complete and snap.chunks == 20
        serial = counts(serial_summary(tmp_path, chunks))
        assert counts(snap.summary) == serial
        assert counts(pipeline.finalize()) == serial

    def test_invalid_construction(self, tmp_path):
        side = JsonSideStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=0,
                                  partial_loading=True)
        with pytest.raises(ValueError):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=2,
                                  partial_loading=True, mode="coroutine")
