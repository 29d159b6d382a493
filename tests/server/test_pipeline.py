"""Tests for the sharded ingest pipeline (serial-equivalence above all)."""

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
from repro.rawjson import JsonChunk, dump_record
from repro.server import (
    CiaoServer,
    IngestPipelineError,
    ShardedIngestPipeline,
)
from repro.storage import JsonSideStore
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
        serial_lines = sorted(serial_server.table.side_store.iter_raw())
        sharded_lines = sorted(sharded_server.table.side_store.iter_raw())
        assert sharded_lines == serial_lines

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

    def test_shard_error_surfaces_in_snapshot_fast(self, tmp_path):
        # A corrupt payload must fail snapshot()/quiesce() promptly with
        # the real cause, not burn the quiesce timeout.
        import time as time_module

        pipeline, _ = self.make_pipeline(tmp_path)
        pipeline.submit(self.simple_chunks(n_chunks=1)[0])
        pipeline.submit(b"CIA1 this is not a chunk")
        start = time_module.monotonic()
        with pytest.raises(IngestPipelineError, match="failed on chunk"):
            pipeline.quiesce(timeout=30)
        assert time_module.monotonic() - start < 10
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
        pipeline, _ = self.make_pipeline(tmp_path, n_shards=2,
                                         mode="process")
        pipeline.submit(self.simple_chunks(n_chunks=1)[0])
        pipeline._workers[1].terminate()
        pipeline._workers[1].join()
        with pytest.raises(IngestPipelineError,
                           match="terminated without reporting"):
            pipeline.finalize()

    def test_invalid_construction(self, tmp_path):
        side = JsonSideStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=0,
                                  partial_loading=True)
        with pytest.raises(ValueError):
            ShardedIngestPipeline(tmp_path / "t.pql", side, n_shards=2,
                                  partial_loading=True, mode="coroutine")
