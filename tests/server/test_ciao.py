"""Unit tests for the CIAO server facade."""

import pytest

from repro.client import SimulatedClient, encode_chunk
from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
    Query,
    Workload,
    clause,
    key_value,
)
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.transport import MemoryChannel

RECORDS = [{"i": i % 5, "name": f"u{i}"} for i in range(50)]
LINES = [dump_record(r) for r in RECORDS]
C0 = clause(key_value("i", 0))
C1 = clause(key_value("i", 1))
WORKLOAD = Workload((Query((C0,), name="q0"), Query((C1,), name="q1")))


def make_plan(clauses):
    model = CostModel(DEFAULT_COEFFICIENTS, 40)
    opt = CiaoOptimizer(
        WORKLOAD, {C0: 0.2, C1: 0.2}, model
    )
    plan = opt.plan(Budget(10.0))
    assert set(plan.clauses) == set(clauses)
    return plan


class TestPartialLoadingPolicy:
    def test_auto_on_when_plan_covers_workload(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        assert server.partial_loading_enabled
        server.close()

    def test_auto_off_without_plan(self, tmp_path):
        server = CiaoServer(tmp_path, plan=None, workload=WORKLOAD)
        assert not server.partial_loading_enabled
        server.close()

    def test_auto_off_without_workload(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=None)
        assert not server.partial_loading_enabled
        server.close()

    def test_explicit_override(self, tmp_path):
        plan = make_plan([C0, C1])
        on = CiaoServer(tmp_path / "a", plan=plan, partial_loading="on")
        off = CiaoServer(tmp_path / "b", plan=plan, workload=WORKLOAD,
                         partial_loading="off")
        assert on.partial_loading_enabled
        assert not off.partial_loading_enabled
        on.close()
        off.close()

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CiaoServer(tmp_path, partial_loading="maybe")


class TestIngestAndQuery:
    def test_ingest_decoded_and_encoded_chunks(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        client = SimulatedClient("c", plan=plan, chunk_size=25)
        chunks = list(client.process(LINES))
        server.ingest(chunks[0])                 # decoded object
        server.ingest(encode_chunk(chunks[1]))   # wire bytes
        summary = server.finalize_loading()
        assert summary.received == 50
        assert summary.loaded == 20  # i in {0, 1} → 2 of 5 values
        server.close()

    def test_ingest_channel_drains(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        channel = MemoryChannel()
        client.ship(LINES, channel)
        assert server.ingest_channel(channel) == 5
        assert channel.pending() == 0
        server.finalize_loading()
        server.close()

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_ingest_channel_splits_batched_frames(self, tmp_path, n_shards):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD,
                            n_shards=n_shards, shard_mode="thread")
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        channel = MemoryChannel()
        client.ship(LINES, channel, batch_size=2)
        assert channel.pending() == 3               # messages
        assert server.ingest_channel(channel) == 5  # frames
        summary = server.finalize_loading()
        assert summary.chunks == 5
        assert summary.received == 50
        server.close()

    def test_query_answers_and_skipping(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        client = SimulatedClient("c", plan=plan, chunk_size=25)
        for chunk in client.process(LINES):
            server.ingest(chunk)
        server.finalize_loading()
        results = server.run_workload(WORKLOAD.queries)
        assert [r.scalar() for r in results] == [10, 10]
        assert all(r.plan_info.used_skipping for r in results)
        server.close()

    def test_query_finalizes_loading_automatically(self, tmp_path):
        server = CiaoServer(tmp_path)
        chunk = JsonChunk(0, LINES[:10])
        server.ingest(chunk)
        # A query no longer finalizes (it answers the sealed prefix).
        server.finalize_loading()
        result = server.query("SELECT COUNT(*) FROM t")
        assert result.scalar() == 10
        server.close()

    def test_table_name_respected(self, tmp_path):
        server = CiaoServer(tmp_path, table_name="events")
        server.ingest(JsonChunk(0, LINES[:5]))
        server.finalize_loading()
        assert server.query(
            "SELECT COUNT(*) FROM events"
        ).scalar() == 5
        server.close()

    def test_infinite_floats_finalize_and_filter(self, tmp_path):
        # JSON footers have no infinity: a page holding one keeps no
        # zone-map bounds, so it is never pruned, and finalize succeeds.
        chunks = [["1e400", "0.5"], ["2.0", "3.0"], ["-1e400"],
                  ["0.1", "0.2"]]
        server = CiaoServer(tmp_path, seal_interval=1)
        for cid, values in enumerate(chunks):
            server.ingest(JsonChunk(cid, [f'{{"x": {v}}}' for v in values]))
        server.finalize_loading()
        xs = [float(v) for values in chunks for v in values]
        for sql, want in (
                ("x > 1.0", sum(x > 1.0 for x in xs)),
                ("x < 1.0", sum(x < 1.0 for x in xs)),
                ("x > 2.5", sum(x > 2.5 for x in xs))):
            got = server.query(f"SELECT COUNT(*) FROM t WHERE {sql}")
            assert got.scalar() == want, sql
        server.close()


    def test_infinite_floats_in_a_json_column(self, tmp_path):
        # {"x": 1e400} next to {"x": "a"} makes x a JSON column: a cell
        # holding an infinity, at any depth, is written as the number
        # 1e400, which parses back to it, so finalize succeeds.
        from repro.rawjson import loads

        chunks = [['{"x": 1e400}', '{"x": "a"}'],
                  ['{"x": -1e400}', '{"x": 2}',
                   '{"x": [1e400, {"k": -1e400}]}', '{"y": 1}']]
        server = CiaoServer(tmp_path, seal_interval=1)
        for cid, lines in enumerate(chunks):
            server.ingest(JsonChunk(cid, lines))
        server.finalize_loading()
        xs = [loads(line).get("x") for lines in chunks for line in lines]
        cells = [row["x"] for row in server.query("SELECT x FROM t").rows]
        assert [None if cell is None else loads(cell)
                for cell in cells] == xs
        for sql, want in (
                ("x IS NULL", sum(x is None for x in xs)),
                ("x IS NOT NULL", sum(x is not None for x in xs)),
                ("x = '\"a\"'", sum(x == "a" for x in xs))):
            got = server.query(f"SELECT COUNT(*) FROM t WHERE {sql}")
            assert got.scalar() == want, sql
        server.close()


class TestIngestSessions:
    def test_session_counts_frames(self, tmp_path):
        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        chunks = list(client.process(LINES))
        with server.open_ingest_session("edge-0") as session:
            assert session.ingest(chunks[0]) == 1
            assert session.ingest(encode_chunk(chunks[1])) == 1
        assert server.ingest_sources == {"edge-0": 2}
        server.finalize_loading()
        server.close()

    def test_batched_message_counts_each_frame(self, tmp_path):
        from repro.client import encode_frame_batch

        plan = make_plan([C0, C1])
        server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD)
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        payloads = [encode_chunk(c) for c in client.process(LINES)]
        session = server.open_ingest_session("batcher")
        assert session.ingest(encode_frame_batch(payloads)) == 5
        assert server.ingest_sources == {"batcher": 5}
        summary = server.finalize_loading()
        assert summary.received == 50
        server.close()

    def test_duplicate_source_rejected(self, tmp_path):
        server = CiaoServer(tmp_path)
        session = server.open_ingest_session("dup")
        with pytest.raises(ValueError):
            server.open_ingest_session("dup")
        session.close()
        # Reuse after close is still rejected: accounting would conflate.
        with pytest.raises(ValueError):
            server.open_ingest_session("dup")
        server.close()

    def test_closed_session_rejects_chunks(self, tmp_path):
        server = CiaoServer(tmp_path)
        session = server.open_ingest_session("s")
        session.close()
        with pytest.raises(RuntimeError):
            session.ingest(JsonChunk(0, LINES[:5]))
        server.close()

    def test_finalize_closes_sessions(self, tmp_path):
        server = CiaoServer(tmp_path)
        session = server.open_ingest_session("s")
        session.ingest(JsonChunk(0, LINES[:5]))
        server.finalize_loading()
        assert session.closed
        with pytest.raises(RuntimeError):
            server.open_ingest_session("late")
        server.close()

    def test_sharded_pipeline_source_accounting(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread")
        a = server.open_ingest_session("a")
        b = server.open_ingest_session("b")
        a.ingest(JsonChunk(0, LINES[:10]))
        a.ingest(JsonChunk(1, LINES[10:20]))
        b.ingest(JsonChunk(0, LINES[20:30]))
        assert server.ingest_sources == {"a": 2, "b": 1}
        summary = server.finalize_loading()
        assert summary.received == 30
        assert server.ingest_sources == {"a": 2, "b": 1}
        server.close()


class TestSharedOptionValidation:
    """DeploymentConfig and CiaoServer validate through one shared helper."""

    def test_partial_loading_message(self, tmp_path):
        from repro.api import DeploymentConfig
        from repro.server import validate_server_options

        with pytest.raises(ValueError) as direct:
            CiaoServer(tmp_path, partial_loading="maybe")
        with pytest.raises(ValueError) as config:
            DeploymentConfig(partial_loading="maybe")
        with pytest.raises(ValueError) as helper:
            validate_server_options(partial_loading="maybe")
        assert "partial_loading must be 'auto', 'on' or 'off'" in \
            str(direct.value)
        assert str(direct.value) == str(config.value) == str(helper.value)

    def test_shard_mode_message_names_valid_options(self, tmp_path):
        with pytest.raises(ValueError, match=r"process.*thread"):
            CiaoServer(tmp_path, shard_mode="fiber")

    def test_dispatch_message_names_valid_options(self, tmp_path):
        with pytest.raises(ValueError, match=r"work-stealing.*round-robin"):
            CiaoServer(tmp_path, dispatch="lottery")

    def test_n_shards_floor(self, tmp_path):
        from repro.api import DeploymentConfig

        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            CiaoServer(tmp_path, n_shards=0)
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            DeploymentConfig(mode="fleet", n_shards=-1)

def _unclosed_files(build):
    """ResourceWarnings raised while *build()* runs and its objects die."""
    import gc
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        build()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestClose:
    """A closed server holds no open part files."""

    def loaded(self, path, close, finalize=True, **kwargs):
        plan = make_plan([C0, C1])
        server = CiaoServer(path, plan=plan, workload=WORKLOAD,
                            seal_interval=1, **kwargs)
        client = SimulatedClient("c1", plan=plan, chunk_size=10)
        for chunk in client.process(LINES):
            server.ingest(chunk)
            server.query("SELECT COUNT(*) FROM t WHERE i = 0")
        if finalize:
            server.finalize_loading()
            assert server.query("SELECT COUNT(*) FROM t").scalar() == 50
        if close:
            server.close()
            server.close()  # idempotent

    def test_unclosed_server_leaks_its_readers(self, tmp_path):
        # The control: without close() the readers' files are left to
        # the garbage collector, which warns about each.
        assert _unclosed_files(lambda: self.loaded(tmp_path, close=False))

    @pytest.mark.parametrize("options", [
        {}, {"n_shards": 2, "shard_mode": "thread"},
    ])
    def test_closed_server_leaves_no_unclosed_file(self, tmp_path, options):
        assert _unclosed_files(
            lambda: self.loaded(tmp_path, close=True, **options)) == []

    def test_closing_mid_load_drops_the_unsealed_part(self, tmp_path):
        def build():
            plan = make_plan([C0, C1])
            server = CiaoServer(tmp_path, plan=plan, workload=WORKLOAD,
                                seal_interval=4, partial_loading="off")
            for chunk in SimulatedClient("c1", plan=plan,
                                         chunk_size=10).process(LINES):
                server.ingest(chunk)  # 5 chunks: one part still open
            assert server.query("SELECT COUNT(*) FROM t").scalar() == 40
            server.close()
            with pytest.raises(RuntimeError):
                server.ingest(JsonChunk(9, [dump_record({"i": 0})]))

        assert _unclosed_files(build) == []

    @pytest.mark.parametrize("shard_mode", ["thread", "process"])
    def test_close_stops_a_loading_servers_shard_workers(self, tmp_path,
                                                        shard_mode):
        # close() without finalize_loading(): the workers stop as a crash
        # would leave them (no worker thread or process outlives it), the
        # open shard parts keep no footer, and a later chunk is refused.
        import multiprocessing
        import threading

        def shard_threads():
            return {t for t in threading.enumerate()
                    if "_run_shard" in t.name}

        threads = shard_threads()
        children = set(multiprocessing.active_children())
        server = CiaoServer(tmp_path, n_shards=2, shard_mode=shard_mode)
        server.ingest(JsonChunk(0, [dump_record({"i": i})
                                    for i in range(10)]))
        workers = server._pipeline._workers
        server.close()
        assert not any(w.is_alive() for w in workers)
        assert shard_threads() <= threads
        assert set(multiprocessing.active_children()) <= children
        server.close()  # idempotent
        with pytest.raises(RuntimeError):
            server.ingest(JsonChunk(1, [dump_record({"i": 0})]))

    def test_session_close_closes_its_servers(self, tmp_path):
        from repro.api import CiaoSession

        def build():
            session = CiaoSession(WORKLOAD, source=LINES, data_dir=tmp_path)
            session.plan(Budget(10.0))
            session.load().result()
            assert session.query("SELECT COUNT(*) FROM t").scalar() == 50
            session.close()

        assert _unclosed_files(build) == []
