"""CiaoService + RemoteSession: the full conversation over real sockets."""

import threading

import pytest

from repro.api import (
    Budget,
    CiaoSession,
    DeploymentConfig,
    Query,
    Workload,
    clause,
    key_value,
    substring,
)
from repro.core.plan_io import dumps_plan
from repro.service import (
    CiaoService,
    RemoteBusyError,
    RemoteError,
    RemoteSession,
    canonical_result_bytes,
    result_from_payload,
    result_to_payload,
)
from repro.transport import LossyChannel, SocketChannel
from repro.transport import wire
from repro.transport.wire import decode_message, encode_message

SEED = 1234
N_RECORDS = 900
SQL_COUNT = "SELECT COUNT(*) FROM t"


@pytest.fixture()
def workload():
    five_stars = clause(key_value("stars", 5))
    tasty = clause(substring("text", "tasty000"))
    return Workload(
        (Query((five_stars, tasty), name="rave"),
         Query((tasty,), name="kw")),
        dataset="yelp",
    )


@pytest.fixture()
def planned_session(workload, tmp_path):
    session = CiaoSession(workload, source="yelp", seed=SEED,
                          data_dir=tmp_path / "served")
    session.plan(Budget(1.0))
    yield session
    session.close()


@pytest.fixture()
def service(planned_session):
    with CiaoService(planned_session) as service:
        yield service


class TestConversation:
    def test_handshake_reports_mode(self, service):
        with RemoteSession(service.address) as remote:
            assert remote.server_mode == "serial"

    def test_protocol_mismatch_rejected(self, service):
        channel = SocketChannel.connect(service.address)
        channel.send(encode_message(wire.HELLO, {"protocol": 99}))
        reply = decode_message(channel.receive_wait(5.0))
        assert reply.tag == wire.ERROR
        assert "protocol" in reply.header["error"]
        channel.close()

    def test_malformed_message_gets_error_reply(self, service):
        channel = SocketChannel.connect(service.address)
        channel.send(b"garbage, not a wire message")
        reply = decode_message(channel.receive_wait(5.0))
        assert reply.tag == wire.ERROR
        channel.close()

    def test_plan_round_trips_the_wire(self, planned_session, service):
        """Satellite: plan_io documents survive the socket byte-exact."""
        with RemoteSession(service.address) as remote:
            fetched = remote.fetch_plan()
        local = planned_session.pushdown_plan
        assert dumps_plan(fetched) == dumps_plan(local)
        assert [e.predicate_id for e in fetched.entries] == \
            [e.predicate_id for e in local.entries]

    def test_plan_absent_reported(self, workload, tmp_path):
        session = CiaoSession(workload, source="yelp", seed=SEED,
                              data_dir=tmp_path / "unplanned")
        with CiaoService(session) as service:
            with RemoteSession(service.address) as remote:
                assert remote.fetch_plan() is None
        session.close()


class TestRemoteLoadAndQuery:
    def test_remote_load_matches_in_process(self, workload, tmp_path,
                                            planned_session, service):
        # Local twin: same plan, same records, loaded in process.
        twin = CiaoSession(workload, source="yelp", seed=SEED,
                           data_dir=tmp_path / "twin")
        twin.plan(Budget(1.0))
        twin.load(n_records=N_RECORDS).result()

        with RemoteSession(service.address, client_id="c1",
                           seed=SEED) as remote:
            accepted = remote.load("yelp", n_records=N_RECORDS)
            assert accepted > 0
            report = remote.commit()
            assert report["received"] == N_RECORDS
            assert report["received"] == (
                report["loaded"] + report["sidelined"]
                + report["malformed"]
            )
            for sql in (SQL_COUNT,
                        "SELECT COUNT(*) FROM t WHERE stars = 5"):
                assert canonical_result_bytes(remote.query(sql)) == \
                    canonical_result_bytes(twin.query(sql))
        twin.close()

    def test_result_payload_round_trip(self, planned_session, service):
        with RemoteSession(service.address, seed=SEED) as remote:
            remote.load("yelp", n_records=N_RECORDS)
            remote.commit()
            result = remote.query(SQL_COUNT)
        clone = result_from_payload(result_to_payload(result))
        assert clone.rows == result.rows
        assert clone.stats == result.stats
        assert clone.plan_info == result.plan_info

    def test_two_clients_one_load(self, planned_session, service):
        a = RemoteSession(service.address, client_id="a", seed=SEED)
        b = RemoteSession(service.address, client_id="b", seed=SEED)
        a.load("yelp", n_records=400, source_id="a")
        b.load("yelp", n_records=200, source_id="b")
        report = a.commit()
        assert report["received"] == 600
        assert a.query(SQL_COUNT).scalar() == 600
        assert b.query(SQL_COUNT).scalar() == 600
        a.close()
        b.close()

    def test_duplicate_source_id_rejected(self, service):
        with RemoteSession(service.address, seed=SEED) as remote:
            remote.load("yelp", n_records=100, source_id="dup")
            with pytest.raises(RemoteError, match="dup"):
                remote.load("yelp", n_records=100, source_id="dup")

    def test_query_before_commit_refused_on_serial(self, service):
        with RemoteSession(service.address, seed=SEED) as remote:
            remote.load("yelp", n_records=100)
            with pytest.raises(RemoteError, match="COMMIT"):
                remote.query(SQL_COUNT)
            remote.commit()
            assert remote.query(SQL_COUNT).scalar() == 100

    def test_bad_sql_is_error_not_disconnect(self, planned_session,
                                             service):
        with RemoteSession(service.address, seed=SEED) as remote:
            remote.load("yelp", n_records=100)
            remote.commit()
            with pytest.raises(RemoteError):
                remote.query("THIS IS NOT SQL")
            # The connection survived the error.
            assert remote.query(SQL_COUNT).scalar() == 100

    def test_concurrent_ingest_from_many_connections(self, service):
        """Regression: parallel router threads feed one serial loader.

        Three clients stream interleaved CHUNKS messages from their own
        connections; unsynchronized loader ingest used to corrupt the
        sealed Parquet file (queries then failed decoding pages).
        """
        n_clients, per_client = 3, 600
        errors = []

        def loader(i):
            try:
                with RemoteSession(service.address, client_id=f"m{i}",
                                   chunk_size=50,
                                   seed=SEED + i) as remote:
                    remote.load("yelp", n_records=per_client,
                                source_id=f"m{i}", batch_size=1)
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        threads = [threading.Thread(target=loader, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        with RemoteSession(service.address, client_id="commit") as remote:
            report = remote.commit()
            total = n_clients * per_client
            assert report["received"] == total
            assert remote.query(SQL_COUNT).scalar() == total
            # Decodes pages and scans the sideline: corruption of either
            # surfaces here, not in COUNT bookkeeping.
            filtered = remote.query(
                "SELECT COUNT(*) FROM t WHERE stars = 5"
            ).scalar()
            assert 0 <= filtered <= total

    def test_lossy_channel_injected_zero_record_loss(self, service):
        """Satellite: seeded fault injection against the real wire."""
        lossy = LossyChannel(SocketChannel.connect(service.address),
                             drop_rate=0.3, seed=77)
        with RemoteSession(channel=lossy, client_id="flaky",
                           seed=SEED) as remote:
            remote.load("yelp", n_records=N_RECORDS)
            report = remote.commit()
            assert report["received"] == N_RECORDS
            assert remote.query(SQL_COUNT).scalar() == N_RECORDS
        assert lossy.stats.messages_dropped > 0


class TestStreamingService:
    def test_snapshot_queries_during_thread_load(self, workload,
                                                 tmp_path):
        config = DeploymentConfig(mode="sharded", n_shards=2,
                                  shard_mode="thread", chunk_size=100,
                                  seal_interval=2)
        session = CiaoSession(workload, source="yelp", seed=SEED,
                              config=config,
                              data_dir=tmp_path / "streaming")
        session.plan(Budget(1.0))
        with CiaoService(session) as service:
            job = session.load(n_records=N_RECORDS)
            counts = []
            with RemoteSession(service.address,
                               client_id="reader") as remote:
                while not job.done:
                    counts.append(
                        remote.snapshot_query(SQL_COUNT).scalar()
                    )
                report = job.result()
                final = remote.query(SQL_COUNT).scalar()
            assert report.no_record_loss
            assert final == N_RECORDS
            assert all(0 <= c <= N_RECORDS for c in counts)
            assert counts == sorted(counts), (
                "mid-load snapshot counts regressed"
            )
        session.close()


class TestAdmissionOnTheWire:
    def test_busy_on_saturation(self, planned_session):
        with CiaoService(planned_session, query_max_active=1,
                         query_max_pending=1,
                         admission_timeout=0.05) as service:
            with RemoteSession(service.address, seed=SEED) as loader:
                loader.load("yelp", n_records=200)
                loader.commit()
            busy = []

            def hammer():
                with RemoteSession(service.address,
                                   client_id="shared") as remote:
                    for _ in range(6):
                        try:
                            remote.query(SQL_COUNT)
                        except RemoteBusyError:
                            busy.append(1)

            # Hold the only execution slot for the whole burst, so every
            # query queues past admission_timeout (or finds its client's
            # queue full) however fast the query itself would run.
            holder = service.admission.acquire("holder")
            try:
                threads = [threading.Thread(target=hammer)
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                service.admission.release(holder)
            assert busy, "burst never saw BUSY through the wire"
            assert service.admission.stats.rejected == len(busy)
            # Saturation healed: a fresh client is served.
            with RemoteSession(service.address,
                               client_id="after") as remote:
                assert remote.query(SQL_COUNT).scalar() == 200


class TestServiceLifecycle:
    def test_max_connections_turns_peers_away(self, planned_session):
        with CiaoService(planned_session,
                         max_connections=1) as service:
            first = RemoteSession(service.address)
            # The second dial connects at TCP level but is turned away
            # with BUSY during the handshake.
            with pytest.raises(RemoteBusyError, match="max_connections"):
                RemoteSession(service.address)
            first.close()

    def test_close_is_idempotent_and_disconnects(self, planned_session):
        service = CiaoService(planned_session)
        remote = RemoteSession(service.address)
        service.close()
        service.close()
        assert service.closed
        with pytest.raises(RemoteError):
            remote.query(SQL_COUNT)
        remote.close()

    def test_connection_count_tracks_clients(self, service):
        import time

        assert service.connection_count == 0
        with RemoteSession(service.address):
            assert service.connection_count == 1
        deadline = time.monotonic() + 5.0
        while service.connection_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.connection_count == 0
