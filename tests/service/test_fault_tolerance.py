"""Fault-tolerant serving: retries, heartbeats, exactly-once, recovery.

End-to-end coverage for the robustness contract: a retrying client
backs off through BUSY and retryable errors, reconnects through dead
transports and resumes its ingest stream, the server dedupes replayed
batches through the ingest ledger, idle connections are reaped, and a
served load survives a mid-flight server crash with zero record loss
and byte-identical answers.
"""

import json
import threading
import time

import pytest

from repro.api import CiaoSession, DeploymentConfig
from repro.client.protocol import encode_chunk
from repro.obs.metrics import Metrics
from repro.rawjson import JsonChunk
from repro.recovery import Manifest, RetryPolicy
from repro.service import (
    CiaoService,
    RemoteBusyError,
    RemoteRetryableError,
    RemoteSession,
    RemoteTimeoutError,
    canonical_result_bytes,
)
from repro.transport import FaultPlan, SocketChannel, faulty_dialer, wire
from repro.transport.wire import decode_message, encode_message

SQL_COUNT = "SELECT COUNT(*) FROM t"
SQL_GROUP = "SELECT stars, COUNT(*) FROM t GROUP BY stars"


def durable_config(**overrides):
    kwargs = dict(mode="sharded", n_shards=2, shard_mode="thread",
                  seal_interval=2, durable=True)
    kwargs.update(overrides)
    return DeploymentConfig(**kwargs)


def counters(metrics):
    return metrics.snapshot()["counters"]


def canonical_rows(result):
    """Order-normalized answer bytes.

    Chaos schedules legitimately change the sealed-part layout, and
    GROUP BY output order follows it; the robustness contract is about
    the *rows*, so compare them under a canonical order.
    """
    return json.dumps(
        sorted(result.rows, key=lambda row: json.dumps(row, sort_keys=True)),
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def quick_policy(**overrides):
    kwargs = dict(max_attempts=6, base_delay=0.01, max_delay=0.05,
                  jitter=0.0, seed=0)
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


@pytest.fixture()
def served(tmp_path):
    session = CiaoSession(data_dir=tmp_path / "served", metrics=Metrics())
    with CiaoService(session) as service:
        yield session, service
    session.close()


def clean_answer(tmp_path, n_records, chunk_size=5):
    """The fault-free baseline bytes for the same records."""
    session = CiaoSession(config=durable_config(),
                          data_dir=tmp_path / "clean")
    with CiaoService(session) as service:
        remote = RemoteSession(address=service.address, client_id="c1",
                               chunk_size=chunk_size)
        remote.load("yelp", n_records=n_records, source_id="s1")
        remote.commit()
        answer = canonical_rows(remote.query(SQL_GROUP))
        remote.close()
    session.close()
    return answer


class TestRetryMechanics:
    def _flaky(self, remote, failures):
        """Make the next requests fail with *failures*, then recover."""
        real = remote._request_once
        queue = list(failures)

        def request_once(*args, **kwargs):
            if queue:
                raise queue.pop(0)
            return real(*args, **kwargs)

        remote._request_once = request_once

    def test_busy_backs_off_then_succeeds(self, served):
        _, service = served
        metrics = Metrics()
        remote = RemoteSession(address=service.address,
                               retry=quick_policy(), metrics=metrics)
        pauses = []
        remote._sleep = pauses.append
        self._flaky(remote, [RemoteBusyError("full"),
                             RemoteBusyError("full")])
        assert remote.ping() is True
        assert counters(metrics)["admission.busy_retries"] == 2
        assert counters(metrics)["retry.giveups"] == 0
        assert pauses, "a BUSY retry must wait, not hammer"
        remote.close()

    def test_retryable_error_is_resent(self, served):
        _, service = served
        metrics = Metrics()
        remote = RemoteSession(address=service.address,
                               retry=quick_policy(), metrics=metrics)
        remote._sleep = lambda _pause: None
        self._flaky(remote, [RemoteRetryableError("crc mismatch")])
        assert remote.ping() is True
        assert counters(metrics)["retry.attempts"] == 1
        remote.close()

    def test_bounded_attempts_then_give_up(self, served):
        _, service = served
        metrics = Metrics()
        remote = RemoteSession(address=service.address,
                               retry=quick_policy(max_attempts=3),
                               metrics=metrics)
        remote._sleep = lambda _pause: None
        self._flaky(remote, [RemoteBusyError("full")] * 99)
        with pytest.raises(RemoteBusyError):
            remote.ping()
        assert counters(metrics)["retry.giveups"] == 1
        assert counters(metrics)["admission.busy_retries"] == 3

    def test_no_policy_means_no_retry(self, served):
        _, service = served
        remote = RemoteSession(address=service.address)
        self._flaky(remote, [RemoteRetryableError("crc mismatch")])
        with pytest.raises(RemoteRetryableError):
            remote.ping()
        remote.close()

    def test_dead_channel_triggers_reconnect(self, served):
        _, service = served
        metrics = Metrics()
        remote = RemoteSession(
            channel_factory=lambda: SocketChannel.connect(service.address),
            retry=quick_policy(), metrics=metrics,
        )
        remote.channel.close()  # yank the transport out from under it
        assert remote.ping() is True
        assert counters(metrics)["retry.reconnects"] >= 1
        remote.close()

    def test_first_dial_retries_under_the_policy(self, served):
        """A refused first dial backs off and redials like a reconnect."""
        _, service = served
        metrics = Metrics()
        refusals = {"left": 2}

        def dial():
            if refusals["left"]:
                refusals["left"] -= 1
                raise ConnectionRefusedError("service not up yet")
            return SocketChannel.connect(service.address)

        remote = RemoteSession(channel_factory=dial, retry=quick_policy(),
                               metrics=metrics)
        assert refusals["left"] == 0
        assert remote.ping() is True
        assert counters(metrics)["retry.attempts"] == 2
        assert counters(metrics).get("retry.giveups", 0) == 0
        remote.close()
        # Without a policy the first refusal raises at once.
        refusals["left"] = 1
        with pytest.raises(ConnectionRefusedError):
            RemoteSession(channel_factory=dial)

    def test_reconnect_faults_do_not_spend_request_attempts(self, served):
        """Re-handshakes retry on their own budget, not the request's."""
        _, service = served
        metrics = Metrics()
        remote = RemoteSession(
            channel_factory=lambda: SocketChannel.connect(service.address),
            retry=quick_policy(max_attempts=3), metrics=metrics,
        )
        remote._sleep = lambda _pause: None
        handshake, request_once = remote._handshake, remote._request_once
        faults = {"hello": 2, "ping": 1}

        def flaky_handshake():
            if faults["hello"]:
                faults["hello"] -= 1
                raise RemoteTimeoutError("no reply to HELLO")
            handshake()

        def flaky_request_once(tag, *args, **kwargs):
            if tag == wire.PING and faults["ping"]:
                faults["ping"] -= 1
                raise RemoteRetryableError("crc mismatch")
            return request_once(tag, *args, **kwargs)

        remote._handshake = flaky_handshake
        remote._request_once = flaky_request_once
        remote.channel.close()  # the ping must redial and re-handshake
        # Two failed handshakes plus one failed ping would exhaust a
        # shared budget of three; with separate budgets the ping lands.
        assert remote.ping() is True
        assert faults == {"hello": 0, "ping": 0}
        assert counters(metrics)["retry.giveups"] == 0
        remote.close()


class TestHeartbeat:
    def test_ping_pong(self, served):
        session, service = served
        remote = RemoteSession(address=service.address)
        assert remote.ping() is True
        assert counters(session.obs_metrics)["heartbeat.pings"] == 1
        remote.close()

    def test_idle_connection_is_reaped(self, tmp_path):
        session = CiaoSession(data_dir=tmp_path / "srv",
                              metrics=Metrics())
        with CiaoService(session, idle_timeout=0.2) as service:
            remote = RemoteSession(address=service.address)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if counters(session.obs_metrics).get(
                        "heartbeat.idle_reaped", 0):
                    break
                time.sleep(0.05)
            assert counters(session.obs_metrics)[
                "heartbeat.idle_reaped"] >= 1
            remote.channel.close()
        session.close()

    def test_stats_expose_liveness_and_recovery(self, tmp_path):
        session = CiaoSession(config=durable_config(),
                              data_dir=tmp_path / "srv")
        with CiaoService(session, idle_timeout=7.5,
                         checkpoint_every=3) as service:
            remote = RemoteSession(address=service.address, client_id="c1")
            remote.load("yelp", n_records=40, source_id="s1")
            remote.commit()
            stats = service.stats()
            assert stats["heartbeat"]["idle_timeout"] == 7.5
            assert stats["recovery"]["durable"] is True
            assert stats["recovery"]["checkpoint_every"] == 3
            assert stats["recovery"]["ledger_streams"] == 1
            assert stats["recovery"]["manifest_revision"] >= 1
            remote.close()
        session.close()


class TestExactlyOnce:
    """Wire-level dedupe: crafted frames against a live service."""

    @pytest.fixture()
    def durable_served(self, tmp_path):
        session = CiaoSession(config=durable_config(),
                              data_dir=tmp_path / "srv",
                              metrics=Metrics())
        with CiaoService(session) as service:
            yield session, service
        session.close()

    def _rpc(self, channel, tag, header=None, body=b""):
        channel.send(encode_message(tag, header or {}, body))
        reply = channel.receive_wait(5.0)
        assert reply is not None, "service went silent"
        return decode_message(reply)

    def _chunk_body(self, chunk_id):
        return encode_chunk(JsonChunk(
            chunk_id=chunk_id,
            records=[json.dumps({"stars": chunk_id % 5, "n": chunk_id})],
        ))

    def test_replayed_batch_is_deduped(self, durable_served):
        session, service = durable_served
        channel = SocketChannel.connect(service.address)
        self._rpc(channel, wire.HELLO, {
            "client_id": "c1", "protocol": wire.PROTOCOL_VERSION,
        })
        self._rpc(channel, wire.RESUME, {"source_id": "s1"})
        body = self._chunk_body(1)
        header = {"frames": 1, "seq": 1, "source_id": "s1"}
        wire.attach_crc(header, body)
        first = self._rpc(channel, wire.CHUNKS, dict(header), body)
        assert first.tag == wire.INGEST_ACK
        assert first.header["duplicate"] is False
        # The ack was "lost"; the client replays the same sequence.
        second = self._rpc(channel, wire.CHUNKS, dict(header), body)
        assert second.tag == wire.INGEST_ACK
        assert second.header["duplicate"] is True
        assert second.header["frames_accepted"] == 1  # acked, not applied
        assert counters(session.obs_metrics)[
            "recovery.duplicates_dropped"] == 1
        channel.close()

    def test_corrupted_batch_is_rejected_retryably(self, durable_served):
        session, service = durable_served
        channel = SocketChannel.connect(service.address)
        self._rpc(channel, wire.HELLO, {
            "client_id": "c1", "protocol": wire.PROTOCOL_VERSION,
        })
        self._rpc(channel, wire.RESUME, {"source_id": "s1"})
        body = self._chunk_body(1)
        header = {"frames": 1, "seq": 1, "source_id": "s1",
                  "crc": 12345}  # wrong on purpose
        reply = self._rpc(channel, wire.CHUNKS, header, body)
        assert reply.tag == wire.ERROR
        assert reply.header["retryable"] is True
        assert counters(session.obs_metrics)["recovery.crc_rejects"] == 1
        # The stream is still usable: fix the crc and the batch lands.
        wire.attach_crc(header, body)
        ack = self._rpc(channel, wire.CHUNKS, header, body)
        assert ack.tag == wire.INGEST_ACK
        channel.close()


class TestChaosEndToEnd:
    def test_seeded_faults_lose_nothing(self, tmp_path):
        n_records = 150
        baseline = clean_answer(tmp_path, n_records)
        plan = FaultPlan.generate(seed=1, n_ops=400, fault_rate=0.25)
        metrics = Metrics()
        session = CiaoSession(config=durable_config(),
                              data_dir=tmp_path / "chaos")
        with CiaoService(session, checkpoint_every=5,
                         idle_timeout=60.0) as service:
            dial, counter = faulty_dialer(
                lambda: SocketChannel.connect(service.address), plan,
            )
            remote = RemoteSession(
                channel_factory=dial, client_id="c1", chunk_size=5,
                retry=RetryPolicy(max_attempts=10, base_delay=0.01,
                                  max_delay=0.05, seed=1),
                timeout=1.0, metrics=metrics,
            )
            remote.load("yelp", n_records=n_records, source_id="s1",
                        batch_size=1)
            remote.commit()
            answer = canonical_rows(remote.query(SQL_GROUP))
            count = remote.query(SQL_COUNT).rows[0]["count(*)"]
            remote.close()
        faults_hit = sum(
            1 for event in plan.events if event.op < counter.value
        )
        assert faults_hit >= 1, "schedule never fired; test proves nothing"
        assert count == n_records  # zero loss, zero duplicates
        assert answer == baseline  # byte-identical to the clean run
        session.close()

    def test_server_crash_midload_recovers_and_finishes(self, tmp_path):
        n_records = 150
        baseline = clean_answer(tmp_path, n_records)
        data_dir = tmp_path / "crashy"
        session = CiaoSession(config=durable_config(), data_dir=data_dir)
        service = CiaoService(session, checkpoint_every=1,
                              idle_timeout=60.0)
        address = {"current": service.address}
        metrics = Metrics()
        remote = RemoteSession(
            channel_factory=lambda: SocketChannel.connect(
                address["current"]),
            client_id="c1", chunk_size=5,
            retry=RetryPolicy(max_attempts=30, base_delay=0.02,
                              max_delay=0.2, seed=0),
            timeout=2.0, metrics=metrics,
        )
        outcome = {}

        def run_load():
            outcome["accepted"] = remote.load(
                "yelp", n_records=n_records, source_id="s1", batch_size=1,
            )

        loader = threading.Thread(target=run_load)
        loader.start()

        # Wait until a healthy chunk of the load is durable...
        manifest_path = Manifest.path_for(data_dir / "load-0", "t")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if manifest_path.exists():
                _, doc = Manifest.load(manifest_path)
                if doc["revision"] >= 10:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("load never reached a durable midpoint")

        # ... then kill the serving stack mid-flight.  The session is
        # abandoned un-finalized: everything past the last checkpoint
        # is gone, exactly like a kill -9.
        service.close()
        recovered = CiaoSession(recover_from=data_dir, metrics=Metrics())
        service2 = CiaoService(recovered, checkpoint_every=1,
                               idle_timeout=60.0)
        address["current"] = service2.address

        loader.join(timeout=60.0)
        assert not loader.is_alive(), "client never finished the load"
        assert outcome["accepted"] > 0
        report = remote.commit()
        assert report["received"] == n_records  # exactly once, end to end
        answer = canonical_rows(remote.query(SQL_GROUP))
        count = remote.query(SQL_COUNT).rows[0]["count(*)"]
        remote.close()
        assert count == n_records
        assert answer == baseline
        assert counters(metrics)["retry.reconnects"] >= 1
        assert counters(recovered.obs_metrics)["recovery.resumes"] >= 1
        service2.close()
        recovered.close()
