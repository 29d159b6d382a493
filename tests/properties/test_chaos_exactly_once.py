"""Chaos property: exactly-once under any schedule the retry budget outlasts.

For arbitrary seeds, a multi-client remote load driven through
fault-injecting channels (disconnects, stalls, drops, truncations,
corruption) must commit a table with exactly the rows of a fault-free
serial ingest of the same records, and the server-side ingest ledger
must sit exactly at each client's final sequence number — retries
replayed batches, the ledger absorbed them, nothing landed twice.

The invariant is conditional on liveness: it holds for every schedule
the clients' ``RetryPolicy`` outlasts, i.e. every request, and every
reconnect (redial, handshake, RESUME replay — which retry on a budget
of their own), succeeds within ``max_attempts`` tries.  A schedule that
exhausts a budget makes that client give up loudly (``retry.giveups``)
rather than lose or duplicate a batch.
"""

import json
import shutil
import tempfile
import threading
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import CiaoSession, DeploymentConfig
from repro.api.source import as_source
from repro.obs import Metrics
from repro.recovery import RetryPolicy
from repro.service import CiaoService, RemoteSession
from repro.transport import FaultPlan, SocketChannel, faulty_dialer

N_RECORDS = 60
SPLIT = 35  # client A ships the head, client B the tail
SQL_GROUP = "SELECT stars, COUNT(*) FROM t GROUP BY stars"

_cache = {}


def durable_config():
    return DeploymentConfig(mode="sharded", n_shards=2,
                            shard_mode="thread", seal_interval=2,
                            durable=True)


def canonical(result):
    return json.dumps(
        sorted(result.rows, key=lambda row: json.dumps(row, sort_keys=True)),
        sort_keys=True, separators=(",", ":"),
    )


def record_lines():
    if "lines" not in _cache:
        _cache["lines"] = list(
            as_source("yelp", n_records=N_RECORDS).records()
        )
    return _cache["lines"]


def baseline():
    """Fault-free serial ingest of the same records, computed once."""
    if "baseline" not in _cache:
        root = Path(tempfile.mkdtemp(prefix="chaos-baseline-"))
        try:
            session = CiaoSession(config=durable_config(), data_dir=root)
            with CiaoService(session) as service:
                remote = RemoteSession(address=service.address,
                                       client_id="serial", chunk_size=5)
                remote.load(record_lines(), source_id="serial")
                remote.commit()
                _cache["baseline"] = (
                    canonical(remote.query(SQL_GROUP)),
                    remote.query("SELECT COUNT(*) FROM t")
                    .rows[0]["count(*)"],
                )
                remote.close()
            session.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return _cache["baseline"]


def chaotic_client(address, name, lines, seed, fault_rate, outcome,
                   giveups):
    plan = FaultPlan.generate(seed=seed, n_ops=200, fault_rate=fault_rate)
    dial, _ = faulty_dialer(
        lambda: SocketChannel.connect(address), plan,
    )
    metrics = Metrics()
    try:
        remote = RemoteSession(
            channel_factory=dial, client_id=name, chunk_size=5,
            retry=RetryPolicy(max_attempts=10, base_delay=0.01,
                              max_delay=0.05, seed=seed),
            timeout=1.0, metrics=metrics,
        )
        remote.load(lines, source_id=name, batch_size=1)
        outcome[name] = (remote, remote._seqs[name])
    finally:
        giveups[name] = metrics.snapshot()["counters"].get(
            "retry.giveups", 0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fault_rate=st.sampled_from([0.1, 0.2, 0.3]),
)
@settings(max_examples=6, deadline=None)
@example(seed=2052, fault_rate=0.2)
def test_fault_schedules_never_lose_or_duplicate(seed, fault_rate):
    expected_rows, expected_count = baseline()
    lines = record_lines()
    root = Path(tempfile.mkdtemp(prefix="chaos-run-"))
    try:
        session = CiaoSession(config=durable_config(), data_dir=root)
        with CiaoService(session, checkpoint_every=5,
                         idle_timeout=60.0) as service:
            outcome, giveups = {}, {}
            clients = [
                threading.Thread(target=chaotic_client, args=(
                    service.address, "A", lines[:SPLIT], seed,
                    fault_rate, outcome, giveups,
                )),
                threading.Thread(target=chaotic_client, args=(
                    service.address, "B", lines[SPLIT:], seed + 1,
                    fault_rate, outcome, giveups,
                )),
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120.0)
            assert set(outcome) == {"A", "B"}, (
                f"a client never finished; retry.giveups per client: "
                f"{giveups}"
            )

            # No double-ingest: the server's ledger sits exactly at
            # each client's final sequence number, replays and all.
            server = session.last_job.server
            for name, (_, last_seq) in outcome.items():
                assert server.ledger_last(name, name) == last_seq

            remote_a = outcome["A"][0]
            remote_a.commit()
            count = remote_a.query(
                "SELECT COUNT(*) FROM t").rows[0]["count(*)"]
            rows = canonical(remote_a.query(SQL_GROUP))
            for name in outcome:
                outcome[name][0].close()
        session.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert count == expected_count == N_RECORDS
    assert rows == expected_rows
