"""Compaction crossed with a durable manifest and crash recovery.

A durable sharded server compacts once mid-load and once after
finalize (``Compactor.run_once``), checkpoints, and is dropped without
any shutdown — a crash as far as its files are concerned.  Recovery
must rebuild a table whose answers equal a never-compacted serial
ingest, from a manifest that lists only live parts, with nothing
quarantined.
"""

from repro.compact import CompactionConfig, Compactor
from repro.obs import Metrics, QueryLog
from repro.rawjson import JsonChunk, dump_record
from repro.recovery import Manifest
from repro.server import CiaoServer

QUERIES = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE k = 3",
    "SELECT SUM(v) FROM t WHERE k = 1",
    "SELECT MAX(v) FROM t",
]


def make_chunks(n_chunks=12, n_records=20):
    return [
        JsonChunk(cid, [
            dump_record({"k": (cid * n_records + i) % 8,
                         "v": cid * n_records + i})
            for i in range(n_records)
        ])
        for cid in range(n_chunks)
    ]


def answers(server):
    return [server.query(sql).scalar() for sql in QUERIES]


def manifest_doc(data_dir):
    _, doc = Manifest.load(Manifest.path_for(data_dir, "t"))
    return doc


def test_compacted_durable_load_recovers_exactly(tmp_path):
    chunks = make_chunks()
    reference = CiaoServer(tmp_path / "ref")
    for chunk in chunks:
        reference.ingest(chunk)
    reference.finalize_loading()
    expected = answers(reference)

    data_dir = tmp_path / "durable"
    qlog = QueryLog()
    server = CiaoServer(data_dir, n_shards=2, shard_mode="thread",
                        seal_interval=1, durable=True, query_log=qlog)
    compactor = Compactor(
        server,
        config=CompactionConfig(min_observations=1, remove_inputs=True),
        query_log=qlog,
    )
    merged = []
    for chunk in chunks[:8]:
        server.ingest(chunk)
    server.quiesce()
    answers(server)
    before = set(map(str, server.sealed_parts()))
    assert compactor.run_once() is not None  # mid-load
    merged.extend(before - set(map(str, server.sealed_parts())))
    for chunk in chunks[8:]:
        server.ingest(chunk)
    server.finalize_loading()
    before = set(map(str, server.sealed_parts()))
    assert compactor.run_once() is not None  # after finalize
    merged.extend(before - set(map(str, server.sealed_parts())))
    assert answers(server) == expected
    assert server.checkpoint() is True
    live = sorted(p.name for p in server.sealed_parts())
    del server  # no close(): recovery works from the files alone

    doc = manifest_doc(data_dir)
    listed = sorted(record["path"] for record in doc["parts"])
    assert listed == live
    assert all((data_dir / name).exists() for name in listed)
    assert merged and not set(merged) & {
        str(data_dir / name) for name in listed
    }

    metrics = Metrics()
    recovered = CiaoServer.recover(data_dir, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get("recovery.parts_quarantined", 0) == 0
    assert counters["recovery.parts_recovered"] == len(listed)
    assert recovered.state == "finalized"
    assert sorted(p.name for p in recovered.sealed_parts()) == listed
    assert answers(recovered) == expected
    assert not list(data_dir.glob("*.quarantined"))
