"""Seal-time row grouping: a part's loaded rows become row groups by rows.

The loader keeps an open part's loaded rows (pulled columns plus each
chunk's derived bit-vectors) and writes a row group of
``ROW_GROUP_ROWS`` rows whenever that many are pending, the remainder at
the seal.  These tests check the three things that layout must keep:

* answers — ``COUNT(*)`` and ``SUM`` over every workload query equal a
  brute-force evaluation of the query over the parsed records
  (:meth:`repro.core.Query.evaluate`), never the planner's own skip
  decisions;
* stored bits — every stored 0 is a 0 in the client's vector for that
  row (a chunk that carried no vector for an id contributes 1s), and
  each part holds ``ceil(rows / ROW_GROUP_ROWS)`` groups, all full but
  the last;
* durability — a checkpoint in the middle of a part cuts exactly there.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import SimulatedClient
from repro.client.protocol import encode_chunk
from repro.core import (
    Clause,
    CostModel,
    DEFAULT_COEFFICIENTS,
    Query,
    Workload,
    exact,
    key_present,
    key_value,
    manual_plan,
    substring,
)
from repro.rawjson import dump_record
from repro.server import CiaoServer
from repro.storage import ROW_GROUP_ROWS, ParquetLiteReader

NAMES = ["Ann", "Bob", "Cat", ""]
WORDS = ["kw", "other", "kw plus", ""]
#: Stands for "never seal until finalize".
NEVER = 10 ** 9


def make_lines(seed, n, widen_at, malformed_rate):
    """*n* raw lines and the parsed record behind each (``None`` when
    the line is malformed).

    Records ``widen_at .. widen_at + 40`` add a ``note`` key and store a
    float ``score``, so the chunk holding ``widen_at`` widens the
    schema (a new column and INT64 → FLOAT64) in the middle of a part.
    """
    rng = random.Random(seed)
    lines, records = [], []
    for i in range(n):
        record = {
            "id": i,
            "name": rng.choice(NAMES),
            "age": rng.randrange(5),
            "text": rng.choice(WORDS),
            "score": rng.randrange(10),
        }
        if rng.random() < 0.3:
            record["email"] = rng.choice(["e@x", None])
        if widen_at <= i < widen_at + 40:
            record["note"] = "wide"
            record["score"] += 0.5
        if rng.random() < malformed_rate:
            lines.append(dump_record(record)[:-7])  # torn: never parses
            records.append(None)
        else:
            lines.append(dump_record(record))
            records.append(record)
    return lines, records


@st.composite
def predicate_clauses(draw):
    kind = draw(st.sampled_from(["exact", "kv", "sub", "present", "disj"]))
    if kind == "exact":
        return Clause((exact("name", draw(st.sampled_from(NAMES[:3]))),))
    if kind == "kv":
        return Clause(
            (key_value("age", draw(st.integers(min_value=0, max_value=4))),)
        )
    if kind == "sub":
        return Clause((substring("text", "kw"),))
    if kind == "present":
        return Clause((key_present("email"),))
    return Clause((
        exact("name", draw(st.sampled_from(NAMES[:3]))),
        key_value("age", draw(st.integers(min_value=0, max_value=4))),
    ))


@st.composite
def loads(draw):
    queries = tuple(
        Query(tuple(draw(st.lists(predicate_clauses(), min_size=1,
                                  max_size=2, unique=True))), name=f"q{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    )
    workload = Workload(queries)
    pool = list(workload.candidate_pool)
    pushed = pool[:draw(st.integers(min_value=1, max_value=len(pool)))]
    n_records = draw(st.integers(min_value=ROW_GROUP_ROWS + 6,
                                 max_value=2 * ROW_GROUP_ROWS + 300))
    return dict(
        workload=workload,
        pushed=pushed,
        seed=draw(st.integers(min_value=0, max_value=2 ** 32)),
        n_records=n_records,
        # None of these divides ROW_GROUP_ROWS, and 1,100 exceeds it: a
        # group boundary falls inside a chunk.
        chunk_size=draw(st.sampled_from([7, 100, 300, 1100])),
        seal_interval=draw(st.sampled_from([1, 3, NEVER])),
        partial=draw(st.sampled_from(["on", "off", "auto"])),
        widen_at=draw(st.integers(min_value=1, max_value=n_records - 1)),
        malformed_rate=draw(st.sampled_from([0.0, 0.02])),
        # Which chunk (as a fraction of the load) loses one id's vector.
        drop_at=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def build_plan(pushed):
    model = CostModel(DEFAULT_COEFFICIENTS, 60)
    return manual_plan(pushed, {c: 0.5 for c in pushed}, model)


def answer_sql(query):
    return query.sql("t").replace("SELECT COUNT(*)",
                                  "SELECT COUNT(*), SUM(score)")


def brute_force(query, records):
    """``[COUNT(*), SUM(score)]`` of *query* over the parsed records."""
    matched = [r for r in records if r is not None and query.evaluate(r)]
    scores = [r["score"] for r in matched]
    return [len(matched), sum(scores) if scores else None]


def check_answers(server, workload, records):
    for query in workload.queries:
        got = list(server.query(answer_sql(query)).rows[0].values())
        assert got == brute_force(query, records), answer_sql(query)


def check_stored_parts(parts, chunks, chunk_size, records):
    """Rows are the parsed records, every stored 0 is a client 0, and
    each part holds ``ceil(rows / ROW_GROUP_ROWS)`` groups."""
    stored = 0
    for path in parts:
        with ParquetLiteReader(path) as reader:
            sizes = [group.row_count for group in reader.row_groups()]
            assert len(sizes) == math.ceil(sum(sizes) / ROW_GROUP_ROWS)
            assert all(size == ROW_GROUP_ROWS for size in sizes[:-1])
            for index, group in enumerate(reader.row_groups()):
                rows = group.rows()
                stored += len(rows)
                for row in rows:
                    record = records[row["id"]]
                    assert record is not None
                    assert row == {name: record.get(name) for name in row}
                for pid, vector in group.meta.bitvectors.items():
                    for position in range(len(rows)):
                        if vector[position]:
                            continue
                        row_id = rows[position]["id"]
                        chunk = chunks[row_id // chunk_size]
                        client = chunk.bitvectors.get(pid)
                        assert client is not None, (
                            f"group {index} of {path.name} stores a 0 for "
                            f"id {pid} where the client sent no vector"
                        )
                        assert not client[row_id % chunk_size]
    return stored


@given(load=loads())
@settings(max_examples=40, deadline=None)
def test_grouped_parts_answer_like_brute_force(load, tmp_path_factory):
    workload, chunk_size = load["workload"], load["chunk_size"]
    plan = build_plan(load["pushed"])
    lines, records = make_lines(load["seed"], load["n_records"],
                                load["widen_at"], load["malformed_rate"])
    chunks = list(SimulatedClient("c", plan=plan,
                                  chunk_size=chunk_size).process(lines))
    dropped = chunks[min(int(load["drop_at"] * len(chunks)),
                         len(chunks) - 1)]
    dropped.bitvectors.pop(plan.predicate_ids[0])

    server = CiaoServer(tmp_path_factory.mktemp("grouping"), plan=plan,
                        workload=workload, partial_loading=load["partial"],
                        seal_interval=load["seal_interval"])
    for chunk in chunks:
        server.ingest(chunk)
    server.quiesce()  # every chunk sealed: the live path sees them all
    check_answers(server, workload, records)
    summary = server.finalize_loading()
    check_answers(server, workload, records)
    stored = check_stored_parts(server.table.parquet_paths, chunks,
                                chunk_size, records)
    assert stored == summary.loaded
    server.close()


def test_vectors_concatenate_across_chunks_and_pad_missing_ids(tmp_path):
    # Three chunks in one group: the middle one lacks id 1's vector, so
    # its rows store 1s for id 1 — never an invented 0.
    plan = build_plan([Clause((exact("name", "Ann"),)),
                       Clause((key_value("age", 2),))])
    lines = [dump_record({"id": i, "name": NAMES[i % 4], "age": i % 5})
             for i in range(30)]
    chunks = list(SimulatedClient("c", plan=plan, chunk_size=10)
                  .process(lines))
    ann, age = plan.predicate_ids
    chunks[1].bitvectors.pop(age)
    server = CiaoServer(tmp_path, plan=plan, partial_loading="off")
    for chunk in chunks:
        server.ingest(chunk)
    server.finalize_loading()
    [part] = server.table.parquet_paths
    with ParquetLiteReader(part) as reader:
        [meta] = reader.meta.row_groups
    expect_ann = [i % 4 == 0 for i in range(30)]
    expect_age = [i % 5 == 2 or 10 <= i < 20 for i in range(30)]
    assert meta.bitvectors[ann].to_bits() == list(map(int, expect_ann))
    assert meta.bitvectors[age].to_bits() == list(map(int, expect_age))
    server.close()


def test_checkpoint_mid_part_recovers_like_a_serial_load(tmp_path):
    # 300-record chunks, sealed every 8: a part spans 2,400 rows, so the
    # open part has written a full group before each cut below.
    plan = build_plan([Clause((exact("name", "Ann"),)),
                       Clause((substring("text", "kw"),))])
    workload = Workload((
        Query((Clause((exact("name", "Ann"),)),), name="ann"),
        Query((Clause((substring("text", "kw"),)),
               Clause((key_value("age", 3),))), name="kw"),
    ))
    lines, records = make_lines(7, 3600, widen_at=1900, malformed_rate=0.01)
    chunks = list(SimulatedClient("c", plan=plan, chunk_size=300)
                  .process(lines))
    payloads = [encode_chunk(chunk) for chunk in chunks]

    durable = CiaoServer(tmp_path / "durable", plan=plan, workload=workload,
                         partial_loading="off", seal_interval=8,
                         durable=True)
    session = durable.open_ingest_session("src")
    for seq, payload in enumerate(payloads[:5], 1):
        session.ingest_sequenced(payload, seq=seq, client_id="c1")
    assert durable.checkpoint() is True
    for seq, payload in enumerate(payloads[5:9], 6):  # lost by the crash
        session.ingest_sequenced(payload, seq=seq, client_id="c1")

    # Abandon the server (simulated kill -9) and rebuild from disk.
    recovered = CiaoServer.recover(tmp_path / "durable", workload=workload)
    assert recovered.ledger_last("c1", "src") == 5
    check_answers(recovered, workload, records[:5 * 300])
    serial = CiaoServer(tmp_path / "serial", plan=plan, workload=workload,
                        partial_loading="off")
    for payload in payloads[:5]:
        serial.ingest(payload)
    serial.finalize_loading()
    for query in workload.queries:
        sql = answer_sql(query)
        assert recovered.query(sql).rows == serial.query(sql).rows

    # The client replays past the durable watermark; nothing is lost.
    replay = recovered.resume_ingest_session("src")
    for seq, payload in enumerate(payloads, 1):
        replay.ingest_sequenced(payload, seq=seq, client_id="c1")
    summary = recovered.finalize_loading()
    assert summary.received == len(lines)
    check_answers(recovered, workload, records)
    recovered.close()
    serial.close()
