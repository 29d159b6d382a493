"""Prepared queries: a repeated statement reuses its parse, plan and skip
decisions, and answers exactly as a cold one.

The executor keeps parsed statements by SQL text and the table keeps
prepared plans (with the skip decisions their scans made) per view.
Warm executions must equal the first, cold one and the row oracle in
rows, :class:`ExecutionStats` and :class:`PlanInfo`; nothing a caller
does to a result or a batch may leak into the next execution; and every
change of the view or the pushdown map drops the plans made against it.
"""

import copy
import json
import random
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.compact import CompactionConfig, Compactor
from repro.core import CostModel, DEFAULT_COEFFICIENTS, manual_plan
from repro.core.predicates import Clause, exact
from repro.engine import (
    Catalog,
    Executor,
    ExecutionStats,
    SqlError,
    TableEntry,
    parse_sql,
    plan_query,
)
from repro.engine import catalog as catalog_module
from repro.engine import executor as executor_module
from repro.engine.batch import ColumnBatch
from repro.engine.planner import PlannerError
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import JsonSideStore, ParquetLiteWriter, infer_schema
from engine_oracle import run_plan_rows

NAMES = ["Ann", "Bob", "Cat", "Dee"]

#: Predicate 0 matches ``name = 'Ann'``, predicate 1 ``name = 'Bob'``.
PUSHDOWN = {
    Clause((exact("name", "Ann"),)): 0,
    Clause((exact("name", "Bob"),)): 1,
}

QUERY_POOL = [
    "SELECT * FROM t WHERE name = 'Ann'",
    "SELECT seq, age FROM t WHERE name = 'Ann' AND age >= 2",
    "SELECT COUNT(*) FROM t WHERE name = 'Ann'",
    "SELECT COUNT(*) FROM t WHERE name = 'Ann' AND name = 'Bob'",
    "SELECT COUNT(*), SUM(age), MIN(seq), MAX(seq) FROM t "
    "WHERE name = 'Bob' AND seq < 40",
    "SELECT COUNT(*) FROM t WHERE seq < 30",
    "SELECT seq FROM t WHERE seq >= 50 AND age = 1",
    "SELECT * FROM t WHERE name = 'Ann' LIMIT 3",
    "SELECT seq, name FROM t WHERE seq < 45 LIMIT 7",
    "SELECT name, COUNT(*), SUM(age) FROM t GROUP BY name",
    "SELECT age, COUNT(*) FROM t WHERE name = 'Bob' GROUP BY age",
    "SELECT name, COUNT(*) FROM t WHERE seq > 20 GROUP BY name",
    "SELECT COUNT(*) FROM t",
    "SELECT * FROM t",
]


def _records(n, rng, rare=False):
    """*n* records with an increasing ``seq`` (so zone maps prune ranges
    on it); with *rare*, ``Ann`` is one row in 40 (sparse survivors)."""
    records = []
    for seq in range(n):
        if rare:
            name = "Ann" if seq % 40 == 7 else rng.choice(NAMES[1:])
        else:
            name = rng.choice(NAMES)
        records.append({"seq": seq, "name": name,
                        "age": rng.randrange(4)})
    return records


def _write_part(path, records, group_rows, vectors, fp_rate, rng):
    """One part; *vectors* says, per group, which predicate ids store a
    vector there (sound, with false positives at *fp_rate*)."""
    with ParquetLiteWriter(path, infer_schema(records)) as writer:
        for index, start in enumerate(range(0, len(records), group_rows)):
            group = records[start:start + group_rows]
            stored = {}
            for pid, name in ((0, "Ann"), (1, "Bob")):
                if pid in vectors[index % len(vectors)]:
                    stored[pid] = BitVector.from_bits([
                        r["name"] == name or rng.random() < fp_rate
                        for r in group
                    ])
            writer.write_row_group(group, bitvectors=stored or None)
    return path


def _table(workdir, records, group_rows, vectors, fp_rate, sidelined,
           seed):
    """A table over one part and, optionally, a sideline of the last
    *sidelined* records."""
    rng = random.Random(seed)
    loaded = records[:len(records) - sidelined]
    part = _write_part(workdir / "t.pql", loaded, group_rows, vectors,
                       fp_rate, rng)
    entry = TableEntry(name="t", parquet_paths=[part],
                       pushdown=dict(PUSHDOWN))
    if sidelined:
        store = JsonSideStore(workdir / "side.jsonl")
        store.append(0, [dump_record(r) for r in records[len(loaded):]])
        entry.set_view(entry.parquet_paths,
                       [(store.path, store.record_count)])
    return entry


def _executor(entry):
    catalog = Catalog()
    catalog.register(entry)
    return Executor(catalog)


def _snapshot(result):
    """Everything a result says bar its wall time, detached.  Sideline
    records count as read: the first run parses what later runs take
    from the table's sideline cache."""
    stats = asdict(result.stats)
    stats["sideline_records_read"] = (stats.pop("sideline_records_parsed")
                                      + stats.pop("sideline_records_cached"))
    return (json.dumps(result.rows, sort_keys=True), stats,
            asdict(result.plan_info))


def _oracle(sql, entry):
    """The row interpreter over a fresh, uncached plan."""
    return run_plan_rows(*plan_query(parse_sql(sql), entry))


def _scan_readers(op):
    """The part readers an operator tree scans."""
    readers = [op._reader] if hasattr(op, "_reader") else []
    for child in getattr(op, "_children", []):
        readers += _scan_readers(child)
    if hasattr(op, "_child"):
        readers += _scan_readers(op._child)
    return readers


VECTOR_LAYOUTS = [
    [(0, 1)],              # every group stores both vectors
    [(0, 1), (0,), ()],    # some groups miss one or both
    [()],                  # no vectors at all: full scans
]


@given(n=st.integers(min_value=1, max_value=90),
       group_rows=st.sampled_from([5, 16, 40]),
       layout=st.sampled_from(VECTOR_LAYOUTS),
       fp_rate=st.sampled_from([0.0, 0.3]),
       rare=st.booleans(),
       sidelined=st.integers(min_value=0, max_value=6),
       sql=st.sampled_from(QUERY_POOL),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=80, deadline=None)
def test_warm_executions_equal_cold_and_the_oracle(
        tmp_path_factory, n, group_rows, layout, fp_rate, rare, sidelined,
        sql, seed):
    records = _records(n, random.Random(seed), rare=rare)
    sidelined = min(sidelined, n - 1)
    entry = _table(tmp_path_factory.mktemp("warm"), records, group_rows,
                   layout, fp_rate, sidelined, seed)
    executor = _executor(entry)
    runs = [executor.execute(sql) for _ in range(3)]
    cold = _snapshot(runs[0])
    for warm in runs[1:]:
        assert _snapshot(warm) == cold, sql
    oracle = _oracle(sql, entry)
    assert json.dumps(runs[0].rows, sort_keys=True) == \
        json.dumps(oracle.rows, sort_keys=True), sql
    assert runs[0].plan_info == oracle.plan_info
    if parse_sql(sql).limit is None:
        for name in ("rows_examined", "row_groups_total",
                     "row_groups_skipped", "tuples_skipped",
                     "row_groups_pruned_by_zonemap",
                     "tuples_pruned_by_zonemap"):
            assert getattr(runs[0].stats, name) == \
                getattr(oracle.stats, name), (sql, name)


class TestPathsCovered:
    """The paths the property draws from, each shown to run warm."""

    def _entry(self, tmp_path, rare=False, layout=((0, 1),), fp_rate=0.3):
        records = _records(120, random.Random(5), rare=rare)
        return _table(tmp_path, records, 40, list(layout), fp_rate, 0, 5)

    def _assert_repeatable(self, entry, sql):
        executor = _executor(entry)
        runs = [executor.execute(sql) for _ in range(3)]
        assert all(_snapshot(run) == _snapshot(runs[0]) for run in runs)
        assert json.dumps(runs[0].rows, sort_keys=True) == \
            json.dumps(_oracle(sql, entry).rows, sort_keys=True)
        return runs[0]

    def test_sparse_filter_path(self, tmp_path, monkeypatch):
        views = []
        real = ColumnBatch.row_view

        def counting(batch):
            views.append(batch.num_rows)
            return real(batch)

        monkeypatch.setattr(ColumnBatch, "row_view", counting)
        result = self._assert_repeatable(
            self._entry(tmp_path, rare=True, fp_rate=0.0),
            "SELECT seq FROM t WHERE name = 'Ann' AND age >= 0")
        # One survivor in 40 rows: the residual filter walks survivors,
        # on every run.
        assert result.stats.used_data_skipping
        assert len(views) == 3 * 3

    def test_zone_map_pruned_groups(self, tmp_path):
        result = self._assert_repeatable(
            self._entry(tmp_path), "SELECT COUNT(*) FROM t WHERE seq < 30")
        assert result.stats.row_groups_pruned_by_zonemap == 2
        (tmp_path / "pushed").mkdir()
        pushed = self._assert_repeatable(
            self._entry(tmp_path / "pushed"),
            "SELECT COUNT(*) FROM t WHERE name = 'Bob' AND seq >= 100")
        assert pushed.stats.used_data_skipping
        assert pushed.stats.row_groups_pruned_by_zonemap == 2

    def test_groups_missing_a_vector(self, tmp_path):
        result = self._assert_repeatable(
            self._entry(tmp_path, layout=((0, 1), (1,), ())),
            "SELECT * FROM t WHERE name = 'Ann'")
        # Two of three groups lack predicate 0's vector: scanned whole.
        assert result.stats.rows_examined >= 80

    def test_limit_closes_early_on_every_run(self, tmp_path):
        result = self._assert_repeatable(
            self._entry(tmp_path), "SELECT * FROM t WHERE name = 'Ann' "
                                   "LIMIT 2")
        assert result.stats.row_groups_total == 1
        assert len(result.rows) == 2

    def test_group_by(self, tmp_path):
        result = self._assert_repeatable(
            self._entry(tmp_path),
            "SELECT name, COUNT(*), SUM(age) FROM t GROUP BY name")
        assert sum(row["count(*)"] for row in result.rows) == 120


class TestLiteralTypes:
    def test_bool_and_int_literals_keep_their_own_plans(self, tmp_path):
        # ``true`` and ``1`` parse to equal literals, yet ``true`` never
        # equates ``1``: each text must run its own plan.
        parts = []
        for name, values in (("bools", [True, False]), ("ints", [1, 0, 2])):
            records = [{"seq": i, "b": values[i % len(values)]}
                       for i in range(12)]
            with ParquetLiteWriter(tmp_path / f"{name}.pql",
                                   infer_schema(records)) as writer:
                writer.write_row_group(records)
            parts.append(tmp_path / f"{name}.pql")
        store = JsonSideStore(tmp_path / "side.jsonl")
        store.append(0, [dump_record({"seq": 100 + i, "b": value})
                         for i, value in enumerate([True, 1, False, 0])])
        entry = TableEntry(name="t", parquet_paths=parts)
        entry.set_view(parts, [(store.path, store.record_count)])
        executor = _executor(entry)
        for _ in range(2):
            for sql in ("SELECT seq, b FROM t WHERE b = true",
                        "SELECT seq, b FROM t WHERE b = 1",
                        "SELECT seq, b FROM t WHERE b = false",
                        "SELECT seq, b FROM t WHERE b = 0"):
                rows = executor.execute(sql).rows
                assert rows, sql
                assert json.dumps(rows) == \
                    json.dumps(_oracle(sql, entry).rows), sql


class TestCallerMutations:
    def test_mutating_a_result_changes_no_later_answer(self, tmp_path):
        entry = _table(tmp_path, _records(90, random.Random(1)), 16,
                       [(0, 1)], 0.3, 4, 1)
        executor = _executor(entry)
        for sql in ("SELECT * FROM t WHERE name = 'Ann'",
                    "SELECT * FROM t WHERE seq >= 84",
                    "SELECT name, COUNT(*) FROM t GROUP BY name"):
            first = executor.execute(sql)
            expected = _snapshot(first)
            for row in first.rows:
                row.clear()
            first.rows.append({"junk": 1})
            first.plan_info.matched_predicate_ids.append(99)
            first.plan_info.description = "junk"
            first.stats.rows_examined = -1
            assert _snapshot(executor.execute(sql)) == expected, sql

    def test_narrowing_a_batch_selection_changes_no_later_answer(
            self, tmp_path):
        entry = _table(tmp_path, _records(90, random.Random(2)), 16,
                       [(0, 1)], 0.3, 0, 2)
        executor = _executor(entry)
        sql = "SELECT seq FROM t WHERE name = 'Ann'"
        expected = _snapshot(executor.execute(sql))
        plan, _ = entry.prepared(sql, parse_sql(sql), plan_query)
        for batch in plan.batches(ExecutionStats()):
            batch.apply_mask(BitVector.zeros(batch.num_rows))
        assert _snapshot(executor.execute(sql)) == expected


class TestBounds:
    def test_more_texts_than_the_caps_keep_at_most_the_caps(self,
                                                            tmp_path):
        entry = _table(tmp_path, _records(30, random.Random(3)), 16,
                       [(0, 1)], 0.0, 0, 3)
        executor = _executor(entry)
        texts = max(executor_module.PARSED_SQL_CAP,
                    catalog_module.PREPARED_PLANS_CAP) + 5
        for i in range(texts):
            sql = f"SELECT COUNT(*) FROM t WHERE seq >= {i}"
            assert executor.execute(sql).scalar() == max(0, 30 - i)
        assert len(executor._parsed) == executor_module.PARSED_SQL_CAP
        assert len(entry._plans) == catalog_module.PREPARED_PLANS_CAP
        # The oldest went first.
        assert "SELECT COUNT(*) FROM t WHERE seq >= 0" \
            not in executor._parsed
        newest = f"SELECT COUNT(*) FROM t WHERE seq >= {texts - 1}"
        assert newest in executor._parsed

    def test_bad_sql_raises_the_same_error_twice(self, tmp_path):
        entry = _table(tmp_path, _records(10, random.Random(4)), 16,
                       [(0, 1)], 0.0, 0, 4)
        executor = _executor(entry)
        for bad, error in (("SELEC * FROM t", SqlError),
                           ("SELECT name, COUNT(*) FROM t", PlannerError)):
            messages = []
            for _ in range(2):
                with pytest.raises(error) as caught:
                    executor.execute(bad)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
        assert "SELEC * FROM t" not in executor._parsed
        assert not entry._plans


# ----------------------------------------------------------------------
# Invalidation, on a server
# ----------------------------------------------------------------------
SERVER_QUERIES = [
    "SELECT k, v FROM t WHERE k = 3",
    "SELECT * FROM t WHERE v >= 100",
    "SELECT v FROM t WHERE k = 1 LIMIT 5",
]


def _chunks(n_chunks, n_records=20, start=0):
    return [
        JsonChunk(cid, [dump_record({"k": (cid * n_records + i) % 8,
                                     "v": cid * n_records + i})
                        for i in range(n_records)])
        for cid in range(start, start + n_chunks)
    ]


def _assert_matches_oracle(server):
    for sql in SERVER_QUERIES:
        got = server.query(sql)
        assert json.dumps(got.rows, sort_keys=True) == json.dumps(
            _oracle(sql, server.table).rows, sort_keys=True), sql


def _answers(server):
    """The server's answers, in an order a part swap keeps: sorted rows,
    and only the row count under LIMIT (which rows come first depends on
    the part order)."""
    answers = []
    for sql in SERVER_QUERIES:
        rows = [json.dumps(row, sort_keys=True)
                for row in server.query(sql).rows]
        answers.append(len(rows) if "LIMIT" in sql else sorted(rows))
    return answers


def _assert_no_closed_reader(table):
    for plan, _ in table._plans.values():
        assert not any(r._file.closed for r in _scan_readers(plan))


class TestInvalidation:
    def test_a_mid_load_seal_drops_the_plans(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread",
                            seal_interval=1)
        for chunk in _chunks(4):
            server.ingest(chunk)
        server.quiesce()
        _assert_matches_oracle(server)
        before = {id(plan) for plan, _ in server.table._plans.values()}
        assert len(before) == len(SERVER_QUERIES)
        for chunk in _chunks(4, start=4):
            server.ingest(chunk)
        server.quiesce()
        _assert_matches_oracle(server)
        after = {id(plan) for plan, _ in server.table._plans.values()}
        assert not before & after
        # The part sealed since holds v = 100..159.
        assert len(server.query(SERVER_QUERIES[1]).rows) == 60
        server.finalize_loading()

    def test_a_compaction_commit_drops_the_plans(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread",
                            seal_interval=1)
        for chunk in _chunks(8):
            server.ingest(chunk)
        server.finalize_loading()
        _assert_matches_oracle(server)
        expected = _answers(server)
        held = [plan for plan, _ in server.table._plans.values()]
        compactor = Compactor(server, config=CompactionConfig(
            min_observations=1, remove_inputs=True))
        assert compactor.run_once() is not None
        # The swap closed the replaced parts' readers: no prepared plan
        # may still scan one.
        assert any(r._file.closed for plan in held
                   for r in _scan_readers(plan))
        assert not server.table._plans
        assert _answers(server) == expected
        _assert_no_closed_reader(server.table)
        _assert_matches_oracle(server)

    def test_update_plan_rematches_the_same_sql(self, tmp_path):
        from repro.client import SimulatedClient

        c_a = Clause((exact("col", "a"),))
        c_b = Clause((exact("col", "b"),))
        model = CostModel(DEFAULT_COEFFICIENTS, 40)
        initial = manual_plan([c_a], {c_a: 0.3}, model)
        server = CiaoServer(tmp_path, plan=initial, partial_loading="off")
        lines = [dump_record({"col": v, "n": i})
                 for i, v in enumerate(["a", "b", "c"] * 20)]
        for chunk in SimulatedClient("c", plan=initial,
                                     chunk_size=20).process(lines):
            server.ingest(chunk)
        server.finalize_loading()
        sql = "SELECT n FROM t WHERE col = 'b'"
        before = server.query(sql)
        assert before.plan_info.matched_predicate_ids == []

        server.update_plan(manual_plan([c_a, c_b], {c_a: 0.3, c_b: 0.3},
                                       model))
        after = server.query(sql)
        assert after.plan_info.matched_predicate_ids == [1]
        assert after.stats.used_data_skipping
        assert after.rows == before.rows
        assert after.rows == _oracle(sql, server.table).rows
        assert len(after.rows) == 20

    def test_recover_answers_like_the_oracle(self, tmp_path):
        server = CiaoServer(tmp_path, n_shards=2, shard_mode="thread",
                            seal_interval=2, durable=True)
        for chunk in _chunks(6):
            server.ingest(chunk)
        server.finalize_loading()
        expected = _answers(server)
        recovered = CiaoServer.recover(tmp_path)
        assert not recovered.table._plans
        assert _answers(recovered) == expected
        _assert_matches_oracle(recovered)
        _assert_no_closed_reader(recovered.table)

    def test_an_unchanged_view_keeps_the_plans(self, tmp_path):
        entry = _table(tmp_path, _records(40, random.Random(6)), 16,
                       [(0, 1)], 0.0, 3, 6)
        executor = _executor(entry)
        sql = "SELECT COUNT(*) FROM t WHERE name = 'Ann'"
        executor.execute(sql)
        (held,) = entry._plans.values()
        entry.set_view(list(entry.parquet_paths), list(entry.sidelines))
        assert list(entry._plans.values()) == [held]
        entry.set_view(entry.parquet_paths, [])
        assert not entry._plans
        assert copy.deepcopy(executor.execute(sql).rows) == \
            _oracle(sql, entry).rows


class TestConcurrency:
    def test_racing_runs_and_pushdown_swaps_keep_every_answer(self,
                                                              tmp_path):
        # No sideline: a pushed match rules the sideline out, so only
        # without one do answers not depend on the pushdown map.
        entry = _table(tmp_path, _records(200, random.Random(8)), 16,
                       [(0, 1), (0,), ()], 0.3, 0, 8)
        expected = {sql: json.dumps(_oracle(sql, entry).rows,
                                    sort_keys=True)
                    for sql in QUERY_POOL}
        executor = _executor(entry)
        wrong = []
        stop = threading.Event()

        def query(offset):
            try:
                for i in range(3 * len(QUERY_POOL)):
                    sql = QUERY_POOL[(i + offset) % len(QUERY_POOL)]
                    rows = executor.execute(sql).rows
                    if json.dumps(rows, sort_keys=True) != expected[sql]:
                        wrong.append(sql)
            except Exception as exc:  # reported by the assert below
                wrong.append(repr(exc))

        def swap():
            flip = False
            while not stop.is_set():
                entry.set_pushdown({} if flip else PUSHDOWN)
                flip = not flip

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=query, args=(k,))
                       for k in range(4)]
            swapper = threading.Thread(target=swap)
            for thread in readers + [swapper]:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            stop.set()
            swapper.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in readers + [swapper])
        assert not wrong
