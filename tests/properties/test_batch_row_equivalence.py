"""Property: the batch engine ≡ the row-at-a-time interpreter, always.

Random records (nulls, bools, ragged keys, and one column mixing ints,
floats, bools, strings and nulls), random row-group splits, optional
predicate bit-vectors with injected false positives, an optional raw
JSON sideline holding the last records, and a pool of query shapes
covering ParquetScan / SkippingScan / SidelineScan / aggregates /
GROUP BY / LIKE / LIMIT.  For every draw:

* ``run_plan`` (batch) and ``engine_oracle.run_plan_rows`` (row oracle) return
  identical rows — values, types **and** ordering — or raise the same
  error; the batch engine runs each query twice on the same table, so
  the second run reads the decoded pages and sideline columns the
  first one kept;
* the stats invariants agree (identical counters without LIMIT; the
  row path never examines more than the batch path under LIMIT);
* snapshot-cache answers equal a cold scan of the same snapshot.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.core.predicates import Clause, exact, key_value
from repro.engine import (
    Catalog,
    Executor,
    TableEntry,
    parse_sql,
    plan_query,
    run_plan,
)
from repro.rawjson import dump_record
from repro.storage import JsonSideStore, ParquetLiteWriter, infer_schema
from engine_oracle import run_plan_rows

NAMES = ["Ann", "Bob", "Cat", ""]
TEXTS = ["kw", "has kw inside", "plain", ""]

#: Pushed-down clauses available to SkippingScan draws: predicate 0
#: matches ``name = 'Ann'``, predicate 1 matches ``age = 2``.
PUSHDOWN = {
    Clause((exact("name", "Ann"),)): 0,
    Clause((key_value("age", 2),)): 1,
}

QUERY_POOL = [
    "SELECT * FROM t",
    "SELECT * FROM t WHERE name = 'Ann'",
    "SELECT * FROM t WHERE age = 2",
    "SELECT * FROM t WHERE name = 'Ann' AND age = 2",
    "SELECT COUNT(*) FROM t WHERE name = 'Ann'",
    "SELECT COUNT(*) FROM t WHERE age > 1 AND age <= 3",
    "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM t "
    "WHERE text LIKE '%kw%'",
    "SELECT COUNT(*) FROM t WHERE text LIKE 'has%'",
    "SELECT COUNT(*) FROM t WHERE email IS NULL",
    "SELECT COUNT(email) FROM t WHERE email IS NOT NULL",
    "SELECT COUNT(*) FROM t WHERE flag = true",
    "SELECT COUNT(*) FROM t WHERE NOT name = 'Bob'",
    "SELECT COUNT(*) FROM t WHERE name IN ('Ann', 'Cat') OR age = 0",
    "SELECT name, age FROM t WHERE age >= 1",
    "SELECT name, age FROM t WHERE age >= 1 LIMIT 3",
    "SELECT * FROM t LIMIT 5",
    "SELECT name, COUNT(*), SUM(age) FROM t GROUP BY name",
    "SELECT name, age, COUNT(*) FROM t WHERE text LIKE '%kw%' "
    "GROUP BY name, age",
    "SELECT mix, COUNT(*) FROM t GROUP BY mix",
    "SELECT mix, COUNT(*), SUM(mix), MIN(mix) FROM t GROUP BY mix",
    "SELECT SUM(mix) FROM t",
    "SELECT MIN(mix), MAX(mix) FROM t WHERE age >= 1",
    "SELECT COUNT(mix), AVG(mix) FROM t",
    "SELECT COUNT(*), SUM(mix), MIN(mix), MAX(mix), AVG(mix) FROM t "
    "WHERE name = 'Ann'",
    "SELECT name, mix FROM t WHERE age = 2",
]

#: Values of the mixed-type column.  Each table draws which kinds it
#: holds, so some columns stay numeric (the builtin folds) and others
#: mix kinds (the per-value fold, or an error both engines raise).
MIX_KINDS = {
    "int": st.one_of(st.integers(min_value=-3, max_value=3),
                     st.sampled_from([2 ** 53 + 1, -(2 ** 60)])),
    "float": st.sampled_from([0.5, -0.0, 0.0, 2.25, 1e16, -3.0]),
    "bool": st.booleans(),
    "str": st.sampled_from(["a", "b", ""]),
    "null": st.none(),
}
MIX_SETS = [
    ("int",), ("float",), ("int", "float"), ("int", "float", "null"),
    ("int", "bool"), ("str", "null"), tuple(MIX_KINDS),
]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    mix = st.one_of(*(MIX_KINDS[kind]
                      for kind in draw(st.sampled_from(MIX_SETS))))
    records = []
    for _ in range(n):
        record = {
            "name": draw(st.sampled_from(NAMES)),
            "age": draw(st.integers(min_value=0, max_value=4)),
            "text": draw(st.sampled_from(TEXTS)),
            "flag": draw(st.booleans()),
        }
        if draw(st.booleans()):
            record["email"] = draw(st.sampled_from(["e@x", None]))
        if draw(st.integers(min_value=0, max_value=5)):
            record["mix"] = draw(mix)
        records.append(record)
    group_rows = draw(st.sampled_from([3, 7, 25]))
    annotate = draw(st.booleans())
    false_positive_rate = draw(st.sampled_from([0.0, 0.3]))
    return records, group_rows, annotate, false_positive_rate


def _build_table(tmp_path, records, group_rows, annotate, fp_rate, seed):
    import random

    rng = random.Random(seed)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "t.pql"
    schema = infer_schema(records)
    with ParquetLiteWriter(path, schema) as writer:
        for start in range(0, len(records), group_rows):
            group = records[start:start + group_rows]
            bitvectors = None
            if annotate:
                # Sound vectors: never a false negative; false positives
                # injected at fp_rate exercise the residual filter.
                bitvectors = {
                    0: BitVector.from_bits([
                        r["name"] == "Ann" or rng.random() < fp_rate
                        for r in group
                    ]),
                    1: BitVector.from_bits([
                        r["age"] == 2 or rng.random() < fp_rate
                        for r in group
                    ]),
                }
            writer.write_row_group(group, bitvectors=bitvectors)
    return TableEntry(
        name="t", parquet_paths=[path],
        pushdown=dict(PUSHDOWN) if annotate else {},
    )


def _run(run, parsed, entry):
    """The result of *run* over a fresh plan, or the error it raised."""
    try:
        return run(*plan_query(parsed, entry)), None
    except (TypeError, OverflowError) as exc:
        return None, (type(exc), str(exc))


@given(table=tables(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_equals_row_engine(table, data, tmp_path_factory):
    records, group_rows, annotate, fp_rate = table
    workdir = tmp_path_factory.mktemp("eq")
    # The last records may sit in a raw JSON sideline instead; at least
    # one stays in the part.
    sidelined = data.draw(st.integers(min_value=0,
                                      max_value=len(records) - 1))
    loaded = records[:len(records) - sidelined]
    entry = _build_table(workdir, loaded, group_rows, annotate, fp_rate,
                         seed=len(records))
    if sidelined:
        store = JsonSideStore(workdir / "side.jsonl")
        store.append(0, [dump_record(r) for r in records[len(loaded):]])
        entry.set_view(entry.parquet_paths,
                       [(store.path, store.record_count)])
    sql = data.draw(st.sampled_from(QUERY_POOL))
    parsed = parse_sql(sql)

    row, row_error = _run(run_plan_rows, parsed, entry)
    # The second batch run reads the pages and sideline columns the
    # first one decoded and pulled.
    for _ in range(2):
        batch, batch_error = _run(run_plan, parsed, entry)
        assert batch_error == row_error, sql
        if row_error is not None:
            continue
        assert repr(batch.rows) == repr(row.rows), (
            f"{sql}: batch != row (annotate={annotate}, fp={fp_rate})"
        )
        assert batch.stats.rows_emitted == row.stats.rows_emitted
        if parsed.limit is None:
            # Without LIMIT the two engines do identical work.
            assert batch.stats.rows_examined == row.stats.rows_examined
            assert batch.stats.row_groups_total == \
                row.stats.row_groups_total
            assert batch.stats.tuples_skipped == row.stats.tuples_skipped
            assert batch.stats.row_groups_skipped == \
                row.stats.row_groups_skipped
        else:
            # The row oracle is maximally lazy; the batch engine decodes
            # at row-group granularity but never more groups than the
            # oracle.
            assert row.stats.rows_examined <= batch.stats.rows_examined
            assert batch.stats.row_groups_total <= \
                len(entry.open_readers()[0].meta.row_groups)


AGG_POOL = [
    "SELECT COUNT(*) FROM t WHERE name = 'Ann'",
    "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM t "
    "WHERE text LIKE '%kw%'",
    "SELECT name, COUNT(*), SUM(age) FROM t GROUP BY name",
    "SELECT COUNT(*) FROM t WHERE flag = true AND age > 0",
]


@given(table=tables(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_snapshot_cache_equals_cold_scan(table, data, tmp_path_factory):
    records, group_rows, annotate, fp_rate = table
    workdir = tmp_path_factory.mktemp("snap")

    # Split the stream into two sealed parts, viewed live.
    cut = data.draw(st.integers(min_value=0, max_value=len(records)))
    parts = []
    for index, span in enumerate((records[:cut], records[cut:])):
        if not span:
            continue
        part = _build_table(workdir / f"p{index}", span, group_rows,
                            annotate, fp_rate, seed=index)
        parts.append(part.parquet_paths[0])
    entry = TableEntry(name="t",
                       pushdown=dict(PUSHDOWN) if annotate else {})
    entry.set_view(parts, [], live=True)
    catalog = Catalog()
    catalog.register(entry)
    executor = Executor(catalog)

    sql = data.draw(st.sampled_from(AGG_POOL))
    first = executor.execute(sql)
    warm = executor.execute(sql)  # all partials cached
    entry.clear_snapshot_cache()
    cold = executor.execute(sql)

    assert json.dumps(first.rows) == json.dumps(warm.rows)
    assert json.dumps(warm.rows) == json.dumps(cold.rows)
    assert warm.stats.row_groups_total == 0 or not parts
    assert warm.stats.snapshot_cache_hits == len(parts)
