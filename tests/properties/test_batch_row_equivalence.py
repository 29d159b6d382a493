"""Property: the batch engine ≡ the row-at-a-time interpreter, always.

Random records (nulls, bools, ragged keys), random row-group splits,
optional predicate bit-vectors with injected false positives, and a pool
of query shapes covering ParquetScan / SkippingScan / aggregates /
GROUP BY / LIKE / LIMIT.  For every draw:

* ``run_plan`` (batch) and ``engine_oracle.run_plan_rows`` (row oracle) return
  identical rows — values **and** ordering;
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
from repro.storage import ParquetLiteWriter, infer_schema
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
]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=60))
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


@given(table=tables(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_batch_equals_row_engine(table, data, tmp_path_factory):
    records, group_rows, annotate, fp_rate = table
    workdir = tmp_path_factory.mktemp("eq")
    entry = _build_table(workdir, records, group_rows, annotate, fp_rate,
                         seed=len(records))
    sql = data.draw(st.sampled_from(QUERY_POOL))
    parsed = parse_sql(sql)

    batch = run_plan(*plan_query(parsed, entry))
    row = run_plan_rows(*plan_query(parsed, entry))

    assert batch.rows == row.rows, (
        f"{sql}: batch != row (annotate={annotate}, fp={fp_rate})"
    )
    assert batch.stats.rows_emitted == row.stats.rows_emitted
    if parsed.limit is None:
        # Without LIMIT the two engines do identical work.
        assert batch.stats.rows_examined == row.stats.rows_examined
        assert batch.stats.row_groups_total == row.stats.row_groups_total
        assert batch.stats.tuples_skipped == row.stats.tuples_skipped
        assert batch.stats.row_groups_skipped == \
            row.stats.row_groups_skipped
    else:
        # The row oracle is maximally lazy; the batch engine decodes at
        # row-group granularity but never more groups than the oracle.
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
    assert warm.plan_info.snapshot_cache_hits == len(parts)
