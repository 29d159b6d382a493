"""Property: warm sideline cache ≡ cold oracle ≡ streaming delta.

Chunks of sideline lines (malformed ones included) are appended to two
shard files while snapshot queries read loaded-so-far views at rising
watermarks, each taken before the chunk in flight lands.  The load then
finalizes — its last publication lists the same shard files, whole and
no longer live, so only lines no snapshot covered are parsed — the
table's view moves to a new generation's store holding other records,
and the table is recovered into a further generation's store.  After
every step:

* each cached answer (plan → ``SidelineScan`` through the table's
  cache, or the snapshot aggregate path) equals the cold row oracle
  (``engine_oracle``), which parses the sideline afresh;
* every line is parsed exactly once: across a sequence of queries the
  records parsed add up to the well-formed lines in view;
* the cache holds at most one entry per line in view.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Catalog, Executor, TableEntry, parse_sql, plan_query
from repro.rawjson import dump_record
from repro.storage import JsonSideStore, SidelineView
from engine_oracle import run_plan_rows

MALFORMED = ["{broken", "[1, 2]", "not json", '"text"', '{"u": }']

QUERIES = [
    "SELECT * FROM t",
    "SELECT COUNT(*), SUM(u) FROM t",
    "SELECT g, COUNT(*), MAX(u) FROM t GROUP BY g",
    "SELECT COUNT(*) FROM t WHERE u > 4",
    "SELECT g, m FROM t WHERE u <= 4",
    "SELECT * FROM t WHERE u > 2 LIMIT 3",
]

records = st.fixed_dictionaries(
    {"u": st.integers(0, 9), "g": st.sampled_from(["a", "b", "c"])},
    optional={"m": st.fixed_dictionaries({"k": st.integers(0, 3)})},
)
lines = st.one_of(records.map(dump_record), st.sampled_from(MALFORMED))
chunks = st.lists(st.lists(lines, min_size=1, max_size=6),
                  min_size=1, max_size=8)


def whole(store: JsonSideStore):
    return [(store.path, store.record_count)]


def well_formed(segments) -> int:
    return sum(1 for path, records in segments
               for _ in SidelineView(path, records).iter_parsed())


def check(executor: Executor, table: TableEntry) -> int:
    """Assert warm ≡ cold for every query; return records parsed."""
    parsed = 0
    in_view = well_formed(table.sidelines)
    for sql in QUERIES:
        warm = executor.execute(sql)
        plan, info = plan_query(parse_sql(sql), table)
        assert warm.rows == run_plan_rows(plan, info).rows, sql
        stats = warm.stats
        parsed += stats.sideline_records_parsed
        if "LIMIT" not in sql:
            assert stats.sideline_records_parsed \
                + stats.sideline_records_cached == in_view, sql
    entries = sum(prefix.lines
                  for prefix in table.sideline_cache._prefixes.values())
    assert entries <= sum(limit for _, limit in table.sidelines)
    return parsed


def fresh_table(store: JsonSideStore):
    table = TableEntry(name="t", sidelines=whole(store))
    catalog = Catalog()
    catalog.register(table)
    return table, Executor(catalog)


@settings(max_examples=40, deadline=None)
@given(chunks=chunks, snapshot_every=st.integers(1, 3),
       refill=st.integers(0, 8))
def test_cached_scans_match_cold_oracle(chunks, snapshot_every, refill):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = JsonSideStore(root / "t.sideline.jsonl")
        shards = [JsonSideStore(root / f"shard{i}.sideline.jsonl")
                  for i in range(2)]
        table, executor = fresh_table(store)

        # Streaming: snapshots at rising watermarks, each query parsing
        # only the delta since the last one.
        parsed = 0
        for i, chunk in enumerate(chunks):
            watermarks = [shard.record_count for shard in shards]
            shards[i % 2].append(i, chunk)
            if i % snapshot_every == 0:
                table.set_view([], [
                    (shard.path, n) for shard, n in zip(shards, watermarks)
                ], live=True)
                parsed += check(executor, table)
        if table.live:
            assert parsed == well_formed(table.sidelines)

        # Finalize is the last publication: the shard sidelines stay
        # where they were written, so only the lines past the last
        # snapshot's watermarks are parsed.
        covered = well_formed(table.sidelines)
        final = [(shard.path, shard.record_count) for shard in shards]
        table.set_view([], final)
        assert check(executor, table) == well_formed(final) - covered
        assert check(executor, table) == 0

        # A new generation's store with other records replaces the
        # view: nothing cached for the old files may be served.
        raw = [pair for shard in shards for pair in shard.iter_raw()]
        regenerated = JsonSideStore(root / "t.g1.sideline.jsonl")
        regenerated.append_pairs(reversed(raw[:refill]))
        table.set_view([], whole(regenerated))
        assert not {str(shard.path) for shard in shards} \
            & set(table.sideline_cache._prefixes)
        assert check(executor, table) == well_formed(whole(regenerated))

        # Recover into a further generation: a new store and table.
        recovered = JsonSideStore(root / "t.g2.sideline.jsonl")
        recovered.append_pairs(regenerated.iter_raw())
        table, executor = fresh_table(recovered)
        assert check(executor, table) == well_formed(whole(recovered))
        assert check(executor, table) == 0
