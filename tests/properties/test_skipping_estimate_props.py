"""Property: ``estimate_skipping`` predicts exactly what a scan skips.

The estimate counts skipped tuples and skippable row groups from the
reader's candidate ints and each candidate group's survivor mask,
without decoding anything.  On random tables — several parts, random
row-group splits, random (sparse, dense, all-empty) vectors, and in the
first part one row group that stores no vector for one predicate id (a
predicate pushed by ``update_plan`` after that group loaded) — and
random sets of pushed clauses, it must equal an executed
``SkippingScan`` over every part with no zone-map hook: the same
skipped tuples, skipped groups, groups and surviving rows.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.core import Query, clause, exact
from repro.engine import ChainScan, ExecutionStats, SkippingScan, TableEntry
from repro.server import estimate_skipping, query_predicate_ids
from repro.storage import ParquetLiteWriter, infer_schema

#: Pushed clause per predicate id; one more clause is never pushed.
CLAUSES = {pid: clause(exact("name", f"n{pid}")) for pid in range(3)}
UNPUSHED = clause(exact("name", "other"))

density = st.sampled_from([0.0, 0.05, 0.5, 1.0])


@st.composite
def part(draw):
    """Row counts per group and, per group, a vector per id (or None)."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    groups = []
    for size in sizes:
        vectors = {}
        for pid in CLAUSES:
            p = draw(density)
            vectors[pid] = [draw(st.floats(0, 1)) < p for _ in range(size)]
        groups.append(vectors)
    return sizes, groups


@st.composite
def tables(draw):
    parts = draw(st.lists(part(), min_size=1, max_size=3))
    sizes, groups = parts[0]
    # The update_plan case: one group of the first part lacks one id.
    group = draw(st.integers(0, len(sizes) - 1))
    del groups[group][draw(st.sampled_from(sorted(CLAUSES)))]
    return parts


def _write(directory, parts):
    paths = []
    for index, (sizes, groups) in enumerate(parts):
        path = directory / f"t.part{index}.pql"
        rows = [{"x": i} for i in range(max(sizes))]
        with ParquetLiteWriter(path, infer_schema(rows)) as writer:
            for size, vectors in zip(sizes, groups):
                writer.write_row_group(rows[:size], bitvectors={
                    pid: BitVector.from_bits(bits)
                    for pid, bits in vectors.items()
                })
        paths.append(path)
    return TableEntry(name="t", parquet_paths=paths,
                      pushdown={c: pid for pid, c in CLAUSES.items()})


@given(parts=tables(),
       pushed=st.lists(st.sampled_from(sorted(CLAUSES)), min_size=1,
                       max_size=3, unique=True),
       unpushed=st.booleans())
@settings(max_examples=80, deadline=None)
def test_estimate_equals_executed_scan(parts, pushed, unpushed):
    query = Query(tuple(CLAUSES[pid] for pid in pushed)
                  + ((UNPUSHED,) if unpushed else ()))
    with tempfile.TemporaryDirectory() as directory:
        table = _write(Path(directory), parts)
        estimate = estimate_skipping(query, table)
        ids = query_predicate_ids(query, table)
        assert ids == sorted(pushed)
        stats = ExecutionStats()
        scan = ChainScan([SkippingScan(reader, ids)
                          for reader in table.open_readers()])
        for _ in scan.batches(stats):
            pass
        assert estimate.tuples_skipped == stats.tuples_skipped
        assert estimate.skippable_row_groups == stats.row_groups_skipped
        assert estimate.row_groups == stats.row_groups_total
        assert estimate.surviving_rows == stats.rows_examined
        table.set_view([], [])
