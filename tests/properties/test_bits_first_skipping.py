"""Property: bit vectors first, zone maps on survivors ≡ zone maps first.

``SkippingScan`` rules row groups out from the reader's per-part
candidate ints before it visits any group, and calls the zone-map hook
only on groups whose bit-vector intersection is non-empty.  The oracle
here is the scan it replaced, kept test-only: the zone-map hook on every
group first, then each group's vectors.  Over random parts — clustered
(``seq``) and unclustered (``score``) columns, vectors with false
positives, a predicate pushed after part of the data loaded (older groups
store no vector for it), more than 64 row groups, and parts where every
group is skipped — and random WHERE clauses mixing pushed and range
conjuncts, both orders must give

* equal answers;
* the same set of decoded row groups;
* equal ``row_groups_skipped + row_groups_pruned_by_zonemap`` and equal
  ``tuples_skipped + tuples_pruned_by_zonemap``: only the split between
  the two mechanisms moves (zone maps prune less, bit vectors skip more).

Equal decoded sets are what keep the re-cluster credit of
``repro.compact.policy`` unchanged: it counts
``row_groups_scanned - row_groups_pruned``, which is the number of
decoded groups.
"""

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.bitvec.bitvector import intersect_all
from repro.core.predicates import Clause, exact, key_value
from repro.engine import TableEntry, parse_sql, plan_query, run_plan
from repro.engine.batch import ColumnBatch
from repro.engine.operators import SkippingScan
from repro.storage import ParquetLiteWriter, infer_schema
from repro.storage.rowgroup import RowGroupReader

NAMES = ["Ann", "Bob", "Cat"]

#: Pushed predicates.  ``tag = 'x'`` (id 2) is pushed late: a part stores
#: its vector only from a drawn row group on.  No record has the name
#: ``Zed`` (id 3), so without false positives its vectors are all empty.
PUSHED = {
    "name = 'Ann'": (0, lambda r: r["name"] == "Ann"),
    "age = 2": (1, lambda r: r["age"] == 2),
    "tag = 'x'": (2, lambda r: r["tag"] == "x"),
    "name = 'Zed'": (3, lambda r: r["name"] == "Zed"),
}
PUSHDOWN = {
    Clause((exact("name", "Ann"),)): 0,
    Clause((key_value("age", 2),)): 1,
    Clause((exact("tag", "x"),)): 2,
    Clause((exact("name", "Zed"),)): 3,
}
RANGES = [
    "seq >= {k}", "seq < {k}", "seq >= {k} AND seq <= {k2}", "score > {s}",
    "score <= {s}", "age > 1", "tag IS NULL", "tag IS NOT NULL",
    "(seq < {k} OR score > {s})",
]
SELECTS = ["COUNT(*)", "seq, name, score", "SUM(score), MAX(seq)",
           "name, COUNT(*)"]


def zone_first_batches(self, stats):
    """The previous ``SkippingScan.batches``: zone maps on every group,
    then the bit vectors of the groups they leave."""
    stats.used_data_skipping = True
    names = self._columns if self._columns is not None \
        else self._reader.schema.names
    for group in self._reader.row_groups():
        stats.row_groups_total += 1
        if self._prune is not None and self._prune(group.meta):
            stats.row_groups_pruned_by_zonemap += 1
            stats.tuples_pruned_by_zonemap += group.row_count
            continue
        vectors = [group.meta.bitvectors.get(pid) for pid in self._ids]
        if any(bv is None for bv in vectors):
            columns = group.read_batch(self._columns)
            group.clear_cache()
            stats.rows_examined += group.row_count
            yield ColumnBatch.from_columns(columns, group.row_count,
                                           names=names)
            continue
        mask = intersect_all(vectors)
        survivors = mask.count()
        stats.tuples_skipped += group.row_count - survivors
        if not survivors:
            stats.row_groups_skipped += 1
            continue
        columns = group.read_batch(self._columns)
        group.clear_cache()
        stats.rows_examined += survivors
        yield ColumnBatch.from_columns(columns, group.row_count,
                                       names=names, sel=mask)


@st.composite
def parts(draw):
    """(records, group_rows, tag_from_group, fp_rate) for one part."""
    n = draw(st.integers(min_value=1, max_value=160))
    start = draw(st.integers(min_value=0, max_value=500))
    records = [
        {
            "seq": start + i,  # clustered: zone maps prune ranges
            "score": draw(st.integers(min_value=0, max_value=99)),
            "name": draw(st.sampled_from(NAMES)),
            "age": draw(st.integers(min_value=0, max_value=4)),
            "tag": draw(st.sampled_from(["x", "y", None])),
        }
        for i in range(n)
    ]
    group_rows = draw(st.sampled_from([1, 2, 5, 40]))  # 1-2: >64 groups
    groups = -(-n // group_rows)
    tag_from = draw(st.integers(min_value=0, max_value=groups))
    fp_rate = draw(st.sampled_from([0.0, 0.0, 0.3]))
    return records, group_rows, tag_from, fp_rate


def _write_part(path, records, group_rows, tag_from, fp_rate, seed):
    rng = random.Random(seed)
    with ParquetLiteWriter(path, infer_schema(records)) as writer:
        for index, start in enumerate(range(0, len(records), group_rows)):
            rows = records[start:start + group_rows]
            vectors = {}
            for pid, matches in PUSHED.values():
                if pid == 2 and index < tag_from:
                    continue  # pushed after this group loaded
                # Sound: never a false negative.
                vectors[pid] = BitVector.from_bits([
                    matches(r) or rng.random() < fp_rate for r in rows
                ])
            writer.write_row_group(rows, bitvectors=vectors)


@st.composite
def queries(draw):
    pushed = draw(st.lists(st.sampled_from(sorted(PUSHED)), min_size=1,
                           max_size=2, unique=True))
    ranges = [
        draw(st.sampled_from(RANGES)).format(
            k=draw(st.integers(min_value=0, max_value=700)),
            k2=draw(st.integers(min_value=0, max_value=700)),
            s=draw(st.integers(min_value=0, max_value=99)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    conjuncts = draw(st.permutations(pushed + ranges))
    select = draw(st.sampled_from(SELECTS))
    group_by = " GROUP BY name" if select.startswith("name,") else ""
    return (f"SELECT {select} FROM t WHERE {' AND '.join(conjuncts)}"
            f"{group_by}")


def _run(entry, sql):
    """Answer and stats of *sql*, plus the ids of the decoded groups."""
    decoded = []
    read_batch = RowGroupReader.read_batch

    def recording(group, columns=None):
        decoded.append(id(group))
        return read_batch(group, columns)

    with mock.patch.object(RowGroupReader, "read_batch", recording):
        result = run_plan(*plan_query(parse_sql(sql), entry))
    return result, sorted(decoded)


def _part(n, group_rows, tag_from, start=0):
    records = [{"seq": start + i, "score": i % 100, "name": NAMES[i % 3],
                "age": i % 5, "tag": "xy"[i % 2]} for i in range(n)]
    return records, group_rows, tag_from, 0.0


@given(table=st.lists(parts(), min_size=1, max_size=3), sql=queries())
# Every group skipped, in a part of 130 row groups.
@example(table=[_part(130, 1, 0)],
         sql="SELECT COUNT(*) FROM t WHERE name = 'Zed' AND seq < 50")
# A late predicate: groups 0-69 store no vector and are scanned in full
# unless zone maps prune them; groups 70+ skip on the vector.
@example(table=[_part(100, 1, 70), _part(10, 5, 2, start=200)],
         sql="SELECT SUM(score), MAX(seq) FROM t "
             "WHERE tag = 'x' AND seq >= 40")
# Group 0 lacks the late vector and its `age = 2` vector is empty: it is
# scanned in full, as a group missing a queried vector always was.
@example(table=[_part(4, 2, 1)],
         sql="SELECT COUNT(*) FROM t WHERE tag = 'x' AND age = 2")
@settings(max_examples=60, deadline=None)
def test_bits_first_equals_zone_first(table, sql, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bits")
    paths = []
    for index, part in enumerate(table):
        paths.append(workdir / f"p{index}.pql")
        _write_part(paths[-1], *part, seed=index)
    entry = TableEntry(name="t", parquet_paths=paths,
                       pushdown=dict(PUSHDOWN))

    bits, bits_decoded = _run(entry, sql)
    with mock.patch.object(SkippingScan, "batches", zone_first_batches):
        zone, zone_decoded = _run(entry, sql)

    assert bits.plan_info.used_skipping
    assert bits.rows == zone.rows, sql
    assert bits_decoded == zone_decoded, sql
    b, z = bits.stats, zone.stats
    assert b.row_groups_total == z.row_groups_total
    assert b.rows_examined == z.rows_examined
    assert (b.row_groups_skipped + b.row_groups_pruned_by_zonemap
            == z.row_groups_skipped + z.row_groups_pruned_by_zonemap), sql
    assert (b.tuples_skipped + b.tuples_pruned_by_zonemap
            == z.tuples_skipped + z.tuples_pruned_by_zonemap), sql
    assert b.row_groups_pruned_by_zonemap <= z.row_groups_pruned_by_zonemap
