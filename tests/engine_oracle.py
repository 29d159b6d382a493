"""Reference row-at-a-time interpreter over the engine's operator trees.

This is the engine's pre-batch volcano semantics, kept as an *oracle*:
every operator materializes dict rows and evaluates expressions per
tuple, and the skipping scan ANDs each group's vectors itself rather
than through the storage helper the engine uses.  It exists for two
jobs:

* the equivalence property tests assert the batch engine returns
  identical rows (values **and** ordering) to this interpreter across
  the whole SQL surface;
* ``benchmarks/bench_query_engine.py`` measures the batch engine's
  speedup against it — the row path *is* the baseline being optimized
  away, so keeping it runnable keeps the claim honest.

It is not part of the library; plan trees built by
:func:`repro.engine.planner.plan_query` are interpreted structurally.
Import it as ``engine_oracle``: pytest puts this directory on
``sys.path`` for the test suite, and ``benchmarks/conftest.py`` adds it
for the benchmarks.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List

from repro.bitvec.bitvector import intersect_all
from repro.engine.executor import QueryResult
from repro.engine.operators import (
    Aggregate,
    ChainScan,
    ExecutionStats,
    Filter,
    GroupedAggregate,
    Limit,
    Operator,
    ParquetScan,
    Project,
    SidelineScan,
    SkippingScan,
    _AggState,
    _update_state,
)
from repro.engine.planner import PlanInfo, _EmptyScan
from repro.engine.snapcache import SnapshotAggregate
from repro.storage import SidelineView


def iter_rows(op: Operator, stats: ExecutionStats
              ) -> Iterator[Dict[str, Any]]:
    """Row-at-a-time interpretation of *op* (the pre-batch semantics)."""
    if isinstance(op, ParquetScan):
        yield from _scan_parquet(op, stats)
    elif isinstance(op, SkippingScan):
        yield from _scan_skipping(op, stats)
    elif isinstance(op, SidelineScan):
        stats.scanned_sideline = True
        for path, records in op._segments:
            for record in SidelineView(path, records).iter_parsed():
                stats.sideline_records_parsed += 1
                stats.rows_examined += 1
                yield record
    elif isinstance(op, ChainScan):
        for child in op._children:
            yield from iter_rows(child, stats)
    elif isinstance(op, Filter):
        predicate = op._predicate
        for row in iter_rows(op._child, stats):
            if predicate.evaluate(row):
                yield row
    elif isinstance(op, Project):
        columns = op._columns
        for row in iter_rows(op._child, stats):
            yield {name: row.get(name) for name in columns}
    elif isinstance(op, Limit):
        if op._n == 0:
            return
        emitted = 0
        for row in iter_rows(op._child, stats):
            yield row
            emitted += 1
            if emitted >= op._n:
                return
    elif isinstance(op, Aggregate):
        yield _aggregate(op, stats)
    elif isinstance(op, GroupedAggregate):
        yield from _grouped(op, stats)
    elif isinstance(op, SnapshotAggregate):
        # Cold, row at a time: the tree a final view plans, over the
        # same scans; the snapshot cache is neither read nor filled.
        yield from iter_rows(_cold_aggregate(op), stats)
    else:
        # Unknown operator (e.g. _EmptyScan, test doubles): spill its
        # batches.
        for batch in op.batches(stats):
            yield from batch.iter_rows()


def run_plan_rows(plan: Operator, info: PlanInfo) -> QueryResult:
    """Drive a plan with the row interpreter; mirrors ``run_plan``."""
    stats = ExecutionStats()
    start = time.perf_counter()
    rows = list(iter_rows(plan, stats))
    elapsed = time.perf_counter() - start
    stats.rows_emitted = len(rows)
    return QueryResult(
        rows=rows, stats=stats, plan_info=info, wall_seconds=elapsed
    )


def _cold_aggregate(op: SnapshotAggregate) -> Operator:
    scans = [scan for _, scan in op._parts]
    if op._sideline is not None:
        scans.append(op._sideline)
    parsed = op._parsed
    plan: Operator = ChainScan(scans) if scans else _EmptyScan()
    if parsed.where is not None:
        plan = Filter(plan, parsed.where)
    if parsed.group_by:
        return GroupedAggregate(plan, parsed.group_by, parsed.select)
    return Aggregate(plan, parsed.select)


def _scan_parquet(op: ParquetScan, stats: ExecutionStats):
    for group in op._reader.row_groups():
        stats.row_groups_total += 1
        if op._prune is not None and op._prune(group.meta):
            stats.row_groups_pruned_by_zonemap += 1
            stats.tuples_pruned_by_zonemap += group.row_count
            continue
        for row in group.rows(columns=op._columns):
            stats.rows_examined += 1
            yield row
        group.clear_cache()


def _scan_skipping(op: SkippingScan, stats: ExecutionStats):
    stats.used_data_skipping = True
    for group in op.candidates(stats):
        stats.row_groups_total += 1
        indices = None
        if all(pid in group.meta.bitvectors for pid in op._ids):
            mask = intersect_all(
                [group.meta.bitvectors[pid] for pid in op._ids]
            )
            indices = list(mask.iter_set())
            if not indices:
                stats.row_groups_skipped += 1
                stats.tuples_skipped += group.row_count
                continue
        if op._prune is not None and op._prune(group.meta):
            stats.row_groups_pruned_by_zonemap += 1
            stats.tuples_pruned_by_zonemap += group.row_count
            continue
        if indices is not None:
            stats.tuples_skipped += group.row_count - len(indices)
        for row in group.rows(columns=op._columns, indices=indices):
            stats.rows_examined += 1
            yield row
        group.clear_cache()


def _aggregate(op: Aggregate, stats: ExecutionStats) -> Dict[str, Any]:
    states = [_AggState() for _ in op._items]
    for row in iter_rows(op._child, stats):
        for item, state in zip(op._items, states):
            if item.column == "*":
                state.count += 1
                continue
            value = row.get(item.column)
            if value is not None:
                _update_state(state, value)
    result: Dict[str, Any] = {}
    for item, state in zip(op._items, states):
        result[item.label] = Aggregate._finalize(item.aggregate, state)
    return result


def _grouped(op: GroupedAggregate, stats: ExecutionStats):
    groups: Dict[tuple, List[_AggState]] = {}
    order: List[tuple] = []
    agg_items = [i for i in op._items if i.aggregate is not None]
    for row in iter_rows(op._child, stats):
        key = tuple(row.get(c) for c in op._group_columns)
        states = groups.get(key)
        if states is None:
            states = [_AggState() for _ in agg_items]
            groups[key] = states
            order.append(key)
        for item, state in zip(agg_items, states):
            if item.column == "*":
                state.count += 1
                continue
            value = row.get(item.column)
            if value is not None:
                _update_state(state, value)
    for key in order:
        states = groups[key]
        result: Dict[str, Any] = {}
        agg_index = 0
        for item in op._items:
            if item.aggregate is None:
                result[item.label] = key[
                    op._group_columns.index(item.column)
                ]
            else:
                result[item.label] = Aggregate._finalize(
                    item.aggregate, states[agg_index]
                )
                agg_index += 1
        yield result
