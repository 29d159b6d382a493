"""Batch-vectorized operators over columnar batches.

The operator set covers the paper's query template (scan → filter →
COUNT(*)) plus projections, general aggregates, and LIMIT so the examples
can run realistic analytics.  The CIAO-specific operator is
:class:`SkippingScan`: it resolves the query's pushed-down predicate ids to
per-row-group bit-vectors, ANDs them (§VI-B), skips whole row groups whose
intersection is empty (most of them from a per-part summary, without
visiting them), and keeps the surviving mask as the batch's selection
vector — no per-row index list is ever materialized.

Execution is columnar: operators exchange
:class:`~repro.engine.batch.ColumnBatch` objects (decoded column lists +
a word-level ``BitVector`` selection vector) through :meth:`Operator.
batches`.  Scans decode each row group's pages exactly once
(``RowGroupReader.read_batch``); filters narrow the selection with
``Expr.evaluate_batch`` + ``intersect_update``; aggregates consume batches
directly, so a COUNT(*)-only plan is selection-vector popcounts all the
way down and never materializes a row dict.  Decoded pages stay cached
in the part's row-group readers while the part is in the table's view,
so a page is decoded once however many queries read it; sideline
columns likewise come once from the table's
:class:`~repro.engine.catalog.SidelineCache`.  Aggregates fold each
batch's selected values with builtins (:func:`fold_values`) where the
values' exact type set allows it.  Batches are the only
execution surface: rows exist only where a caller spills a batch with
:meth:`~repro.engine.batch.ColumnBatch.iter_rows` (the executor's result
boundary).

Every operator reports into a shared :class:`ExecutionStats`, which is how
the experiment harness measures tuples skipped, groups skipped, and
sideline parsing.

A table re-runs one tree for every execution of a statement (its
prepared plan, :meth:`~repro.engine.catalog.TableEntry.prepared`), so
operators keep no per-run state; the scans keep only the skip decisions
they made about their immutable part on the first run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, compress
from operator import add
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple,
)

from ..bitvec.bitvector import BitVector, set_bits
from ..storage.columnar import ParquetLiteReader
from ..storage.rowgroup import RowGroupReader
from .batch import ColumnBatch
from .catalog import SidelineCache
from .expressions import Expr


def _close_source(source) -> None:
    """Close a child batch iterator if it supports it (generators do);
    closing propagates LIMIT satisfaction down into the scans."""
    close = getattr(source, "close", None)
    if close is not None:
        close()

#: Sideline lines per batch (each parsed unless already cached).  Large
#: enough to amortize per-batch overhead, small enough that LIMIT over a
#: sideline stops parsing early.
SIDELINE_BATCH_ROWS = 2048


@dataclass
class ExecutionStats:
    """Counters accumulated during one query execution."""

    rows_examined: int = 0
    rows_emitted: int = 0
    row_groups_total: int = 0
    row_groups_skipped: int = 0
    row_groups_pruned_by_zonemap: int = 0
    tuples_skipped: int = 0
    tuples_pruned_by_zonemap: int = 0
    #: Sideline records parsed by this query, and those it took already
    #: parsed from the table's sideline cache.
    sideline_records_parsed: int = 0
    sideline_records_cached: int = 0
    #: Parts a live aggregate took from the snapshot cache, and those it
    #: folded afresh (:class:`~repro.engine.snapcache.SnapshotAggregate`).
    snapshot_cache_hits: int = 0
    snapshot_cache_misses: int = 0
    used_data_skipping: bool = False
    scanned_sideline: bool = False


class Operator(ABC):
    """A plan node producing columnar batches."""

    @abstractmethod
    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        """Yield columnar batches, accounting into *stats*."""

    def describe(self) -> str:
        """One-line plan description."""
        raise NotImplementedError


class ParquetScan(Operator):
    """Full scan of a Parquet-lite file, optionally projected.

    ``prune`` is the zone-map hook: a callable deciding from row-group
    metadata (min/max/null statistics) that a group cannot contain
    qualifying rows and may be skipped without decoding anything.  A
    part never changes, so each group's verdict is asked once, on the
    first run that reaches the group, and kept with the scan.
    """

    def __init__(self, reader: ParquetLiteReader,
                 columns: Optional[Sequence[str]] = None,
                 prune: Optional[Callable] = None):
        self._reader = reader
        self._columns = list(columns) if columns is not None else None
        self._prune = prune
        #: Zone-map verdict per row group, ``None`` until asked.  Runs
        #: racing to fill a slot write the same value.
        self._pruned: Optional[List[Optional[bool]]] = (
            [None] * len(reader) if prune is not None else None
        )

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        names = self._columns if self._columns is not None \
            else self._reader.schema.names
        verdicts = self._pruned
        for index, group in enumerate(self._reader.row_groups()):
            stats.row_groups_total += 1
            if verdicts is not None:
                pruned = verdicts[index]
                if pruned is None:
                    pruned = verdicts[index] = bool(self._prune(group.meta))
                if pruned:
                    stats.row_groups_pruned_by_zonemap += 1
                    stats.tuples_pruned_by_zonemap += group.row_count
                    continue
            columns = group.read_batch(self._columns)
            stats.rows_examined += group.row_count
            yield ColumnBatch.from_columns(columns, group.row_count,
                                           names=names)

    def describe(self) -> str:
        cols = ", ".join(self._columns) if self._columns else "*"
        zone = ", zonemap" if self._prune is not None else ""
        return f"ParquetScan({self._reader.path.name}, columns=[{cols}]{zone})"


class SkippingScan(Operator):
    """Bit-vector data-skipping scan (paper §VI-B).

    Skipping is decided per part before any row group is visited: the
    reader summarizes each predicate id's vectors as ints with one bit per
    row group, the scan combines its ids' summaries into the groups it
    must visit
    (:meth:`~repro.storage.columnar.ParquetLiteReader.candidate_groups`),
    and every other group is counted as skipped in bulk, with no
    per-group work.  Each candidate group then:

    * if a predicate id has no stored vector in this group (it was pushed
      after this data was loaded), falls back to scanning the group
      fully unless zone maps prune it — soundness first;
    * ANDs its vectors
      (:meth:`~repro.storage.metadata.RowGroupMeta.survivor_mask`) and
      skips the group, still undecoded, if the intersection is empty;
    * asks the zone-map hook only now, on a bit-vector survivor (a
      :class:`ParquetScan`, with no vectors, asks it about every group);
    * otherwise keeps a copy of the surviving mask *as the batch's
      selection vector*: survivor counting is a popcount and no index
      list is built.

    A part never changes, so these decisions are made once: the
    candidate groups on the first run, and each group's mask, survivor
    count and zone-map verdict on the first run that reaches it.  Later
    runs (a prepared plan re-run) replay them and only account, decode
    and yield.
    """

    def __init__(self, reader: ParquetLiteReader,
                 predicate_ids: Sequence[int],
                 columns: Optional[Sequence[str]] = None,
                 prune: Optional[Callable] = None):
        if not predicate_ids:
            raise ValueError("SkippingScan needs at least one predicate id")
        self._reader = reader
        self._ids = list(predicate_ids)
        self._columns = list(columns) if columns is not None else None
        self._prune = prune
        #: ``(candidate groups, their decisions, groups skipped in bulk,
        #: tuples skipped in bulk)``, made on the first run.  A decision
        #: is ``None`` until made; runs racing to make one make the same.
        self._part: Optional[Tuple[Tuple[RowGroupReader, ...],
                                   List[Optional[tuple]], int, int]] = None

    def candidates(self, stats: ExecutionStats
                   ) -> Tuple[RowGroupReader, ...]:
        """The row groups the bit vectors cannot rule out, in file order;
        the rest are counted into *stats* as skipped, in bulk."""
        part = self._part
        if part is None:
            reader = self._reader
            groups = tuple(reader.row_group(index) for index in
                           set_bits(reader.candidate_groups(self._ids)))
            part = self._part = (
                groups, [None] * len(groups), len(reader) - len(groups),
                reader.total_rows - sum(group.row_count for group in groups),
            )
        groups, _, skipped, tuples = part
        stats.row_groups_total += skipped
        stats.row_groups_skipped += skipped
        stats.tuples_skipped += tuples
        return groups

    def _decide(self, group: RowGroupReader) -> tuple:
        """``(mask, survivors, pruned)`` for a candidate *group*: its
        survivor mask (``None`` when a vector is missing), how many rows
        survive, and whether zone maps prune a group with survivors."""
        mask = group.meta.survivor_mask(self._ids)
        survivors = group.row_count if mask is None else mask.count()
        if mask is not None and not survivors:
            return mask, 0, False
        pruned = self._prune is not None and bool(self._prune(group.meta))
        return mask, survivors, pruned

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        stats.used_data_skipping = True
        names = self._columns if self._columns is not None \
            else self._reader.schema.names
        groups = self.candidates(stats)
        decisions = self._part[1]
        for index, group in enumerate(groups):
            stats.row_groups_total += 1
            decision = decisions[index]
            if decision is None:
                decision = decisions[index] = self._decide(group)
            mask, survivors, pruned = decision
            if mask is not None and not survivors:
                stats.row_groups_skipped += 1
                stats.tuples_skipped += group.row_count
                continue
            if pruned:
                stats.row_groups_pruned_by_zonemap += 1
                stats.tuples_pruned_by_zonemap += group.row_count
                continue
            columns = group.read_batch(self._columns)
            if mask is None:
                stats.rows_examined += group.row_count
                yield ColumnBatch.from_columns(columns, group.row_count,
                                               names=names)
                continue
            stats.tuples_skipped += group.row_count - survivors
            stats.rows_examined += survivors
            # Filter narrows a batch's selection in place: the kept mask
            # must not be it.
            yield ColumnBatch.from_columns(columns, group.row_count,
                                           names=names, sel=mask.copy())

    def describe(self) -> str:
        return (
            f"SkippingScan({self._reader.path.name}, "
            f"predicates={self._ids})"
        )


class SidelineScan(Operator):
    """Parse-once scan of a table's raw JSON sideline segments.

    *segments* are ``(path, records)`` file prefixes in scan order — the
    table's own store, then one per shard on a sharded server, in both
    states: finalize is the last publication, and shard sidelines stay
    where they were written.  Each
    segment is read through the table's :class:`SidelineCache`: the
    cached parsed prefix comes back without parsing and only the lines
    past it are parsed just in time, so a sideline line is parsed by the
    first query that reaches it and later queries parse only the delta.
    Without a table cache the scan gets a private one and parses
    everything.  Records are grouped into row-backed batches, so their
    ragged key sets survive materialization untouched; a batch's columns
    come from the cache (:meth:`SidelineCache.window_column`), pulled
    from the records once for all queries.
    """

    def __init__(self, segments: Sequence[Tuple[Path, int]],
                 cache: Optional[SidelineCache] = None):
        self._segments = [(Path(path), records)
                          for path, records in segments]
        self._cache = cache if cache is not None else SidelineCache()

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        stats.scanned_sideline = True
        cache = self._cache
        for path, limit in self._segments:
            start = 0
            while start < limit:
                window = cache.window(
                    path, start, min(limit, start + SIDELINE_BATCH_ROWS)
                )
                if not window.lines:
                    break
                start += window.lines
                records = window.records
                stats.sideline_records_parsed += window.parsed
                stats.sideline_records_cached += len(records) - window.parsed
                stats.rows_examined += len(records)
                if records:
                    yield ColumnBatch.from_rows(
                        records, pull=partial(cache.window_column, window)
                    )

    def describe(self) -> str:
        names = ", ".join(path.name for path, _ in self._segments)
        return f"SidelineScan({names})"


class ChainScan(Operator):
    """Concatenate child scans (Parquet files + sideline)."""

    def __init__(self, children: Sequence[Operator]):
        if not children:
            raise ValueError("ChainScan needs at least one child")
        self._children = list(children)

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        for child in self._children:
            yield from child.batches(stats)

    def describe(self) -> str:
        return " + ".join(child.describe() for child in self._children)


class Filter(Operator):
    """Residual predicate evaluation.

    Always present above CIAO scans: bit-vectors admit false positives, so
    every surviving tuple re-checks the full WHERE expression (§IV-B) —
    as one vectorized ``evaluate_batch`` mask ANDed into the selection
    vector, not a Python-level row loop.
    """

    def __init__(self, child: Operator, predicate: Expr):
        self._child = child
        self._predicate = predicate

    #: Selection density (1/N of the batch) below which the residual
    #: predicate re-checks survivors row-by-row instead of vectorizing
    #: over the whole batch.  Vectorized evaluation costs ~tens of ns per
    #: row, per-row AST walks ~1 µs per survivor, so the survivor path
    #: wins once pushdown masks leave fewer than ~1/16 of a group alive
    #: (the paper's high-selectivity headline case).
    SPARSE_SELECTION_DIVISOR = 16

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        predicate = self._predicate
        source = self._child.batches(stats)
        try:
            for batch in source:
                selected = batch.selected_count()
                if not selected:
                    continue
                if selected * self.SPARSE_SELECTION_DIVISOR \
                        <= batch.num_rows:
                    # Sparse pushdown survivors: evaluate only them, like
                    # the pre-batch engine's survivor loop.
                    view = batch.row_view()
                    keep = []
                    for index in batch.sel.iter_set():
                        view.index = index
                        if predicate.evaluate(view):
                            keep.append(index)
                    if not keep:
                        continue
                    batch.sel = BitVector.from_indices(batch.num_rows,
                                                       keep)
                    yield batch
                    continue
                batch.apply_mask(predicate.evaluate_batch(batch))
                if batch.sel.any():
                    yield batch
        finally:
            _close_source(source)

    def describe(self) -> str:
        return f"Filter({self._predicate.sql()}) <- {self._child.describe()}"


class Project(Operator):
    """Column projection (zero-copy: batches share column storage)."""

    def __init__(self, child: Operator, columns: Sequence[str]):
        if not columns:
            raise ValueError("projections need at least one column")
        self._child = child
        self._columns = list(columns)

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        columns = self._columns
        source = self._child.batches(stats)
        try:
            for batch in source:
                yield batch.project(columns)
        finally:
            _close_source(source)

    def describe(self) -> str:
        return (
            f"Project({', '.join(self._columns)}) <- "
            f"{self._child.describe()}"
        )


class Limit(Operator):
    """Stop after *n* selected rows.

    Closing the child generator chain on satisfaction propagates all the
    way into the scans (``ChainScan``/``Filter``/``Project`` forward the
    close), so remaining row groups are never decoded.
    """

    def __init__(self, child: Operator, n: int):
        if n < 0:
            raise ValueError("LIMIT must be non-negative")
        self._child = child
        self._n = n

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        if self._n == 0:
            return
        remaining = self._n
        source = self._child.batches(stats)
        try:
            for batch in source:
                selected = batch.selected_count()
                if selected < remaining:
                    remaining -= selected
                    yield batch
                    continue
                yield batch.truncate_selected(remaining)
                return
        finally:
            _close_source(source)

    def describe(self) -> str:
        return f"Limit({self._n}) <- {self._child.describe()}"


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class _AggState:
    count: int = 0
    total: float = 0.0
    minimum: Any = None
    maximum: Any = None


def _update_state(state: _AggState, value: Any) -> None:
    """Fold one non-null value into an aggregate state (SQL null rules
    are applied by the caller: nulls never reach here)."""
    state.count += 1
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        state.total += value
    if state.minimum is None or value < state.minimum:
        state.minimum = value
    if state.maximum is None or value > state.maximum:
        state.maximum = value


#: Exact value types :func:`fold_values` folds with builtins.
_NUMBER_TYPES = frozenset({int, float})

_NONE_TYPE = type(None)


def fold_values(state: _AggState, values: List[Any]) -> None:
    """Fold *values* into *state*, skipping nulls: the same state, bit
    for bit, as :func:`_update_state` over each non-null value in order.

    The fold is picked by the values' exact type set, the way
    :func:`~repro.storage.schema.coerce_column` picks a coercion.  Plain
    ints and floats take builtins: the total is one sequential
    ``reduce(add, ...)`` from the running total (``sum`` would add big
    ints exactly and, from Python 3.12, compensate float sums), and
    ``min``/``max`` start from the running extreme, keeping the first
    of equal values as the strict comparisons of the per-value fold do.
    Any other type set (bools, strings, containers, subclasses) takes
    :func:`_update_state` per value, so every answer and error stays.
    """
    kinds = set(map(type, values))
    if _NONE_TYPE in kinds:
        kinds.discard(_NONE_TYPE)
        values = [value for value in values if value is not None]
    if not values:
        return
    if not kinds <= _NUMBER_TYPES:
        for value in values:
            _update_state(state, value)
        return
    state.count += len(values)
    state.total = reduce(add, values, state.total)
    if state.minimum is None:
        state.minimum, state.maximum = min(values), max(values)
    else:
        state.minimum = min(chain((state.minimum,), values))
        state.maximum = max(chain((state.maximum,), values))


def merge_states(into: _AggState, other: _AggState) -> None:
    """Fold a partial aggregate into an accumulator (cache merges)."""
    into.count += other.count
    into.total += other.total
    if other.minimum is not None and (
            into.minimum is None or other.minimum < into.minimum):
        into.minimum = other.minimum
    if other.maximum is not None and (
            into.maximum is None or other.maximum > into.maximum):
        into.maximum = other.maximum


def accumulate_simple(items: Sequence, batches: Iterator[ColumnBatch]
                      ) -> List[_AggState]:
    """Fold *batches* into one aggregate state per select item.

    COUNT(*) items are pure selection-vector popcounts; per-column items
    fold the column's selected values (:func:`fold_values`).  This is
    shared by :class:`Aggregate` and the incremental snapshot cache's
    per-part partials.
    """
    states = [_AggState() for _ in items]
    for batch in batches:
        full = batch.sel.all()
        flags: Optional[bytes] = None  # shared across items
        for item, state in zip(items, states):
            if item.column == "*":
                state.count += batch.num_rows if full \
                    else batch.selected_count()
                continue
            values = batch.column(item.column)
            if not full:
                if flags is None:
                    flags = batch.sel.to_flags()
                values = list(compress(values, flags))
            fold_values(state, values)
    return states


def accumulate_grouped(group_columns: Sequence[str], agg_items: Sequence,
                       batches: Iterator[ColumnBatch]):
    """Fold *batches* into per-group aggregate states.

    Returns ``(order, groups)`` where *order* lists key tuples in first
    appearance order (the engine's deterministic output order) and
    *groups* maps each key to one state per aggregate item.  When every
    item is COUNT(*), a batch's selected keys are counted by one
    ``Counter``, merged in its first-appearance order; other items fold
    value by value.
    """
    groups: Dict[tuple, List[_AggState]] = {}
    order: List[tuple] = []
    count_only = all(item.column == "*" for item in agg_items)
    for batch in batches:
        key_columns = [batch.column(c) for c in group_columns]
        if count_only:
            # One key column is counted by value, not by 1-tuple: the
            # same groups in the same order, with no tuple per row.
            single = len(key_columns) == 1
            keys: Iterable = key_columns[0] if single else zip(*key_columns)
            if not batch.sel.all():
                keys = compress(keys, batch.sel.to_flags())
            for key, n in Counter(keys).items():
                if single:
                    key = (key,)
                states = groups.get(key)
                if states is None:
                    states = [_AggState() for _ in agg_items]
                    groups[key] = states
                    order.append(key)
                for state in states:
                    state.count += n
            continue
        value_columns = [
            batch.column(item.column) if item.column != "*" else None
            for item in agg_items
        ]
        positions = range(batch.num_rows) if batch.sel.all() \
            else batch.sel.iter_set()
        for index in positions:
            key = tuple(column[index] for column in key_columns)
            states = groups.get(key)
            if states is None:
                states = [_AggState() for _ in agg_items]
                groups[key] = states
                order.append(key)
            for state, values in zip(states, value_columns):
                if values is None:  # COUNT(*)
                    state.count += 1
                    continue
                value = values[index]
                if value is not None:
                    _update_state(state, value)
    return order, groups


class Aggregate(Operator):
    """COUNT/SUM/AVG/MIN/MAX over the child's rows (single output row).

    Null handling follows SQL: only COUNT(*) counts null-valued rows;
    per-column aggregates ignore nulls.  A COUNT(*)-only plan reduces to
    selection-vector popcounts and never touches a value list.
    """

    def __init__(self, child: Operator, items: Sequence):
        from .sql import SelectItem  # local to avoid cycle at import time

        self._child = child
        self._items: List[SelectItem] = list(items)
        for item in self._items:
            if item.aggregate is None:
                raise ValueError(
                    "Aggregate received a non-aggregate select item; "
                    "grouping is not supported"
                )

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        states = accumulate_simple(self._items, self._child.batches(stats))
        result: Dict[str, Any] = {}
        for item, state in zip(self._items, states):
            result[item.label] = self._finalize(item.aggregate, state)
        yield ColumnBatch.from_rows([result])

    @staticmethod
    def _finalize(aggregate: str, state: _AggState) -> Any:
        if aggregate == "COUNT":
            return state.count
        if aggregate == "SUM":
            return state.total if state.count else None
        if aggregate == "AVG":
            return state.total / state.count if state.count else None
        if aggregate == "MIN":
            return state.minimum
        if aggregate == "MAX":
            return state.maximum
        raise ValueError(f"unknown aggregate {aggregate}")

    def describe(self) -> str:
        labels = ", ".join(item.label for item in self._items)
        return f"Aggregate({labels}) <- {self._child.describe()}"


class GroupedAggregate(Operator):
    """GROUP BY aggregation: one output row per distinct key tuple.

    Select items must be either aggregates or bare group-by columns (the
    planner enforces this).  Output order is first-appearance order of
    each group, which keeps results deterministic for tests.
    """

    def __init__(self, child: Operator, group_columns: Sequence[str],
                 items: Sequence):
        if not group_columns:
            raise ValueError("GroupedAggregate needs group columns")
        self._child = child
        self._group_columns = list(group_columns)
        self._items = list(items)
        for item in self._items:
            if item.aggregate is None and \
                    item.column not in self._group_columns:
                raise ValueError(
                    f"column {item.column!r} is neither aggregated nor "
                    f"grouped"
                )

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        agg_items = [i for i in self._items if i.aggregate is not None]
        order, groups = accumulate_grouped(
            self._group_columns, agg_items, self._child.batches(stats)
        )
        rows = finalize_grouped(self._items, self._group_columns,
                                order, groups)
        if rows:
            yield ColumnBatch.from_rows(rows)

    def describe(self) -> str:
        labels = ", ".join(item.label for item in self._items)
        keys = ", ".join(self._group_columns)
        return (
            f"GroupedAggregate([{keys}] -> {labels}) <- "
            f"{self._child.describe()}"
        )


def finalize_grouped(items: Sequence, group_columns: Sequence[str],
                     order: List[tuple],
                     groups: Dict[tuple, List[_AggState]]
                     ) -> List[Dict[str, Any]]:
    """Render grouped aggregate states into output rows (shared with the
    snapshot cache's merge path)."""
    rows: List[Dict[str, Any]] = []
    for key in order:
        states = groups[key]
        result: Dict[str, Any] = {}
        agg_index = 0
        for item in items:
            if item.aggregate is None:
                result[item.label] = key[group_columns.index(item.column)]
            else:
                result[item.label] = Aggregate._finalize(
                    item.aggregate, states[agg_index]
                )
                agg_index += 1
        rows.append(result)
    return rows
