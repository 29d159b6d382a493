"""Query planning: when and how to use CIAO's bit-vector skipping.

The decision procedure (paper §VI-B):

1. Extract the query's top-level conjuncts and convert each supported one
   into a :class:`~repro.core.predicates.Clause`.
2. Look the clauses up in the table's pushdown map.  Every match yields a
   predicate id.
3. If at least one conjunct matched, scan **only the Parquet-lite files**,
   with a :class:`SkippingScan` over the matched ids — the sideline cannot
   contain qualifying tuples, because a sidelined record is invalid for
   every pushed predicate, in particular the matched one.
4. Otherwise scan Parquet-lite *and* the sideline (just-in-time parsing).
5. In all cases the full WHERE expression is re-applied above the scan
   (false positives; and the bit-vector only covers matched conjuncts).

Additionally every Parquet-lite scan carries a **zone-map pruning hook**
(:mod:`repro.engine.zonemaps`): row groups whose min/max statistics prove
the WHERE clause unsatisfiable are skipped without decoding — this covers
range and inequality predicates that CIAO cannot push to clients.  A
:class:`ParquetScan` asks the hook about every row group; a pushed query's
:class:`SkippingScan` asks it only about the bit-vector survivors (groups
whose intersection is non-empty, or that lack a vector), since the
vectors rule most groups out first at no per-group cost.

:func:`plan_query` decides steps 2–4 and the zone-map hook, then puts
the residual filter, projection and LIMIT above one chain of the scans.
An aggregate over a live (mid-load) view folds the same scans one part
at a time instead, through
:class:`~repro.engine.snapcache.SnapshotAggregate`, which keeps each
sealed part's partial aggregate across snapshots; LIMIT goes above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .catalog import TableEntry
from .expressions import Expr, conjuncts, to_clause
from .operators import (
    Aggregate,
    ChainScan,
    Filter,
    GroupedAggregate,
    Limit,
    Operator,
    ParquetScan,
    Project,
    SidelineScan,
    SkippingScan,
)
from .sql import ParsedQuery
from .zonemaps import expr_prunes_group


@dataclass
class PlanInfo:
    """What the planner decided, for reporting and tests."""

    matched_predicate_ids: List[int] = field(default_factory=list)
    used_skipping: bool = False
    uses_zonemaps: bool = False
    scans_sideline: bool = False
    description: str = ""

    def copy(self) -> "PlanInfo":
        """A copy sharing no mutable value with this one."""
        return replace(self,
                       matched_predicate_ids=list(self.matched_predicate_ids))


class PlannerError(ValueError):
    """Query shape the engine cannot plan."""


def zone_prune_hook(where: Optional[Expr]) -> Optional[Callable]:
    """The zone-map pruning callable for a WHERE clause (None when the
    query has no predicate to prune against)."""
    if where is None:
        return None

    def prune(meta, _where=where):
        return expr_prunes_group(_where, meta)

    return prune


def plan_query(parsed: ParsedQuery, table: TableEntry
               ) -> Tuple[Operator, PlanInfo]:
    """Build the operator tree for *parsed* against *table* (steps 2–5
    above); raises :class:`PlannerError` for select shapes the engine
    cannot run."""
    _check_select(parsed)
    ids = match_pushdown(parsed.where, table)
    columns = scan_columns_for(parsed)
    prune = zone_prune_hook(parsed.where)
    info = PlanInfo(matched_predicate_ids=ids, used_skipping=bool(ids),
                    uses_zonemaps=prune is not None)
    parts: List[Tuple[str, Operator]] = [
        (str(reader.path),
         SkippingScan(reader, ids, columns=columns, prune=prune)
         if ids else ParquetScan(reader, columns=columns, prune=prune))
        for reader in table.open_readers()
    ]
    sideline: Optional[Operator] = None
    if not ids and table.has_sideline:
        info.scans_sideline = True
        sideline = SidelineScan(table.sidelines, table.sideline_cache)
    if table.live and parsed.is_aggregate:
        # deferred: a process that never queries mid-load never
        # compiles the snapshot cache
        from .snapcache import SnapshotAggregate
        plan: Operator = SnapshotAggregate(parsed, parts, sideline,
                                           table.snapshot_cache)
    else:
        scans = [scan for _, scan in parts]
        if sideline is not None:
            scans.append(sideline)
        if not scans:
            scans.append(_EmptyScan())
        plan = scans[0] if len(scans) == 1 else ChainScan(scans)
        if parsed.where is not None:
            plan = Filter(plan, parsed.where)
        plan = _projection(plan, parsed)
    if parsed.limit is not None:
        plan = Limit(plan, parsed.limit)
    info.description = plan.describe()
    return plan, info


def match_pushdown(where: Optional[Expr], table: TableEntry) -> List[int]:
    """Predicate ids for the query's pushed-down conjuncts."""
    if where is None or not table.pushdown:
        return []
    ids: List[int] = []
    for conjunct in conjuncts(where):
        clause = to_clause(conjunct)
        if clause is None:
            continue
        pid = table.pushed_id(clause)
        if pid is not None:
            ids.append(pid)
    return sorted(set(ids))


def scan_columns_for(parsed: ParsedQuery) -> Optional[Sequence[str]]:
    """Columns the scan must decode, or None for SELECT * shapes.

    COUNT(*)-only queries still need the WHERE columns; projection pushdown
    is what makes columnar scans cheap.
    """
    needed = set(parsed.group_by)
    for item in parsed.select:
        if item.column == "*":
            if item.aggregate is None:
                return None  # SELECT *: all columns
            continue  # COUNT(*): no data column needed
        needed.add(item.column)
    if parsed.where is not None:
        needed |= parsed.where.columns()
    return sorted(needed) if needed else []


def _check_select(parsed: ParsedQuery) -> None:
    """Reject select lists that mix bare columns into an aggregate."""
    if parsed.group_by:
        bad = [
            item.column for item in parsed.select
            if item.aggregate is None and item.column not in parsed.group_by
        ]
        if bad:
            raise PlannerError(
                f"columns {bad} appear in SELECT but are neither "
                f"aggregated nor in GROUP BY"
            )
    elif parsed.is_aggregate and any(
            item.aggregate is None for item in parsed.select):
        raise PlannerError(
            "mixing aggregates and bare columns requires GROUP BY"
        )


def _projection(plan: Operator, parsed: ParsedQuery) -> Operator:
    if parsed.group_by:
        return GroupedAggregate(plan, parsed.group_by, parsed.select)
    if parsed.is_aggregate:
        return Aggregate(plan, parsed.select)
    if len(parsed.select) == 1 and parsed.select[0].column == "*":
        return plan
    return Project(plan, [item.column for item in parsed.select])


class _EmptyScan(Operator):
    """Zero-row scan for empty tables."""

    def batches(self, stats):
        return iter(())

    def describe(self) -> str:
        return "EmptyScan"
