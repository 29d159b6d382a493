"""Query execution entry point.

``run_plan`` drives the batch engine: the operator tree exchanges
columnar batches and rows are only materialized once, at the result
boundary.  Every statement runs the same way, the table's prepared plan
through ``run_plan``; the planner decides what the tree holds (for an
aggregate over a mid-load view, a fold of cached per-part partials,
:mod:`repro.engine.snapcache`).

Observability (``repro.obs``) hangs off the :class:`Executor`, not the
operators: per-query counters, spans, and the query-log record are all
folded from :class:`ExecutionStats` (what one run did) and
:class:`PlanInfo` (what the planner decided) *after* the plan runs, so
the batch scan loop itself carries zero instrumentation and the disabled
path stays within the overhead guard asserted by
``benchmarks/bench_query_engine.py``.

A repeated statement pays once for what depends only on its text and
the table view.  The executor keeps the parsed statement per SQL text
(at most :data:`PARSED_SQL_CAP`, oldest dropped first; a text that fails
to parse is never kept), and the table keeps the prepared plan per
SQL text until its view or pushdown map changes
(:meth:`~repro.engine.catalog.TableEntry.prepared`), with the skip
decisions its scans made on their first run.  Results are never kept:
every execution decodes, filters and aggregates the surviving row
groups afresh, and gets a fresh :class:`PlanInfo`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.sanitizer import make_lock
from ..obs.metrics import Metrics, resolve_metrics
from ..obs.querylog import (
    QueryLog,
    QueryLogRecord,
    current_client_id,
    resolve_query_log,
)
from ..obs.tracing import Tracer, resolve_tracer
from .catalog import Catalog
from .operators import ExecutionStats, Operator
from .planner import PlanInfo, plan_query
from .sql import ParsedQuery, parse_sql

#: SQL texts an executor keeps parsed; past it the oldest is dropped.
PARSED_SQL_CAP = 1024


@dataclass
class QueryResult:
    """Rows plus everything the experiments measure about the run."""

    rows: List[Dict[str, Any]]
    stats: ExecutionStats
    plan_info: PlanInfo
    wall_seconds: float

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result (COUNT(*))."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"result is not scalar: {len(self.rows)} rows"
            )
        return next(iter(self.rows[0].values()))


class Executor:
    """Parse → plan → run against a catalog.

    *metrics*, *tracer*, and *query_log* default to the shared no-op
    instances; a deployment that wants observability constructs real
    ones and injects them (``CiaoSession`` does this when asked).
    """

    def __init__(self, catalog: Catalog, *,
                 metrics: Optional[Metrics] = None,
                 tracer: Optional[Tracer] = None,
                 query_log: Optional[QueryLog] = None):
        self.catalog = catalog
        self.tracer = resolve_tracer(tracer)
        self.query_log = resolve_query_log(query_log)
        metrics = resolve_metrics(metrics)
        self.metrics = metrics
        # Instruments are cached once; the per-query path only ever
        # calls inc/observe on them (no-ops on the null registry).
        self._m_queries = metrics.counter("engine.queries")
        self._m_latency = metrics.histogram("engine.query_seconds")
        self._m_rows_emitted = metrics.counter("engine.rows_emitted")
        self._m_rows_examined = metrics.counter("engine.rows_examined")
        self._m_rg_scanned = metrics.counter("scan.row_groups_scanned")
        self._m_rg_skipped = metrics.counter("scan.row_groups_skipped")
        self._m_rg_pruned = metrics.counter("scan.row_groups_pruned")
        self._m_tuples_skipped = metrics.counter("scan.tuples_skipped")
        self._m_cache_hits = metrics.counter("snapcache.hits")
        self._m_cache_misses = metrics.counter("snapcache.misses")
        self._m_side_parsed = metrics.counter("sideline.records_parsed")
        self._m_side_cached = metrics.counter("sideline.records_cached")
        # One flag gates the whole fold, so a fully-disabled executor
        # adds a single attribute check per query over bare run_plan.
        self._observing = (
            metrics.enabled or self.query_log.enabled or self.tracer.enabled
        )
        self._parsed_lock = make_lock("Executor._parsed_lock")
        #: Parsed statements by SQL text, oldest first.
        self._parsed: Dict[str, ParsedQuery] = {}  # guarded-by: _parsed_lock

    def execute(self, sql: str) -> QueryResult:
        """Run one SQL statement."""
        # A lookup takes no lock: a dict read is atomic and an entry,
        # once kept, never changes.
        parsed = self._parsed.get(sql)
        if parsed is None:
            parsed = parse_sql(sql)
            with self._parsed_lock:
                if len(self._parsed) >= PARSED_SQL_CAP:
                    del self._parsed[next(iter(self._parsed))]
                self._parsed[sql] = parsed
        return self.execute_parsed(parsed, sql=sql)

    def execute_parsed(self, parsed: ParsedQuery, sql: str) -> QueryResult:
        """Run *parsed*, the statement the SQL text *sql* parses to.

        Runs the table's prepared plan for *sql*
        (:meth:`~repro.engine.catalog.TableEntry.prepared`), planning it
        on a miss, with a fresh :class:`PlanInfo` copy.
        """
        table = self.catalog.lookup(parsed.table)
        if not self._observing:
            return self._run(parsed, table, sql)
        with self.tracer.trace("engine.query",
                               attrs={"table": parsed.table}):
            result = self._run(parsed, table, sql)
            self._observe(parsed, result, sql)
        return result

    def _run(self, parsed: ParsedQuery, table, sql: str) -> QueryResult:
        plan, info = table.prepared(sql, parsed, self._plan)
        with self.tracer.trace("engine.scan"):
            return run_plan(plan, info.copy())

    def _plan(self, parsed: ParsedQuery,
              table) -> Tuple[Operator, PlanInfo]:
        """Plan *parsed* cold (a table calls this on a prepared-plan
        miss)."""
        with self.tracer.trace("engine.plan"):
            return plan_query(parsed, table)

    # ------------------------------------------------------------------
    def _observe(self, parsed: ParsedQuery, result: QueryResult,
                 sql: str) -> None:
        """Fold one finished query into metrics and the query log."""
        stats = result.stats
        self._m_queries.inc()
        self._m_latency.observe(result.wall_seconds)
        self._m_rows_emitted.inc(stats.rows_emitted)
        self._m_rows_examined.inc(stats.rows_examined)
        scanned = max(
            0, stats.row_groups_total - stats.row_groups_skipped
        )
        self._m_rg_scanned.inc(scanned)
        self._m_rg_skipped.inc(stats.row_groups_skipped)
        self._m_rg_pruned.inc(stats.row_groups_pruned_by_zonemap)
        self._m_tuples_skipped.inc(
            stats.tuples_skipped + stats.tuples_pruned_by_zonemap
        )
        self._m_cache_hits.inc(stats.snapshot_cache_hits)
        self._m_cache_misses.inc(stats.snapshot_cache_misses)
        self._m_side_parsed.inc(stats.sideline_records_parsed)
        self._m_side_cached.inc(stats.sideline_records_cached)
        if not self.query_log.enabled:
            return
        from .snapcache import query_fingerprint
        predicate_columns = (
            tuple(sorted(parsed.where.columns()))
            if parsed.where is not None else ()
        )
        skipped = stats.tuples_skipped + stats.tuples_pruned_by_zonemap
        candidates = stats.rows_examined + skipped
        selectivity = (
            stats.rows_examined / candidates if candidates > 0 else 1.0
        )
        if stats.snapshot_cache_hits and stats.snapshot_cache_misses:
            cache_outcome = "mixed"
        elif stats.snapshot_cache_hits:
            cache_outcome = "hit"
        elif stats.snapshot_cache_misses:
            cache_outcome = "miss"
        else:
            cache_outcome = "none"
        current = self.tracer.current()
        self.query_log.append(QueryLogRecord(
            fingerprint=query_fingerprint(parsed),
            table=parsed.table,
            sql=sql,
            predicate_columns=predicate_columns,
            selectivity=selectivity,
            rows_examined=stats.rows_examined,
            rows_emitted=stats.rows_emitted,
            row_groups_scanned=scanned,
            row_groups_skipped=stats.row_groups_skipped,
            row_groups_pruned=stats.row_groups_pruned_by_zonemap,
            tuples_skipped=skipped,
            snapshot_cache=cache_outcome,
            sideline_records_parsed=stats.sideline_records_parsed,
            sideline_records_cached=stats.sideline_records_cached,
            wall_seconds=result.wall_seconds,
            client_id=current_client_id(),
            trace_id=current.trace_id if current is not None else None,
        ))


def run_plan(plan: Operator, info: PlanInfo) -> QueryResult:
    """Drive an operator tree to completion (batch execution)."""
    stats = ExecutionStats()
    start = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    for batch in plan.batches(stats):
        if batch.row_backed:
            # Sideline rows and their values are the table cache's parsed
            # records: callers get copies, so mutating a result can never
            # change a later answer.
            rows.extend(map(_detach, batch.iter_rows()))
        else:
            rows.extend(batch.iter_rows())
    elapsed = time.perf_counter() - start
    stats.rows_emitted = len(rows)
    return QueryResult(
        rows=rows, stats=stats, plan_info=info, wall_seconds=elapsed
    )


def _detach(row: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of *row* sharing no mutable value with it."""
    return {key: copy.deepcopy(value) if isinstance(value, (dict, list))
            else value for key, value in row.items()}
