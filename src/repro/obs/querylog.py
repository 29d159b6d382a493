"""The query log: one structured record per executed query.

This is the workload history the ROADMAP's adaptive-layout work feeds
on — which predicate columns are hot, how selective they are, how much
data skipping actually saved.  The :class:`~repro.engine.executor.
Executor` appends one :class:`QueryLogRecord` per query (fingerprint,
predicate columns, selectivity, rows/row-groups scanned vs. skipped,
snapshot-cache outcome, latency, client id) and ``CiaoSession.
query_log()`` drains it.

Client attribution crosses the service boundary via a context variable:
the service wraps query execution in :func:`client_scope`, and the
executor — several frames down, with no client parameter — reads
:func:`current_client_id`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from ..analysis.sanitizer import make_lock

DEFAULT_QUERY_LOG_CAPACITY = 4096

#: Who is asking, when the executor has no client parameter in scope.
_CLIENT_ID: ContextVar[str] = ContextVar(
    "repro_obs_client_id", default="local"
)


@contextmanager
def client_scope(client_id: str) -> Iterator[None]:
    """Attribute queries executed inside this block to *client_id*."""
    token = _CLIENT_ID.set(client_id)
    try:
        yield
    finally:
        _CLIENT_ID.reset(token)


def current_client_id() -> str:
    """The client id queries in this context are attributed to."""
    return _CLIENT_ID.get()


@dataclass
class QueryLogRecord:
    """Everything a layout optimizer wants to know about one query."""

    fingerprint: str
    table: str
    sql: str
    predicate_columns: Tuple[str, ...] = ()
    selectivity: float = 1.0
    rows_examined: int = 0
    rows_emitted: int = 0
    row_groups_scanned: int = 0
    row_groups_skipped: int = 0
    #: Of the scanned groups, how many zone maps pruned without
    #: decoding (a subset of ``row_groups_scanned``, which counts
    #: every group the bit-vector path did not skip outright).
    row_groups_pruned: int = 0
    tuples_skipped: int = 0
    snapshot_cache: str = "none"  # "none" | "hit" | "miss" | "mixed"
    #: Sideline records this query parsed, and those it read already
    #: parsed from the table's sideline cache.
    sideline_records_parsed: int = 0
    sideline_records_cached: int = 0
    wall_seconds: float = 0.0
    client_id: str = "local"
    trace_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "table": self.table,
            "sql": self.sql,
            "predicate_columns": list(self.predicate_columns),
            "selectivity": self.selectivity,
            "rows_examined": self.rows_examined,
            "rows_emitted": self.rows_emitted,
            "row_groups_scanned": self.row_groups_scanned,
            "row_groups_skipped": self.row_groups_skipped,
            "row_groups_pruned": self.row_groups_pruned,
            "tuples_skipped": self.tuples_skipped,
            "snapshot_cache": self.snapshot_cache,
            "sideline_records_parsed": self.sideline_records_parsed,
            "sideline_records_cached": self.sideline_records_cached,
            "wall_seconds": self.wall_seconds,
            "client_id": self.client_id,
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
        }


class QueryLog:
    """A thread-safe bounded log of :class:`QueryLogRecord`.

    Bounded so a long-lived server can't grow without limit: beyond
    *capacity* the oldest records fall off (total appended is still
    available as :attr:`total`).
    """

    def __init__(self, capacity: int = DEFAULT_QUERY_LOG_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = make_lock("obs.QueryLog._lock")
        # guarded-by: _lock
        self._records: Deque[QueryLogRecord] = deque(maxlen=capacity)
        self._total = 0  # guarded-by: _lock

    @staticmethod
    def null() -> "QueryLog":
        """The shared no-op log (the default everywhere)."""
        return NULL_QUERY_LOG

    @property
    def enabled(self) -> bool:
        return True

    @property
    def total(self) -> int:
        """Records ever appended (including ones evicted by capacity)."""
        with self._lock:
            return self._total

    def append(self, record: QueryLogRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._total += 1

    def records(self) -> List[QueryLogRecord]:
        """The retained records, oldest first (log keeps them)."""
        with self._lock:
            return list(self._records)

    def drain(self) -> List[QueryLogRecord]:
        """Remove and return the retained records, oldest first."""
        with self._lock:
            drained = list(self._records)
            self._records.clear()  # ciaolint: allow[LCK002] -- deque.clear binds no project lock; the name union binds wider
        return drained

    def tail(self, n: int) -> List[QueryLogRecord]:
        """The most recent *n* records, oldest first."""
        with self._lock:
            if n <= 0:
                return []
            return list(self._records)[-n:]

    def hot_columns(self, top_n: int = 3) -> List[Tuple[str, float]]:
        """The hottest predicate columns, fingerprint-weighted.

        Folds the retained records into ``(column, weight)`` pairs,
        hottest first: each distinct query fingerprint contributes its
        occurrence count to every column its WHERE clause filters on,
        so a column stays hot because the *workload* keeps filtering on
        it, not because one query ran once with many clauses.  Ties
        break by column name for determinism.  This is the fold the
        compaction policy (and any layout optimizer) ranks re-cluster
        candidates with.
        """
        if top_n <= 0:
            raise ValueError(f"top_n must be positive, got {top_n}")
        with self._lock:
            records = list(self._records)
        frequency: Dict[str, int] = {}
        columns_of: Dict[str, Tuple[str, ...]] = {}
        for record in records:
            if not record.predicate_columns:
                continue
            frequency[record.fingerprint] = (
                frequency.get(record.fingerprint, 0) + 1
            )
            columns_of[record.fingerprint] = record.predicate_columns
        weight: Dict[str, float] = {}
        for fingerprint, count in frequency.items():
            for column in columns_of[fingerprint]:
                weight[column] = weight.get(column, 0.0) + count
        ranked = sorted(
            weight.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:top_n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class NullQueryLog(QueryLog):
    """Disabled log: stateless, shared, drops every record."""

    def __init__(self) -> None:
        self.capacity = 0

    @property
    def enabled(self) -> bool:
        return False

    @property
    def total(self) -> int:
        return 0

    def append(self, record: QueryLogRecord) -> None:
        pass

    def records(self) -> List[QueryLogRecord]:
        return []

    def drain(self) -> List[QueryLogRecord]:
        return []

    def tail(self, n: int) -> List[QueryLogRecord]:
        return []

    def hot_columns(self, top_n: int = 3) -> List[Tuple[str, float]]:
        if top_n <= 0:
            raise ValueError(f"top_n must be positive, got {top_n}")
        return []

    def __len__(self) -> int:
        return 0


#: The shared disabled log (what ``QueryLog.null()`` returns).
NULL_QUERY_LOG = NullQueryLog()


def resolve_query_log(query_log: Optional[QueryLog]) -> QueryLog:
    """``query_log`` if given, else the shared null log."""
    return query_log if query_log is not None else NULL_QUERY_LOG
