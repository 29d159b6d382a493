"""Catalog: tables as (Parquet-lite parts + sideline segments + pushdown map).

A CIAO table is not just files: it also remembers *which predicates were
pushed down* (clause → predicate id), because that mapping is what lets the
planner turn a query's WHERE clauses into bit-vector lookups — the
predicate hashmap of Fig. 2, server side.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from ..analysis.sanitizer import make_lock
from ..core.predicates import Clause
from ..storage.columnar import ParquetLiteReader
from ..storage.jsonstore import SidelineView
from ..storage.schema import column_values

#: Prepared plans a table keeps per view (:meth:`TableEntry.prepared`);
#: past it the oldest is dropped.  Workload A of Table III repeats 126
#: distinct statements.
PREPARED_PLANS_CAP = 256


class CatalogError(KeyError):
    """Unknown table or inconsistent registration."""


@dataclass
class ParsedPrefix:
    """The parsed first :attr:`lines` lines of one sideline file.

    ``records`` holds the records of those lines in line order;
    ``malformed`` the numbers of the lines that held no JSON object,
    which scans skip.  ``offset`` is the byte offset just after line
    :attr:`lines`, where the next read resumes.  ``columns`` holds, per
    column a query asked for, its values in the first ``len(values)``
    records, each pulled once; a list grows only when a query needs
    records past its end.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    malformed: List[int] = field(default_factory=list)
    offset: int = 0
    columns: Dict[str, List[Any]] = field(default_factory=dict)

    @property
    def lines(self) -> int:
        """Lines parsed: records plus malformed lines."""
        return len(self.records) + len(self.malformed)

    def add(self, record: Optional[Dict[str, Any]], offset: int) -> None:
        """Append the next line's *record* (``None`` if malformed),
        which ends at byte *offset*."""
        if record is None:
            self.malformed.append(self.lines)
        else:
            self.records.append(record)
        self.offset = offset

    def records_before(self, line: int) -> int:
        """How many records the lines before *line* hold."""
        return line - bisect_left(self.malformed, line)


class SidelineWindow(NamedTuple):
    """Lines ``[start, start + lines)`` of one sideline file, as one
    :meth:`SidelineCache.window` call found them: records ``[lo, hi)``
    of *prefix*, of which this call parsed *parsed*."""

    prefix: ParsedPrefix
    lines: int
    lo: int
    hi: int
    parsed: int

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The window's records (a copy of the list, sharing the dicts)."""
        return self.prefix.records[self.lo:self.hi]


class SidelineCache:
    """Parsed prefixes of the sideline files a table's queries scan.

    Sideline files are append-only, so the records parsed from a file's
    first *k* lines never change.  Keyed by file path, the cache keeps
    them with the offset after line *k*; a scan takes the cached prefix
    without parsing and parses only the lines past it (appending them),
    so each line is parsed once and a streaming snapshot query parses
    only the sideline delta.  Next to each prefix it keeps the columns
    queries pulled from its records (:meth:`window_column`), so a
    column is pulled from a record at most once.  Filled by queries
    only; bounded by one record per sideline line read plus one value
    per record and queried column.  A table drops a file's prefix, columns included,
    when the file leaves its view (:meth:`retain`), the only
    invalidation.
    """

    def __init__(self) -> None:
        self._lock = make_lock("SidelineCache._lock")
        self._prefixes: Dict[str, ParsedPrefix] = {}  # guarded-by: _lock

    def window(self, path: Path, start: int, stop: int) -> SidelineWindow:
        """Lines ``[start, stop)`` of *path*, parsing those not cached.

        Fewer lines than asked means the file has no more lines yet.
        Parsing happens under the lock, so concurrent first readers
        wait for one parse instead of each repeating it.
        """
        with self._lock:
            prefix = self._prefixes.setdefault(str(path), ParsedPrefix())
            parsed = 0
            if prefix.lines < stop:
                for _ in SidelineView(path, stop).iter_parsed(prefix):
                    parsed += 1
            stop = min(stop, prefix.lines)
            return SidelineWindow(prefix, max(0, stop - start),
                                  prefix.records_before(start),
                                  prefix.records_before(stop), parsed)

    def window_column(self, window: SidelineWindow,
                      name: str) -> List[Any]:
        """Column *name* of *window*'s records.

        Values come from the prefix's kept column, which is first pulled
        (:func:`~repro.storage.schema.column_values`) over only the
        records past its end.  Pulling happens under the lock, so
        concurrent first readers pull each value once.
        """
        prefix = window.prefix
        with self._lock:
            values = prefix.columns.setdefault(name, [])
            pulled = len(values)
            if pulled < window.hi:
                values.extend(column_values(
                    prefix.records[pulled:window.hi], name))
            return values[window.lo:window.hi]

    def retain(self, paths: Iterable[Path]) -> None:
        """Drop the prefixes (and their columns) of files outside
        *paths*."""
        keep = {str(path) for path in paths}
        with self._lock:
            for key in [k for k in self._prefixes if k not in keep]:
                del self._prefixes[key]


@dataclass
class TableEntry:
    """One queryable table: its view and its pushdown map.

    The view is one value: the ordered Parquet-lite part paths, the
    sideline as ``(path, records)`` segments — the first *records* lines
    of each listed file — and whether the load behind it is still
    ``live``.  A finalized table lists its parts and its one sideline
    store; during a streaming load the owning server re-points the
    table (:meth:`set_view`) at the sealed-so-far parts and the shard
    sideline prefixes at their watermarks, so the engine answers queries
    against a consistent prefix of the stream while loading continues.

    Everything a table caches rests on two invariants of the listed
    paths:

    * **A listed part path never gets new bytes.**  A sealed part is
      never rewritten in place, loaders number their parts ``.partN``
      upward, and a compactor names each output ``compactN`` by a
      sequence that only grows, skipping paths that exist.  A path can
      only come back after it left the view, and then it is opened
      afresh.  So readers (and their skipping summaries) are cached per
      part path while the part stays listed, and — while ``live`` —
      partial aggregates per part (:attr:`snapshot_cache`).
    * **A listed sideline path never changes its first *records*
      lines.**  Sideline files are append-only; shard files are unlinked
      at finalize and never recreated, and the main file carries the
      server's generation suffix, so a recovered server never writes
      into a file an older view listed.  So parsed prefixes are cached
      per sideline path (:attr:`sideline_cache`) while the path stays
      listed.

    The caches of a view, each filled only by queries and each dropped
    with the part or file it belongs to when :meth:`set_view` takes
    that out of the view:

    * one open reader per listed part, with its skipping summaries;
    * the decoded columns of each reader's row groups, kept by the
      reader: bounded by the part rows in view times the columns
      queried;
    * while ``live``, partial aggregates per part and query fingerprint
      (:attr:`snapshot_cache`), for at most
      :data:`~repro.engine.snapcache.SNAPSHOT_FINGERPRINTS_CAP`
      fingerprints; a final view drops them all;
    * per listed sideline file, the parsed records of the lines read
      (bounded by the sideline records in view, as the file holds them)
      and the columns pulled from them: bounded by the sideline records
      in view times the columns queried;
    * per SQL text, its prepared plan (:meth:`prepared`): the operator
      tree with the skip decisions its scans made, and its
      :class:`~repro.engine.planner.PlanInfo` (a live aggregate's too);
      at most :data:`PREPARED_PLANS_CAP`, the oldest dropped first.  A plan's
      scans keep one survivor mask per candidate group they reached,
      so the masks are bounded by :data:`PREPARED_PLANS_CAP` times the
      part rows in view / 8 bytes.  Any change of the view or of the
      pushdown map (:meth:`set_pushdown`) drops them all, before a
      reader closes.
    """

    name: str
    parquet_paths: List[Path] = field(default_factory=list)
    #: ``(path, records)`` sideline segments, in scan order.
    sidelines: List[Tuple[Path, int]] = field(default_factory=list)
    #: Pushed-down clause → predicate id (empty when nothing was pushed).
    pushdown: Dict[Clause, int] = field(default_factory=dict)
    #: True while the view is a mid-load snapshot of a streaming load;
    #: set only through :meth:`set_view`.
    live: bool = field(default=False, init=False)
    #: Open readers by part path (parts of :attr:`parquet_paths` only).
    # guarded-by: _readers_lock
    _readers: Dict[str, ParquetLiteReader] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Serializes reader-cache population and teardown: concurrent first
    #: queries must not each open (and then leak) a reader.
    _readers_lock: object = field(
        default_factory=lambda: make_lock("TableEntry._readers_lock"),
        repr=False, compare=False,
    )
    #: Incremental snapshot-scan cache: per-part partial aggregates keyed
    #: by (part identity, query fingerprint).  Lives while the view is
    #: ``live`` — sealed parts are immutable, so partials stay valid
    #: across views and successive mid-load aggregate queries only scan
    #: newly sealed parts.
    _snapshot_cache: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: Parsed prefixes of the listed sideline files, filled by queries.
    sideline_cache: SidelineCache = field(
        default_factory=SidelineCache, init=False, repr=False,
        compare=False,
    )
    #: Prepared ``(plan tree, PlanInfo)`` by SQL text, oldest first.
    #: Keyed by text, not by the parsed statement: ``true`` and ``1``
    #: parse to equal literals but match different rows.
    # guarded-by: _plans_lock
    _plans: Dict[str, Tuple[Any, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Serializes planning against view and pushdown changes: a plan is
    #: made and kept against one view, and the view changes only once
    #: the plans made against it are dropped.  Taken before
    #: :attr:`_readers_lock`.
    _plans_lock: object = field(
        default_factory=lambda: make_lock("TableEntry._plans_lock"),
        init=False, repr=False, compare=False,
    )

    def open_readers(self) -> List[ParquetLiteReader]:
        """Readers for this table's Parquet-lite files, in
        :attr:`parquet_paths` order.

        Files are write-once and their paths never reused while listed
        (see the class docstring), so a reader is opened on first use and
        cached until :meth:`set_view` drops its path.  Paths that do not
        exist yet are skipped: a freshly registered table is legitimately
        empty.
        """
        with self._readers_lock:
            readers = []
            for path in self.parquet_paths:
                reader = self._readers.get(str(path))
                if reader is None and Path(path).exists():
                    reader = ParquetLiteReader(path)
                    self._readers[str(path)] = reader
                if reader is not None:
                    readers.append(reader)
            return readers

    def set_view(self, parquet_paths: Iterable[Path],
                 sidelines: Iterable[Tuple[Path, int]],
                 live: bool = False) -> None:
        """Scan *parquet_paths* and the *sidelines* segments from now on.

        An unchanged view is a no-op.  Otherwise the prepared plans
        drop first; parts still listed keep their cached readers, the
        readers of dropped parts (e.g. replaced by a compaction) close
        now and new parts open on first use; the parsed prefixes of
        sideline files that left the view are dropped.  A *live* view keeps the cached partial aggregates of
        the parts it kept; a final one drops the snapshot cache.
        """
        parts = [Path(p) for p in parquet_paths]
        segments = [(Path(path), int(records)) for path, records in sidelines]
        if (parts, segments, live) == (self.parquet_paths, self.sidelines,
                                       self.live):
            return
        with self._plans_lock:
            # Prepared plans hold this view's readers: drop them first.
            self._plans.clear()
            with self._readers_lock:
                self.parquet_paths = parts
                listed = {str(path) for path in parts}
                for key in [k for k in self._readers if k not in listed]:
                    self._readers.pop(key).close()  # ciaolint: allow[LCK002] -- ParquetLiteReader.close is lock-free; `.close()` name union binds wider
            self.sidelines = segments
            self.live = live
        self.sideline_cache.retain(path for path, _ in segments)
        if not live:
            self._snapshot_cache = None
        elif self._snapshot_cache is not None:
            self._snapshot_cache.retain_parts(listed)

    def close_readers(self) -> None:
        """Close every cached part reader, dropping the prepared plans
        that hold them first.  The view stays: a later query reopens the
        parts it reads."""
        with self._plans_lock:
            self._plans.clear()
            with self._readers_lock:
                for reader in self._readers.values():
                    reader.close()  # ciaolint: allow[LCK002] -- ParquetLiteReader.close is lock-free; `.close()` name union binds wider
                self._readers.clear()

    def set_pushdown(self, pushdown: Dict[Clause, int]) -> None:
        """Match queries against *pushdown* (clause → predicate id) from
        now on, dropping the plans matched against the old map."""
        with self._plans_lock:
            self._plans.clear()
            self.pushdown = dict(pushdown)

    def prepared(self, sql: str, parsed: Any,
                 plan: Callable[[Any, "TableEntry"], Tuple[Any, Any]]
                 ) -> Tuple[Any, Any]:
        """The prepared ``(plan tree, PlanInfo)`` of the statement *sql*
        over this view, made by ``plan(parsed, self)`` the first time;
        *parsed* is what *sql* parses to.

        Operators keep no state between runs but their scans' skip
        decisions, so one tree serves every execution; callers copy the
        :class:`~repro.engine.planner.PlanInfo` before handing it out.
        Planning happens under the lock, so the plan it keeps was made
        against the view it is kept for.  A plan that raises is not
        kept.
        """
        with self._plans_lock:
            prepared = self._plans.get(sql)
            if prepared is None:
                prepared = plan(parsed, self)
                if len(self._plans) >= PREPARED_PLANS_CAP:
                    del self._plans[next(iter(self._plans))]
                self._plans[sql] = prepared
            return prepared

    def pushed_id(self, clause: Clause) -> Optional[int]:
        """Predicate id for *clause* if it was pushed down."""
        return self.pushdown.get(clause)

    @property
    def snapshot_cache(self):
        """The incremental aggregate cache of a live view.

        Created on first use; dropped when the view stops being live
        (the finalized table is a different scan surface).
        """
        if self._snapshot_cache is None:
            from .snapcache import SnapshotAggCache  # deferred: no cycle
            self._snapshot_cache = SnapshotAggCache()
        return self._snapshot_cache

    def clear_snapshot_cache(self) -> None:
        """Forget cached partial aggregates (next query scans cold)."""
        if self._snapshot_cache is not None:
            self._snapshot_cache.clear()

    @property
    def has_sideline(self) -> bool:
        """True if the view lists any sideline record."""
        return any(records > 0 for _, records in self.sidelines)


class Catalog:
    """Name → table registry."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableEntry] = {}

    def register(self, entry: TableEntry) -> None:
        """Add or replace a table."""
        self._tables[entry.name] = entry

    def lookup(self, name: str) -> TableEntry:
        """Fetch a table or raise :class:`CatalogError`."""
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "(none)"
            raise CatalogError(
                f"unknown table {name!r}; registered: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> List[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)
