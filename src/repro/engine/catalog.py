"""Catalog: tables as (Parquet-lite files + sideline store + pushdown map).

A CIAO table is not just files: it also remembers *which predicates were
pushed down* (clause → predicate id), because that mapping is what lets the
planner turn a query's WHERE clauses into bit-vector lookups — the
predicate hashmap of Fig. 2, server side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.sanitizer import make_lock
from ..core.predicates import Clause
from ..storage.columnar import ParquetLiteReader
from ..storage.jsonstore import JsonSideStore, SidelineView


class CatalogError(KeyError):
    """Unknown table or inconsistent registration."""


@dataclass
class ParsedPrefix:
    """The parsed first ``len(entries)`` lines of one sideline file.

    One entry per line: the record, or ``None`` for a malformed line the
    scans skip.  ``offset`` is the byte offset just after the last
    entry's line, where the next read resumes.
    """

    entries: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    offset: int = 0


def sideline_segments(store) -> List[Tuple[Path, int]]:
    """The ``(path, limit)`` file prefixes a sideline store-like scans:
    one for a store or view, one per shard for a composite view."""
    return [(view.path, view.record_count)
            for view in getattr(store, "views", (store,))]


class SidelineCache:
    """Parsed prefixes of the sideline files a table's queries scan.

    Sideline files are append-only, so the records parsed from a file's
    first *k* lines never change.  Keyed by file path, the cache keeps
    them with the offset after line *k*; a scan takes the cached prefix
    without parsing and parses only the lines past it (appending them),
    so each line is parsed once and a streaming snapshot query parses
    only the sideline delta.  Filled by queries only; bounded by one
    entry per sideline line read.
    """

    def __init__(self) -> None:
        self._lock = make_lock("SidelineCache._lock")
        self._prefixes: Dict[str, ParsedPrefix] = {}  # guarded-by: _lock

    def parsed_lines(self, path: Path, start: int, stop: int
                     ) -> Tuple[List[Optional[Dict[str, Any]]], int]:
        """Entries of lines ``[start, stop)`` of *path*, and how many of
        their records this call parsed.

        Fewer entries than asked means the file has no more lines yet.
        Parsing happens under the lock, so concurrent first readers
        wait for one parse instead of each repeating it.
        """
        with self._lock:
            prefix = self._prefixes.setdefault(str(path), ParsedPrefix())
            parsed = 0
            if len(prefix.entries) < stop:
                for _ in SidelineView(path, stop).iter_parsed(prefix):
                    parsed += 1
            return prefix.entries[start:stop], parsed

    def retain(self, paths: Iterable[Path]) -> None:
        """Drop the prefixes of files outside *paths*."""
        keep = {str(path) for path in paths}
        with self._lock:
            for key in [k for k in self._prefixes if k not in keep]:
                del self._prefixes[key]


@dataclass
class TableEntry:
    """One queryable table.

    A table is normally *sealed*: its file list and sideline are fixed
    until the next load session.  During a streaming load the owning
    server instead drives the entry in **snapshot-scan mode**
    (:meth:`apply_snapshot`): the scanned files become the sealed-so-far
    Parquet parts of an in-flight ingest and the sideline is replaced by
    a bounded loaded-so-far view, so the engine answers queries against a
    consistent prefix of the stream while loading continues.

    Readers are cached per part path for as long as the part stays in
    :attr:`parquet_paths`: when the view moves, parts still in it keep
    their open reader (and its skipping summary), new parts open and
    dropped parts close.  This relies on a listed path never getting new
    bytes: a sealed part is never rewritten in place, loaders number
    their parts ``.partN`` upward, and a compactor names each output
    ``compactN`` by a sequence that only grows, skipping paths that
    exist.  A path can only come back after it left the view, and then
    it is opened afresh.
    """

    name: str
    parquet_paths: List[Path] = field(default_factory=list)
    side_store: Optional[JsonSideStore] = None
    #: Pushed-down clause → predicate id (empty when nothing was pushed).
    pushdown: Dict[Clause, int] = field(default_factory=dict)
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
    #: Snapshot-scan mode state: the sideline view queries should scan
    #: instead of ``side_store``, and the snapshot version it came from.
    _snapshot_side: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    _snapshot_version: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: Incremental snapshot-scan cache: per-part partial aggregates keyed
    #: by (part identity, query fingerprint).  Lives exactly as long as
    #: snapshot-scan mode does — sealed parts are immutable, so partials
    #: stay valid across snapshot versions and successive mid-load
    #: aggregate queries only scan newly sealed parts.
    _snapshot_cache: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: Parse-once sideline cache (see :attr:`sideline_cache`) and the
    #: ``side_store`` epoch it was filled under.
    _sideline_cache: SidelineCache = field(
        default_factory=SidelineCache, repr=False, compare=False
    )
    _sideline_epoch: int = field(default=0, repr=False, compare=False)

    def open_readers(self) -> List[ParquetLiteReader]:
        """Readers for this table's Parquet-lite files, in
        :attr:`parquet_paths` order.

        Files are write-once and their paths never reused while listed
        (see the class docstring), so a reader is opened on first use and
        cached until :meth:`set_parts` drops its path.  Paths that do not
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

    def set_parts(self, parquet_paths: Iterable[Path]) -> None:
        """Scan *parquet_paths* from now on.

        Parts still listed keep their cached readers; the readers of
        parts dropped (e.g. replaced by a compaction) close now, new
        parts open on first use.
        """
        with self._readers_lock:
            self.parquet_paths = [Path(p) for p in parquet_paths]
            listed = {str(path) for path in self.parquet_paths}
            for key in [k for k in self._readers if k not in listed]:
                self._readers.pop(key).close()  # ciaolint: allow[LCK002] -- ParquetLiteReader.close is lock-free; `.close()` name union binds wider

    def pushed_id(self, clause: Clause) -> Optional[int]:
        """Predicate id for *clause* if it was pushed down."""
        return self.pushdown.get(clause)

    # ------------------------------------------------------------------
    # Snapshot-scan mode
    # ------------------------------------------------------------------
    def apply_snapshot(self, version: object, parquet_paths: List[Path],
                       side_view: Optional[object]) -> None:
        """Point queries at a loaded-so-far snapshot of an in-flight load.

        *version* is the snapshot's change token — any equatable value
        that changes whenever the scanned parts or sideline do (the
        owning server uses the part and sideline lists themselves).
        Parts in both the old and the new view keep their cached readers
        (sealed snapshot parts are immutable, which is what makes caching
        them safe); reapplying an unchanged version is a no-op.
        """
        if self._snapshot_version == version:
            return
        self.set_parts(parquet_paths)
        self._snapshot_side = side_view
        self._snapshot_version = version
        segments = sideline_segments(side_view) \
            if side_view is not None else []
        self._sideline_cache.retain(path for path, _ in segments)
        if self._snapshot_cache is not None:
            # Parts normally only accumulate; pruning is a cheap guard
            # against providers that replace their part set.
            self._snapshot_cache.retain_parts(
                str(p) for p in self.parquet_paths
            )

    def clear_snapshot(self) -> None:
        """Leave snapshot-scan mode (the load finalized or was reset)."""
        if self._snapshot_version is not None:
            self._snapshot_side = None
            self._snapshot_version = None
            self._snapshot_cache = None
            self._sideline_cache = SidelineCache()

    @property
    def snapshot_cache(self):
        """The incremental aggregate cache for this snapshot session.

        Created on first use; dropped with :meth:`clear_snapshot` (the
        finalized table is a different scan surface).
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
    def sideline_cache(self) -> SidelineCache:
        """The parsed-sideline cache queries scan the sideline through.

        A new one starts when the store was cleared (its ``epoch``
        moved) and when :meth:`clear_snapshot` ends a snapshot session;
        :meth:`apply_snapshot` drops the files a new view no longer
        scans, and a replaced table takes its cache with it.
        """
        epoch = self.side_store.epoch if self.side_store is not None else 0
        if epoch != self._sideline_epoch:
            self._sideline_cache = SidelineCache()
            self._sideline_epoch = epoch
        return self._sideline_cache

    @property
    def in_snapshot_mode(self) -> bool:
        """True while queries scan a mid-load snapshot view."""
        return self._snapshot_version is not None

    @property
    def scan_side_store(self):
        """The sideline queries should scan: snapshot view or the store."""
        if self._snapshot_version is not None:
            return self._snapshot_side
        return self.side_store

    @property
    def has_sideline(self) -> bool:
        """True if a (non-empty) raw sideline exists for this table."""
        store = self.scan_side_store
        return store is not None and store.record_count > 0


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
