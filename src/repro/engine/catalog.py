"""Catalog: tables as (Parquet-lite files + sideline store + pushdown map).

A CIAO table is not just files: it also remembers *which predicates were
pushed down* (clause → predicate id), because that mapping is what lets the
planner turn a query's WHERE clauses into bit-vector lookups — the
predicate hashmap of Fig. 2, server side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..analysis.sanitizer import make_lock
from ..core.predicates import Clause
from ..storage.columnar import ParquetLiteReader
from ..storage.jsonstore import JsonSideStore


class CatalogError(KeyError):
    """Unknown table or inconsistent registration."""


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
    """

    name: str
    parquet_paths: List[Path] = field(default_factory=list)
    side_store: Optional[JsonSideStore] = None
    #: Pushed-down clause → predicate id (empty when nothing was pushed).
    pushdown: Dict[Clause, int] = field(default_factory=dict)
    # guarded-by: _readers_lock
    _readers: Optional[List[ParquetLiteReader]] = field(
        default=None, repr=False, compare=False
    )
    #: Serializes reader-cache population and teardown: concurrent first
    #: queries must not each open (and then leak) a reader set.
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

    def open_readers(self) -> List[ParquetLiteReader]:
        """Open (and cache) readers for this table's Parquet-lite files.

        Files are write-once — the loader seals each file before queries
        run — so cached readers stay valid until :meth:`invalidate` is
        called after new files are registered.  Paths that do not exist yet
        are skipped: a freshly registered table is legitimately empty.
        """
        with self._readers_lock:
            if self._readers is None:
                self._readers = [
                    ParquetLiteReader(path)
                    for path in self.parquet_paths
                    if Path(path).exists()
                ]
            return self._readers

    def invalidate(self) -> None:
        """Close cached readers; call after loading new files."""
        with self._readers_lock:
            if self._readers is not None:
                for reader in self._readers:
                    reader.close()  # ciaolint: allow[LCK002] -- ParquetLiteReader.close is lock-free; `.close()` name union binds wider
                self._readers = None

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
        Reapplying an unchanged version is a no-op, so cached readers
        survive across queries between ingest progress.
        Sealed snapshot parts are immutable, which is what makes
        caching them safe.
        """
        if self._snapshot_version == version:
            return
        self.invalidate()
        self.parquet_paths = [Path(p) for p in parquet_paths]
        self._snapshot_side = side_view
        self._snapshot_version = version
        if self._snapshot_cache is not None:
            # Parts normally only accumulate; pruning is a cheap guard
            # against providers that replace their part set.
            self._snapshot_cache.retain_parts(
                str(p) for p in self.parquet_paths
            )

    def clear_snapshot(self) -> None:
        """Leave snapshot-scan mode (the load finalized or was reset)."""
        if self._snapshot_version is not None:
            self.invalidate()
            self._snapshot_side = None
            self._snapshot_version = None
            self._snapshot_cache = None

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
