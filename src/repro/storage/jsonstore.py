"""The raw-JSON sideline store for records partial loading set aside.

Records invalid for every pushed-down predicate are *not* converted to
Parquet-lite; they are appended here in their original serialized form
(paper §III: "the other is left in a raw JSON format, which requires later
parsing and conversion to analyze the unprocessed records").  Queries whose
predicates were all pushed down never touch this store; any other query
must scan it, parsing records just in time -- once.

A table sees its sideline as ``(path, records)`` segments: the first
*records* lines of each listed file (the table's own store, then one
shard file per shard on a sharded server, mid-load and once finalized
alike).  :class:`JsonSideStore` writes a file;
:class:`SidelineView` reads one such prefix.  The files are append-only,
so a segment's lines never change and queries read them through a
per-table cache of parsed prefixes
(:class:`repro.engine.catalog.SidelineCache`), parsing only the delta.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Tuple

from ..rawjson.parser import try_parse


class SidelineView:
    """Read-only view of the first *limit* records of a sideline file.

    The reader of one ``(path, records)`` segment.  Mid-load a shard's
    segment ends at the watermark it published when it last sealed a
    Parquet part, so reading only that far stays consistent with the
    sealed parts while the shard worker keeps appending — the file is
    append-only with a single writer, so the first *limit* records never
    change.
    """

    def __init__(self, path: str | Path, limit: int):
        if limit < 0:
            raise ValueError("sideline view limit must be non-negative")
        self.path = Path(path)
        self.limit = limit

    @property
    def record_count(self) -> int:
        """Number of records in view."""
        return self.limit

    def _lines(self, skip: int = 0,
               offset: int = 0) -> Iterator[Tuple[int, str, int]]:
        """``(chunk_id, raw, end_offset)`` of the viewed lines after the
        first *skip*, which end at byte *offset*."""
        remaining = self.limit - skip
        if remaining <= 0 or not self.path.exists():
            return
        with open(self.path, "rb") as f:
            f.seek(offset)
            for line in f:
                offset += len(line)
                stripped = line.rstrip(b"\n")
                if not stripped:
                    continue
                chunk_id, _, raw = stripped.partition(b"\t")
                yield int(chunk_id), raw.decode("utf-8"), offset
                remaining -= 1
                if remaining == 0:
                    return

    def iter_raw(self) -> Iterator[Tuple[int, str]]:
        """Yield the viewed (chunk_id, raw_record) pairs in append order."""
        for chunk_id, raw, _ in self._lines():
            yield chunk_id, raw

    def iter_parsed(self, prefix=None) -> Iterator[Dict[str, Any]]:
        """Parse viewed records just in time; malformed lines are skipped.

        Skipping (rather than raising) quarantines producer corruption the
        same way the eager loader would have.  With *prefix* (a cached
        ``ParsedPrefix``), only lines past its ``lines`` are read, and
        each is added to it: the record, or ``None`` if malformed.
        """
        skip, offset = (0, 0) if prefix is None \
            else (prefix.lines, prefix.offset)
        for _, raw, end in self._lines(skip, offset):
            value, ok = try_parse(raw)
            record = value if ok and isinstance(value, dict) else None
            if prefix is not None:
                prefix.add(record, end)
            if record is not None:
                yield record


class JsonSideStore(SidelineView):
    """Append-only newline-delimited store of unloaded raw records.

    Each line is ``<chunk_id>\\t<raw json>`` so just-in-time loading can
    trace a record back to its origin chunk.  Reading is the view of all
    :attr:`record_count` records of the store's own file.  The store is
    only ever appended to: the records behind a ``(path, records)``
    segment a table lists never change, which is what lets queries
    cache them parsed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records = 0
        if self.path.exists():
            # Recover the count from an existing store (restart tolerance).
            with open(self.path, "r", encoding="utf-8") as f:
                for line in f:
                    if line.strip():
                        self._records += 1
        else:
            self.path.touch()

    # ------------------------------------------------------------------
    @property
    def limit(self) -> int:
        """Number of sidelined records (the whole file is in view)."""
        return self._records

    def append(self, chunk_id: int, raw_records: Iterable[str]) -> int:
        """Append raw records from one chunk; returns how many."""
        return self.append_pairs((chunk_id, raw) for raw in raw_records)

    def append_pairs(self, pairs: Iterable[Tuple[int, str]]) -> int:
        """Append (chunk_id, raw) pairs in one file-open; returns how many.

        The bulk path recovery uses to copy a manifest's durable sideline
        prefix into the new generation's store.  A finished load copies
        nothing: finalize is the last publication, and shard sidelines
        stay where they were written.
        """
        count = 0
        with open(self.path, "a", encoding="utf-8") as f:
            for chunk_id, raw in pairs:
                if "\n" in raw:
                    raise ValueError("raw records must be single-line JSON")
                f.write(f"{chunk_id}\t{raw}\n")
                self._records += 1
                count += 1
        return count
