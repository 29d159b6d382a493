"""The raw-JSON sideline store for records partial loading set aside.

Records invalid for every pushed-down predicate are *not* converted to
Parquet-lite; they are appended here in their original serialized form
(paper §III: "the other is left in a raw JSON format, which requires later
parsing and conversion to analyze the unprocessed records").  Queries whose
predicates were all pushed down never touch this store; any other query
must scan it, parsing records just in time -- once: the files are
append-only, so queries read through a per-table cache of parsed prefixes
(:class:`repro.engine.catalog.SidelineCache`) and parse only the delta.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from ..rawjson.parser import try_parse


class SidelineView:
    """Read-only view of the first *limit* records of a sideline file.

    The streaming ingest pipeline publishes, per shard, a watermark of how
    many sideline records were durably written when the shard last sealed a
    Parquet part.  Reading only up to that watermark gives queries a
    sideline view consistent with the sealed parts even while the shard
    worker keeps appending — the store is append-only with a single
    writer, so the first *limit* records never change.
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
        ``ParsedPrefix``), only lines past its entries are read, and each
        is appended to it: the record, or ``None`` if malformed.
        """
        skip, offset = (0, 0) if prefix is None \
            else (len(prefix.entries), prefix.offset)
        for _, raw, end in self._lines(skip, offset):
            value, ok = try_parse(raw)
            record = value if ok and isinstance(value, dict) else None
            if prefix is not None:
                prefix.entries.append(record)
                prefix.offset = end
            if record is not None:
                yield record


class JsonSideStore(SidelineView):
    """Append-only newline-delimited store of unloaded raw records.

    Each line is ``<chunk_id>\\t<raw json>`` so just-in-time loading can
    trace a record back to its origin chunk.  Reading is the view of all
    :attr:`record_count` records of the store's own file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records = 0
        self._bytes = 0
        #: Bumped by :meth:`clear`; parsed prefixes cached under an older
        #: epoch describe content the file no longer has.
        self.epoch = 0
        if self.path.exists():
            # Recover counts from an existing store (restart tolerance).
            with open(self.path, "r", encoding="utf-8") as f:
                for line in f:
                    if line.strip():
                        self._records += 1
                        self._bytes += len(line)
        else:
            self.path.touch()

    # ------------------------------------------------------------------
    @property
    def limit(self) -> int:
        """Number of sidelined records (the whole file is in view)."""
        return self._records

    @property
    def byte_size(self) -> int:
        """Approximate store size in bytes."""
        return self._bytes

    def append(self, chunk_id: int, raw_records: Iterable[str]) -> int:
        """Append raw records from one chunk; returns how many."""
        return self.append_pairs((chunk_id, raw) for raw in raw_records)

    def append_pairs(self, pairs: Iterable[Tuple[int, str]]) -> int:
        """Append (chunk_id, raw) pairs in one file-open; returns how many.

        The bulk path used when shard-local sidelines are merged into the
        table's store at the end of a parallel load (one open per shard,
        not one per record).
        """
        count = 0
        with open(self.path, "a", encoding="utf-8") as f:
            for chunk_id, raw in pairs:
                if "\n" in raw:
                    raise ValueError("raw records must be single-line JSON")
                line = f"{chunk_id}\t{raw}\n"
                f.write(line)
                self._records += 1
                self._bytes += len(line)
                count += 1
        return count

    def scan_with_errors(self) -> Tuple[List[Dict[str, Any]], int]:
        """Parse everything; returns (records, malformed_count)."""
        records = list(self.iter_parsed())
        return records, self._records - len(records)

    def clear(self) -> None:
        """Empty the store (used when re-loading from scratch)."""
        open(self.path, "w", encoding="utf-8").close()
        self._records = 0
        self._bytes = 0
        self.epoch += 1


class CompositeSidelineView:
    """Several sideline views presented as one store-like object.

    Used by snapshot-scan mode: during a sharded load each shard owns its
    own sideline file, so a consistent loaded-so-far sideline is the union
    of per-shard prefix views.  Exposes the read interface the engine's
    ``SidelineScan`` needs (``record_count``/``iter_parsed``/``path``, and
    ``views``: the per-file segments it scans); ``path`` is the table's
    canonical sideline path, used only for plan descriptions.
    """

    def __init__(self, path: str | Path, views: Iterable[SidelineView]):
        self.path = Path(path)
        self.views = list(views)

    @property
    def record_count(self) -> int:
        return sum(view.record_count for view in self.views)

    def iter_parsed(self) -> Iterator[Dict[str, Any]]:
        for view in self.views:
            yield from view.iter_parsed()
