"""The client-assisted data loader (paper §VI-A).

For every received chunk the loader:

1. computes the **load mask** — the union of the chunk's predicate
   bit-vectors (a record is loaded iff it may satisfy at least one pushed
   predicate);
2. **parses** the selected records, each with one call of the strict record
   parser :func:`repro.rawjson.parser.try_parse` (the C ``json`` decoder,
   the analogue of the paper's rapidJSON: the expensive step partial
   loading exists to avoid), pulls them into columns once
   (:func:`~repro.storage.schema.pull_columns`, which also feeds schema
   inference) and adds those columns, with the chunk's *derived*
   bit-vectors (original vectors restricted to the loaded positions, one
   ``itemgetter`` gather over the chunk vector's bit string each), to the
   open part's **pending rows**; the row dicts are dropped.  Pending rows
   are written as one Parquet-lite row group as soon as
   ``ROW_GROUP_ROWS`` (:mod:`repro.storage.rowgroup`) of them are
   pending; the shorter remainder is written when the part seals
   (:meth:`~ClientAssistedLoader.seal_part`, ``finalize``) or before a
   schema-widening chunk rotates the file.  So a group spans chunks:
   each id's stored vector is the chunks' derived vectors concatenated
   (split with ``slice`` where a group boundary falls inside a chunk),
   and a chunk that carried no vector for an id contributes 1s — "may
   match", the rule compaction follows too — so a stored 0 is never
   invented.  The write is column-major: each column is coerced and
   paged in bulk, with no Python call per value or per bit, except the
   per-value fallback for types the C decoder never produces
   (subclasses, values a column cannot store).  Pending rows stay below
   one group plus one chunk, whatever the seal interval;
3. appends the rejected records, unparsed, to the raw JSON sideline store.

Malformed-record policy: a selected record that fails to parse is counted
as ``malformed`` and its raw text is appended to the sideline store, so no
byte of input is ever dropped (corruption is quarantined, not erased).  The
per-chunk invariant is ``received == loaded + sidelined + malformed`` —
the three report counters partition the chunk — while the *side store*
receives ``sidelined + malformed`` records.

Scaling: one loader is strictly serial.  Under heavy multi-client traffic
the server fans chunks across several loaders via
:class:`repro.server.pipeline.ShardedIngestPipeline` — each shard owns a
private loader writing shard-local Parquet-lite parts and a shard-local
sideline, and the pipeline publishes their union as the table's view,
mid-load and once finalized alike.  Nothing in this module is shard-aware; the pipeline
composes loaders without changing their contract.

Partial-loading policy: the mask is honoured only when the loader was
constructed with ``partial_loading=True``.  The CIAO server enables it when
the pushed-down set covers every prospective query (§VI-B: a covered query
never needs the sideline).  With partial loading off — low budgets, low
overlap, or the zero-budget baseline — every record is loaded, but
bit-vectors are *still* retained for data skipping, which is why workloads
with no loading win can still show query wins (Fig. 6).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from pathlib import Path
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..bitvec.bitvector import BitVector, selector
from ..obs.metrics import Metrics, resolve_metrics
from ..rawjson.chunks import JsonChunk
from ..rawjson.parser import try_parse
from ..storage.columnar import ParquetLiteWriter
from ..storage.jsonstore import JsonSideStore
from ..storage.rowgroup import ROW_GROUP_ROWS
from ..storage.schema import (
    Schema,
    infer_column_schema,
    merge_schemas,
    pull_columns,
    schema_covers,
)


@dataclass
class LoadReport:
    """Accounting for one ingested chunk."""

    chunk_id: int
    received: int
    loaded: int
    sidelined: int
    malformed: int
    wall_seconds: float


#: The load counters, in the one dict form manifests and COMMITTED use.
_COUNTERS = ("chunks", "received", "loaded", "sidelined", "malformed",
             "wall_seconds")


@dataclass
class LoadSummary:
    """Accounting for a whole loading session.

    The one owner of the load counters: the server, the fleet report,
    the API report (a subclass) and the wire/disk forms all read them
    from here.
    """

    chunks: int = 0
    received: int = 0
    loaded: int = 0
    sidelined: int = 0
    malformed: int = 0
    wall_seconds: float = 0.0
    reports: List[LoadReport] = field(default_factory=list)

    @property
    def loading_ratio(self) -> float:
        """Loaded / received — the y-axis of Figs 7, 9, 11."""
        return self.loaded / self.received if self.received else 0.0

    @property
    def accounting_ok(self) -> bool:
        """The partition invariant: every received record is counted once."""
        return self.received == self.loaded + self.sidelined + self.malformed

    def add(self, report: LoadReport) -> None:
        """Fold one chunk report in."""
        self.chunks += 1
        self.received += report.received
        self.loaded += report.loaded
        self.sidelined += report.sidelined
        self.malformed += report.malformed
        self.wall_seconds += report.wall_seconds
        self.reports.append(report)

    def merged(self, other: "LoadSummary") -> "LoadSummary":
        """A new summary counting both *self* and *other*."""
        return LoadSummary(
            **{name: getattr(self, name) + getattr(other, name)
               for name in _COUNTERS},
            reports=self.reports + other.reports,
        )

    @classmethod
    def from_sequenced(cls, pairs: Iterable[Tuple[int, LoadReport]]
                       ) -> "LoadSummary":
        """Fold ``(submission seq, report)`` pairs in submission order."""
        summary = cls()
        for _, report in sorted(pairs, key=lambda pair: pair[0]):
            summary.add(report)
        return summary

    def to_dict(self) -> Dict[str, Any]:
        """The counters as JSON-safe keys (manifest ``summary``, COMMITTED)."""
        return {name: getattr(self, name) for name in _COUNTERS}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "LoadSummary":
        """Inverse of :meth:`to_dict`; missing keys count as zero."""
        counts = {name: int(doc.get(name, 0))
                  for name in _COUNTERS if name != "wall_seconds"}
        return cls(**counts, wall_seconds=float(doc.get("wall_seconds", 0.0)))


#: One chunk's share of the pending rows: its pulled columns, its row
#: count and its derived bit-vectors.
_Segment = Tuple[Dict[str, List[Any]], int, Dict[int, BitVector]]


class _PendingRows:
    """The open part's loaded rows that no row group holds yet.

    Kept as the chunks' pulled columns and derived bit-vectors, in
    arrival order — never as row dicts.
    """

    def __init__(self) -> None:
        self._segments: Deque[_Segment] = deque()
        #: Rows pending across all segments.
        self.rows = 0

    def add(self, columns: Dict[str, List[Any]], rows: int,
            vectors: Dict[int, BitVector]) -> None:
        """Append one chunk's loaded rows."""
        self._segments.append((columns, rows, vectors))
        self.rows += rows

    def take(self, rows: int
             ) -> Tuple[Dict[str, List[Any]], Dict[int, BitVector]]:
        """Remove the first *rows* pending rows; return them as one row
        group's columns and bit-vectors.

        A column a chunk lacked reads as nulls there, and a bit-vector
        a chunk lacked as 1s (the row may match), so no stored 0 is
        invented.
        """
        taken: List[_Segment] = []
        needed = rows
        while needed:
            columns, count, vectors = self._segments.popleft()
            if count > needed:
                # The group boundary falls inside this chunk: split it.
                self._segments.appendleft((
                    {name: values[needed:]
                     for name, values in columns.items()},
                    count - needed,
                    {pid: bv.slice(needed, count)
                     for pid, bv in vectors.items()},
                ))
                columns = {name: values[:needed]
                           for name, values in columns.items()}
                vectors = {pid: bv.slice(0, needed)
                           for pid, bv in vectors.items()}
                count = needed
            taken.append((columns, count, vectors))
            needed -= count
        self.rows -= rows
        if len(taken) == 1:
            columns, _, vectors = taken[0]
            return columns, vectors
        names = dict.fromkeys(chain.from_iterable(
            columns for columns, _, _ in taken
        ))
        merged_columns = {
            name: list(chain.from_iterable(
                columns[name] if name in columns else [None] * count
                for columns, count, _ in taken
            ))
            for name in names
        }
        merged_vectors = {
            pid: reduce(BitVector.concat, [
                vectors[pid] if pid in vectors else BitVector.ones(count)
                for _, count, vectors in taken
            ])
            for pid in dict.fromkeys(chain.from_iterable(
                vectors for _, _, vectors in taken
            ))
        }
        return merged_columns, merged_vectors


class ClientAssistedLoader:
    """Load annotated chunks into Parquet-lite + sideline storage.

    JSON streams have no declared schema, so the loader infers one from the
    first loaded chunk and *rotates* to a new file with a widened schema
    whenever a later chunk introduces new keys or wider types — the same
    strategy streaming warehouses use for schema drift.  All produced files
    together form the table (:attr:`parquet_paths`).

    Args:
        parquet_path: Base output path; rotated parts append ``.partN``.
        side_store: Sideline store for unloaded records.
        partial_loading: Honour the load mask; off = load everything.
        schema: Optional pre-agreed schema (servers usually know one from
            historical data); inference and rotation still widen it if the
            stream disagrees.
    """

    def __init__(self, parquet_path: str | Path,
                 side_store: JsonSideStore,
                 partial_loading: bool,
                 schema: Optional[Schema] = None,
                 required_predicate_ids: Optional[Sequence[int]] = None,
                 metrics: Optional[Metrics] = None):
        self.parquet_path = Path(parquet_path)
        metrics = resolve_metrics(metrics)
        self._m_chunks = metrics.counter("loader.chunks")
        self._m_received = metrics.counter("loader.records_received")
        self._m_loaded = metrics.counter("loader.records_loaded")
        self._m_sidelined = metrics.counter("loader.records_sidelined")
        self._m_malformed = metrics.counter("loader.records_malformed")
        self._m_seconds = metrics.histogram("loader.chunk_seconds")
        self._m_seals = metrics.counter("loader.parts_sealed")
        self.side_store = side_store
        self.partial_loading = partial_loading
        self._schema = schema
        #: Ids every chunk must annotate before any of its records may be
        #: sidelined.  In heterogeneous fleets a weak client evaluates only
        #: a sub-plan; a record it did not test against some pushed
        #: predicate could still satisfy that predicate, so it must load.
        self._required_ids = (
            frozenset(required_predicate_ids)
            if required_predicate_ids is not None else None
        )
        self._writer: Optional[ParquetLiteWriter] = None
        #: Loaded rows of the open part not yet in a row group.
        self._pending = _PendingRows()
        self.parquet_paths: List[Path] = []
        self.summary = LoadSummary()
        self._finalized = False

    def _may_sideline(self, chunk: JsonChunk) -> bool:
        if not self.partial_loading:
            return False
        if self._required_ids is None:
            return bool(chunk.bitvectors)
        return self._required_ids <= set(chunk.bitvectors)

    def ingest(self, chunk: JsonChunk) -> LoadReport:
        """Load one chunk per the partial-loading policy."""
        if self._finalized:
            raise RuntimeError("loader already finalized")
        start = time.perf_counter()
        if self._may_sideline(chunk):
            mask = chunk.load_mask()
        else:
            mask = BitVector.ones(len(chunk.records))
        selected, rejected = chunk.split_by_mask(mask)

        parsed_rows: List[Mapping[str, Any]] = []
        kept_positions: List[int] = []
        malformed_positions: List[int] = []
        for position in selected:
            value, ok = try_parse(chunk.records[position])
            if ok and isinstance(value, dict):
                parsed_rows.append(value)
                kept_positions.append(position)
            else:
                malformed_positions.append(position)

        if parsed_rows:
            # One pull per column feeds both the schema and the pages.
            columns = pull_columns(parsed_rows)
            self._ensure_writer(columns)
            self._pending.add(
                columns, len(parsed_rows),
                self._derive_bitvectors(chunk, kept_positions),
            )
            while self._pending.rows >= ROW_GROUP_ROWS:
                self._write_group(ROW_GROUP_ROWS)
        # Mask-rejected AND malformed records both land in the side store,
        # in arrival order: malformed input is quarantined raw, never
        # dropped (see the module docstring for the counting invariant).
        unloaded = sorted(rejected + malformed_positions)
        if unloaded:
            self.side_store.append(
                chunk.chunk_id, (chunk.records[i] for i in unloaded)
            )
        report = LoadReport(
            chunk_id=chunk.chunk_id,
            received=len(chunk.records),
            loaded=len(parsed_rows),
            sidelined=len(rejected),
            malformed=len(malformed_positions),
            wall_seconds=time.perf_counter() - start,
        )
        self.summary.add(report)
        # The summary starts balanced, so it stays balanced iff every
        # chunk's counters partition that chunk.
        assert self.summary.accounting_ok, \
            "loader invariant violated: counters must partition the chunk"
        self._m_chunks.inc()
        self._m_received.inc(report.received)
        self._m_loaded.inc(report.loaded)
        self._m_sidelined.inc(report.sidelined)
        self._m_malformed.inc(report.malformed)
        self._m_seconds.observe(report.wall_seconds)
        return report

    def seal_part(self) -> None:
        """Close the currently open Parquet part, making it readable.

        Writes the part's pending rows as its last row group, then the
        footer.  The loader keeps accepting chunks: the next loaded chunk
        opens a fresh ``.partN`` file.  This is what lets streaming
        readers scan a consistent loaded-so-far view while ingestion
        continues — a sealed part has its footer written and is immutable
        from then on.  No-op when no part is open.
        """
        if self._writer is not None:
            self._close_writer()
            self._m_seals.inc()

    def finalize(self) -> LoadSummary:
        """Seal the Parquet-lite file; idempotent."""
        if not self._finalized:
            if self._writer is not None:
                self._close_writer()
            self._finalized = True
        return self.summary

    def close(self) -> None:
        """Stop loading without sealing the open part; idempotent.

        The open part's file closes without a footer, as a crash leaves
        it, and leaves :attr:`parquet_paths`; its pending rows are
        dropped.  Call :meth:`finalize` first to keep them.
        """
        if self._writer is not None:
            self._writer.abandon()
            self._writer = None
            self.parquet_paths.pop()
        self._finalized = True

    # ------------------------------------------------------------------
    def _write_group(self, rows: int) -> None:
        """Write the first *rows* pending rows as one row group."""
        columns, vectors = self._pending.take(rows)
        self._writer.write_columns(columns, rows, bitvectors=vectors)

    def _close_writer(self) -> None:
        """Write the pending rows, then the open part's footer."""
        if self._pending.rows:
            self._write_group(self._pending.rows)
        self._writer.close()  # ciaolint: allow[LCK002] -- ParquetLiteWriter.close takes no locks; the `.close()` name union binds wider
        self._writer = None

    def _ensure_writer(self, columns: Mapping[str, List[Any]]) -> None:
        """Open a part whose schema covers *columns*, rotating to a new
        file (after writing the old one's pending rows) when the schema
        must widen."""
        needed = infer_column_schema(columns)
        if self._schema is None:
            self._schema = needed
        elif not schema_covers(self._schema, needed):
            self._schema = merge_schemas(self._schema, needed)
            if self._writer is not None:
                self._close_writer()
        if self._writer is None:
            part = self.parquet_path.with_suffix(
                f".part{len(self.parquet_paths)}" + self.parquet_path.suffix
            )
            self._writer = ParquetLiteWriter(part, self._schema)
            self.parquet_paths.append(part)

    @staticmethod
    def _derive_bitvectors(chunk: JsonChunk,
                           kept_positions: Sequence[int]
                           ) -> Dict[int, BitVector]:
        """Restrict chunk bit-vectors to the loaded rows (paper §VI-A).

        Loaded row ``i`` of the chunk corresponds to ``kept_positions[i]``
        of the original chunk.  One :func:`~repro.bitvec.bitvector.selector`
        (an ``itemgetter`` over the kept positions) restricts every vector.
        """
        restrict = selector(kept_positions)
        return {pid: restrict(bv) for pid, bv in chunk.bitvectors.items()}
