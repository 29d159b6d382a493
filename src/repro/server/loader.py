"""The client-assisted data loader (paper §VI-A).

For every received chunk the loader:

1. computes the **load mask** — the union of the chunk's predicate
   bit-vectors (a record is loaded iff it may satisfy at least one pushed
   predicate);
2. **parses** the selected records, each with one call of the strict record
   parser :func:`repro.rawjson.parser.try_parse` (the C ``json`` decoder,
   the analogue of the paper's rapidJSON: the expensive step partial
   loading exists to avoid), and writes them as one Parquet-lite row
   group, attaching the *derived* bit-vectors (original vectors restricted
   to the loaded positions).  This write is column-major: the schema is
   inferred from each column's set of Python types, each column is coerced
   and paged in bulk, and every derived vector is one ``itemgetter``
   gather over the chunk vector's bit string — no Python call per value
   or per bit, except the per-value fallback for types the C decoder
   never produces (subclasses, values a column cannot store);
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
sideline, and the pipeline merges all shard outputs into the catalog when
loading finalizes.  Nothing in this module is shard-aware; the pipeline
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..bitvec.bitvector import BitVector, selector
from ..obs.metrics import Metrics, resolve_metrics
from ..rawjson.chunks import JsonChunk
from ..rawjson.parser import try_parse
from ..storage.columnar import ParquetLiteWriter
from ..storage.jsonstore import JsonSideStore
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
            writer = self._ensure_writer(columns)
            derived = self._derive_bitvectors(chunk, kept_positions)
            writer.write_row_group(
                parsed_rows,
                bitvectors=derived,
                source_chunk_id=chunk.chunk_id,
                columns=columns,
            )
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

        The loader keeps accepting chunks: the next loaded chunk opens a
        fresh ``.partN`` file.  This is what lets streaming readers scan a
        consistent loaded-so-far view while ingestion continues — a sealed
        part has its footer written and is immutable from then on.
        No-op when no part is open.
        """
        if self._writer is not None:
            self._writer.close()  # ciaolint: allow[LCK002] -- ParquetLiteWriter.close takes no locks; the `.close()` name union binds wider
            self._writer = None
            self._m_seals.inc()

    @property
    def sealed_paths(self) -> List[Path]:
        """Parquet parts already sealed (footer written, safe to read).

        Excludes the part currently being written, if any.
        """
        if self._writer is None:
            return list(self.parquet_paths)
        return [p for p in self.parquet_paths if p != self._writer.path]

    def finalize(self) -> LoadSummary:
        """Seal the Parquet-lite file; idempotent."""
        if not self._finalized:
            if self._writer is not None:
                self._writer.close()  # ciaolint: allow[LCK002] -- ParquetLiteWriter.close takes no locks; the `.close()` name union binds wider
                self._writer = None
            self._finalized = True
        return self.summary

    # ------------------------------------------------------------------
    def _ensure_writer(self, columns: Mapping[str, List[Any]]
                       ) -> ParquetLiteWriter:
        needed = infer_column_schema(columns)
        if self._schema is None:
            self._schema = needed
        elif not schema_covers(self._schema, needed):
            self._schema = merge_schemas(self._schema, needed)
            if self._writer is not None:
                self._writer.close()  # ciaolint: allow[LCK002] -- ParquetLiteWriter.close takes no locks; the `.close()` name union binds wider
                self._writer = None
        if self._writer is None:
            part = self.parquet_path.with_suffix(
                f".part{len(self.parquet_paths)}" + self.parquet_path.suffix
            )
            self._writer = ParquetLiteWriter(part, self._schema)
            self.parquet_paths.append(part)
        return self._writer

    @staticmethod
    def _derive_bitvectors(chunk: JsonChunk,
                           kept_positions: Sequence[int]
                           ) -> Dict[int, BitVector]:
        """Restrict chunk bit-vectors to the loaded rows (paper §VI-A).

        Row ``i`` of the row group corresponds to ``kept_positions[i]`` of
        the original chunk.  One :func:`~repro.bitvec.bitvector.selector`
        (an ``itemgetter`` over the kept positions) restricts every vector.
        """
        restrict = selector(kept_positions)
        return {pid: restrict(bv) for pid, bv in chunk.bitvectors.items()}
