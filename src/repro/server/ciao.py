"""The CIAO server facade: plan registration, ingestion, and querying.

Wires the whole server side together (Fig. 1, right):

* holds the pushdown plan (Fig. 2's predicate hashmap) and decides the
  partial-loading policy;
* ingests encoded chunks from a channel — or :class:`JsonChunk` objects
  directly — through the client-assisted loader;
* registers the loaded table in a catalog and answers SQL through the mini
  engine, with bit-vector skipping planned automatically — even *while*
  loading, against a consistent loaded-so-far snapshot of the ingest
  stream.

Partial-loading policy (``partial_loading='auto'``): enabled iff the plan
covers every query of the prospective workload, i.e. each query has at
least one pushed-down clause.  Then no prospective query ever needs the
sideline (§VI-B), so sidelining records cannot hurt those queries.  With an
uncovered workload the server loads everything — the paper's workload-C
behaviour, where loading shows no win but skipping still helps covered
queries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.annotations import guarded_by
from ..analysis.sanitizer import make_lock
from ..client.protocol import split_frames
from ..core.optimizer import PushdownPlan
from ..core.plan_io import dumps_plan, loads_plan
from ..core.predicates import Query, Workload
from ..engine.catalog import Catalog, TableEntry
from ..engine.executor import Executor, QueryResult
from ..obs.metrics import Metrics, resolve_metrics
from ..obs.querylog import QueryLog
from ..obs.tracing import Tracer
from ..rawjson.chunks import JsonChunk
from ..recovery.ledger import IngestLedger
from ..recovery.manifest import Manifest
from ..transport import Channel
from ..storage.columnar import ParquetLiteError, ParquetLiteReader
from ..storage.jsonstore import JsonSideStore, SidelineView
from ..storage.schema import Schema
from .loader import ClientAssistedLoader, LoadSummary
from .pipeline import (
    DEFAULT_SEAL_INTERVAL,
    LoadSnapshot,
    ShardedIngestPipeline,
    StreamingLoader,
    validate_server_options,
)


def _storage_paths(data_dir: Path, table_name: str,
                   generation: int) -> Tuple[Path, Path]:
    """``(parquet base, main sideline)`` paths of one generation's files."""
    stem = f"{table_name}.g{generation}" if generation else table_name
    return data_dir / f"{stem}.pql", data_dir / f"{stem}.sideline.jsonl"


class IngestSession:
    """One data source's ingest stream into a loading server.

    Multi-source loads (fleets of clients) open one session per source via
    :meth:`CiaoServer.open_ingest_session`.  A session is a thin tagged
    facade over the server's ingest path: every chunk it forwards is
    accounted to its ``source_id`` (and, on sharded servers, tagged
    through to the pipeline's per-source counters), so reports can
    attribute server-side load to individual clients.  Sessions close
    individually (:meth:`close`, or as a context manager); the server
    closes any still-open sessions at ``finalize_loading``.
    """

    def __init__(self, server: "CiaoServer", source_id: str):
        self._server = server
        self.source_id = source_id
        self.chunks = 0
        self.bytes = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once the session no longer accepts chunks."""
        return self._closed

    def ingest(self, chunk: Union[JsonChunk, bytes]) -> int:
        """Ingest one chunk or encoded message; returns frames ingested.

        Encoded payloads may carry several batched frames; each counts
        separately, exactly like :meth:`CiaoServer.ingest`.
        """
        if self._closed:
            raise RuntimeError(
                f"ingest session {self.source_id!r} is closed"
            )
        self._server._check_loading("ingest")
        frames, _ = self._server._ingest(chunk, source=self.source_id)
        self.chunks += frames
        if isinstance(chunk, (bytes, bytearray, memoryview)):
            self.bytes += len(chunk)
        return frames

    def ingest_sequenced(self, chunk: bytes, *, seq: int,
                         client_id: str) -> Tuple[int, bool]:
        """Ingest one sequenced batch; returns ``(frames, duplicate)``.

        The exactly-once path for retrying clients: *seq* is the
        client's monotonic batch number for this ``(client_id,
        source_id)`` stream, deduped by the server's ingest ledger.  A
        duplicate batch (already applied — the client's ack was lost)
        returns ``(0, True)`` without touching storage.  Only encoded
        payloads travel this path; it is what CHUNKS messages carry.
        """
        if self._closed:
            raise RuntimeError(
                f"ingest session {self.source_id!r} is closed"
            )
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            raise TypeError("sequenced ingest carries encoded payloads")
        self._server._check_loading("ingest")
        frames, duplicate = self._server._ingest(
            chunk, source=self.source_id, client_id=client_id, seq=seq
        )
        if not duplicate:
            self.chunks += frames
            self.bytes += len(chunk)
        return frames, duplicate

    def reopen(self) -> None:
        """Accept chunks again (a reconnecting client resumed the stream)."""
        self._closed = False

    def drain_channel(self, channel: Channel) -> int:
        """Drain a channel through this session; returns messages drained."""
        count = 0
        for payload in channel.drain():
            self.ingest(payload)
            count += 1
        return count

    def close(self) -> None:
        """Stop accepting chunks on this session (idempotent)."""
        self._closed = True

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CiaoServer:
    """One CIAO server instance managing one table.

    Ingestion runs through one
    :class:`~repro.server.pipeline.StreamingLoader` per shard: a serial
    server (``n_shards=1``) drives its loader inline, so a bad payload
    raises ``ProtocolError`` at ingest; with ``n_shards > 1`` a
    :class:`~repro.server.pipeline.ShardedIngestPipeline` fans encoded
    chunks across shard workers (decode + parse + write each, pulled
    from a shared work-stealing deque by default) and merges their
    outputs into the catalog at :meth:`finalize_loading`.  Either way a
    loader seals its Parquet part every *seal_interval* chunks and
    publishes it, and query results are identical to serial ingest.  A
    part's row groups are sized by rows, not by chunks: full groups of
    ``ROW_GROUP_ROWS`` (:mod:`repro.storage.rowgroup`) rows as they fill,
    the remainder when the part seals.

    Lifecycle: a server starts in state ``"loading"`` and moves to
    ``"finalized"`` at :meth:`finalize_loading`; ingesting into a
    finalized server raises ``RuntimeError`` (its storage is sealed — a
    new server/session is needed to load more data).  Every server is
    queryable *while* loading: :meth:`query` scans a consistent
    loaded-so-far snapshot (sealed parts + sideline watermarks),
    matching serial ingest of exactly the covered chunks, and
    :meth:`quiesce` makes it cover everything ingested so far.
    ``load_summary`` counts the covered chunks until loading finalizes.
    """

    def __init__(self, data_dir: str | Path,
                 plan: Optional[PushdownPlan] = None,
                 workload: Optional[Workload] = None,
                 table_name: str = "t",
                 partial_loading: str = "auto",
                 schema: Optional[Schema] = None,
                 n_shards: int = 1,
                 shard_mode: str = "process",
                 dispatch: str = "work-stealing",
                 seal_interval: int = DEFAULT_SEAL_INTERVAL,
                 metrics: Optional[Metrics] = None,
                 tracer: Optional[Tracer] = None,
                 query_log: Optional[QueryLog] = None,
                 durable: bool = False,
                 generation: int = 0):
        validate_server_options(
            shard_mode=shard_mode,
            dispatch=dispatch,
            partial_loading=partial_loading,
            n_shards=n_shards,
            seal_interval=seal_interval,
        )
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.plan = plan
        self.workload = workload
        self.table_name = table_name
        self.durable = durable
        #: Recovery generation: bumped on every :meth:`recover`, and
        #: suffixed into this generation's storage paths so a recovered
        #: server never collides with the files it inherited.
        self.generation = generation
        self.partial_loading_enabled = self._decide_partial_loading(
            partial_loading
        )
        self._parquet_path, sideline_path = _storage_paths(
            self.data_dir, table_name, generation
        )
        self._side_store = JsonSideStore(sideline_path)
        required_ids = plan.predicate_ids if plan is not None else None
        #: The loader or pipeline that owns this generation's storage;
        #: ``_pipeline`` is the same object when sharded.
        self._sink: Union[StreamingLoader, ShardedIngestPipeline]
        self._pipeline: Optional[ShardedIngestPipeline] = None
        if n_shards > 1:
            self._sink = self._pipeline = ShardedIngestPipeline(
                self._parquet_path,
                self._side_store,
                n_shards=n_shards,
                partial_loading=self.partial_loading_enabled,
                schema=schema,
                required_predicate_ids=required_ids,
                mode=shard_mode,
                dispatch=dispatch,
                seal_interval=seal_interval,
                metrics=metrics,
            )
        else:
            self._sink = StreamingLoader(
                ClientAssistedLoader(
                    self._parquet_path,
                    self._side_store,
                    partial_loading=self.partial_loading_enabled,
                    schema=schema,
                    required_predicate_ids=required_ids,
                    metrics=metrics,
                ),
                seal_interval,
            )
        self._sessions: Dict[str, IngestSession] = {}  # guarded-by: _ingest_lock
        self.catalog = Catalog()
        self._table = TableEntry(
            name=table_name,
            pushdown=(
                {e.clause: e.predicate_id for e in plan.entries}
                if plan is not None else {}
            ),
        )
        self.catalog.register(self._table)
        self._executor = Executor(self.catalog, metrics=metrics,
                                  tracer=tracer, query_log=query_log)
        self._loading_finalized = False  # guarded-by: _lifecycle_lock
        #: Compaction view: original sealed-part path → the compacted
        #: part that replaced it.  Kept flat (targets that are
        #: themselves replaced are rewritten in place), so resolving a
        #: path is one lookup, never a chain walk.
        # guarded-by: _lifecycle_lock
        self._compaction_remap: Dict[str, Path] = {}
        #: Committed compactions so far (recorded in the manifest).
        self._compaction_epoch = 0  # guarded-by: _lifecycle_lock
        #: ``(load snapshot version, compaction epoch)`` the table's view
        #: was last resolved from; the version is ``None`` once
        #: finalized.  Equal keys mean an identical view.
        # guarded-by: _lifecycle_lock
        self._view_key: Optional[Tuple[Optional[int], int]] = None
        # Serializes query() against finalize_loading(): a loading
        # server may be queried from one thread while another thread
        # finalizes (session load jobs, fleet coordinators), and the
        # finalize mutates the catalog entry a query scans.
        self._lifecycle_lock = make_lock("CiaoServer._lifecycle_lock")
        # Serializes chunk submission: both loaders assume one submitting
        # thread, but remote serving (CiaoService) ingests from one router
        # thread per connection.  Also guards _sessions registration and
        # the ingest ledger.  Ordering: finalize_loading() and checkpoint()
        # take _lifecycle_lock then _ingest_lock; ingest paths and
        # quiesce() take _ingest_lock alone — the graph stays acyclic.
        self._ingest_lock = make_lock("CiaoServer._ingest_lock")
        self._schema = schema
        self._metrics = resolve_metrics(metrics)
        self._m_checkpoints = self._metrics.counter("recovery.checkpoints")
        self._m_checkpoint_timeouts = self._metrics.counter(
            "recovery.checkpoint_timeouts"
        )
        self._m_manifest_writes = self._metrics.counter(
            "recovery.manifest_writes"
        )
        self._m_duplicates = self._metrics.counter(
            "recovery.duplicates_dropped"
        )
        #: Deployment knobs as resolved at construction — persisted in
        #: the manifest so recovery rebuilds an equivalent server.
        self._options: Dict[str, Any] = {
            "n_shards": n_shards,
            "shard_mode": shard_mode,
            "dispatch": dispatch,
            "seal_interval": seal_interval,
            "partial_loading": (
                "on" if self.partial_loading_enabled else "off"
            ),
        }
        self._ledger = IngestLedger()  # guarded-by: _ingest_lock
        #: Ledger watermarks as of the last manifest write: the durable
        #: cut clients may safely prune their replay buffers to.
        # guarded-by: _ingest_lock
        self._durable_seqs: Dict[Tuple[str, str], int] = {}
        #: Parts and load counts inherited from a previous generation via
        #: recover() (its sideline opens this generation's main file).
        self._recovered_parts: List[Path] = []
        self._summary_baseline = LoadSummary()
        self._manifest_events: List[str] = []  # guarded-by: _lifecycle_lock
        self._manifest: Optional[Manifest] = None
        if durable:
            self._manifest = Manifest(
                Manifest.path_for(self.data_dir, table_name)
            )
            # A pre-existing manifest belongs to the generation being
            # recovered: leave it durable until recover() (or the first
            # checkpoint) writes this generation's state over it.
            if not self._manifest.exists:
                with self._lifecycle_lock, self._ingest_lock:
                    self._write_manifest_locked("created")

    @property
    def state(self) -> str:
        """Explicit lifecycle state: ``"loading"`` or ``"finalized"``."""
        return "finalized" if self._loading_finalized else "loading"

    @property
    def manifest_revision(self) -> Optional[int]:
        """The durable manifest's current revision; ``None`` if not durable."""
        if self._manifest is None:
            return None
        return self._manifest.revision

    @property
    def deployment_options(self) -> Dict[str, Any]:
        """The deployment knobs as resolved at construction."""
        return dict(self._options)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def ingest(self, chunk: Union[JsonChunk, bytes]) -> None:
        """Ingest one chunk (decoded or wire-encoded).

        Sharded servers forward encoded payloads verbatim — the shard
        worker decodes them off the submitting thread.  Encoded payloads
        may carry several batched frames
        (:func:`repro.client.protocol.encode_frame_batch`); each frame is
        ingested as its own chunk.

        Raises ``RuntimeError`` once the server is finalized: storage is
        sealed at that point, so feeding it more data would be silently
        lost — start a new server/session instead.
        """
        self._check_loading("ingest")
        self._ingest(chunk)

    def _ingest(self, payload: Union[JsonChunk, bytes],
                source: Optional[str] = None, *, framed: bool = False,
                client_id: Optional[str] = None,
                seq: Optional[int] = None) -> Tuple[int, bool]:
        """The one ingest path; returns ``(frames, duplicate)``.

        *payload* is a decoded chunk or an encoded, possibly batched,
        payload (*framed*: a single frame already split off a batch).
        Encoded frames go to the loader verbatim: a shard worker decodes
        them off the submitting thread, the serial loader strictly here,
        so there a malformed payload raises ``ProtocolError``.

        Safe to call from many threads: remote serving ingests from one
        router thread per connection, while the serial loader and the
        pipeline's ``submit`` both assume a single submitter.  With a
        *seq*, ledger admission, the ingest and the watermark advance
        share one critical section, so "the ledger says applied" and
        "the rows are in storage" can never disagree — the invariant
        that makes client replays exactly-once.  A duplicate batch
        returns ``(0, True)`` without touching storage.
        """
        single = isinstance(payload, JsonChunk)
        with self._ingest_lock:
            if seq is not None and \
                    not self._ledger.admit(client_id, source, seq):
                self._m_duplicates.inc()
                return 0, True
            units = [payload] if single or framed else split_frames(payload)
            count = 0
            for unit in units:
                self._sink.submit(unit)
                count += 1
            if seq is not None:
                self._ledger.advance(client_id, source, seq)
            return count, False

    def ledger_last(self, client_id: str, source_id: str) -> int:
        """The ingest ledger's watermark for one client stream."""
        with self._ingest_lock:
            return self._ledger.last(client_id, source_id)

    def durable_seq(self, client_id: str, source_id: str) -> int:
        """The stream's last *durable* batch — safe to prune replays to.

        For a durable server this is the watermark as of the last
        manifest write (an acked-but-uncheckpointed batch still dies
        with the process, so the client must keep it).  A non-durable
        server has nothing to recover into — a crash loses the whole
        table regardless — so its live watermark is the honest answer.
        """
        with self._ingest_lock:
            if self._manifest is None:
                return self._ledger.last(client_id, source_id)
            return self._durable_seqs.get((client_id, source_id), 0)

    def ledger_records(self) -> List[List[Any]]:
        """JSON-safe ledger snapshot (for STATS and diagnostics)."""
        with self._ingest_lock:
            return self._ledger.to_records()

    def ingest_channel(self, channel: Channel) -> int:
        """Drain a channel; returns the number of chunk frames ingested.

        Batched messages (``Channel.send_batch``) are split back into
        individual chunk frames, so the count is chunks, not messages.
        Frames coming off ``drain_chunks`` are already split, so they go
        straight to the loader/pipeline without :meth:`ingest`'s re-split
        (each split walks the frame header).
        """
        self._check_loading("ingest_channel")
        count = 0
        for frame in channel.drain_chunks():
            self._ingest(frame, framed=True)
            count += 1
        return count

    def open_ingest_session(self, source_id: str) -> IngestSession:
        """Open a tagged ingest stream for one data source.

        Fleet loads open one session per client so server-side accounting
        (:attr:`ingest_sources`) can attribute chunks to their origin.
        Source ids are single-use per server: reusing one — even after
        its session closed — raises ``ValueError``, because per-source
        accounting would conflate the two streams.
        """
        self._check_loading("open_ingest_session")
        with self._ingest_lock:
            existing = self._sessions.get(source_id)
            if existing is not None and not existing.closed:
                raise ValueError(
                    f"ingest session {source_id!r} is already open"
                )
            if existing is not None:
                raise ValueError(
                    f"source {source_id!r} already ingested on this "
                    f"server; per-source accounting would conflate the "
                    f"two streams"
                )
            session = IngestSession(self, source_id)
            self._sessions[source_id] = session
            return session

    def resume_ingest_session(self, source_id: str) -> IngestSession:
        """Reopen (or create) the ingest stream for a returning source.

        The reconnect path: unlike :meth:`open_ingest_session`, reusing
        a source id here is the *point* — the returning client is the
        same source continuing the same stream, so its accounting keeps
        accumulating and the ingest ledger keeps deduping its replays.
        """
        self._check_loading("resume_ingest_session")
        with self._ingest_lock:
            existing = self._sessions.get(source_id)
            if existing is not None:
                existing.reopen()
                return existing
            session = IngestSession(self, source_id)
            self._sessions[source_id] = session
            return session

    @property
    def ingest_sources(self) -> Dict[str, int]:
        """Chunk frames ingested per source id (open + closed sessions)."""
        with self._ingest_lock:
            return {
                source_id: session.chunks
                for source_id, session in self._sessions.items()
            }

    def _check_loading(self, operation: str) -> None:
        if self._loading_finalized:
            raise RuntimeError(
                f"{operation}() on a finalized server: loading sealed at "
                f"finalize_loading(); create a new server/session to load "
                f"more data into table {self.table_name!r}"
            )

    def finalize_loading(self) -> LoadSummary:
        """Seal storage and make the whole table queryable; idempotent.

        For a sharded server this is the merge point: shard loaders are
        sealed, their Parquet parts registered (shard-major order) and
        their sidelines folded into the table's store.
        """
        with self._lifecycle_lock, self._ingest_lock:
            for session in self._sessions.values():
                session.close()  # ciaolint: allow[LCK002] -- IngestSession.close only flips a flag; `.close()` name union binds wider
            summary = self._summary_baseline.merged(self._sink.finalize())
            if not self._loading_finalized:
                self._loading_finalized = True
                self._refresh_view()
            if self._manifest is not None:
                self._write_manifest_locked("finalized")
            return summary

    @property
    def load_summary(self) -> LoadSummary:
        """Loading statistics so far.

        Mid-load, the chunks covered by the current snapshot (the same
        view queries see; :meth:`quiesce` covers everything ingested);
        once finalized, the complete merged summary.
        """
        if self._loading_finalized:
            summary = self._sink.summary
        else:
            summary = self._sink.snapshot().summary
        return self._summary_baseline.merged(summary)

    # ------------------------------------------------------------------
    # The table view: one part set behind queries, compaction and the
    # manifest
    # ------------------------------------------------------------------
    @guarded_by("_lifecycle_lock")
    def _view(self, snap: Optional[LoadSnapshot] = None
              ) -> Tuple[str, List[Path], List[Tuple[Path, int]],
                         LoadSummary]:
        """The table as it stands: ``(state, parts, sidelines, summary)``.

        The single answer to "which parts and sideline segments make up
        the table now", read by queries, compaction, checkpoints and
        recovery alike.  Parts are the recovered base followed by this
        generation's own — the loader's or pipeline's published snapshot
        while loading, every part once finalized — resolved through the
        compaction remap.  Sidelines are ``(path, records)`` prefixes of
        append-only files, passed through from the snapshot unchanged
        while loading (this generation's main file, which opens with
        the recovered records, then any shard files); the whole main
        file once finalized.  The summary counts exactly what the parts
        and sidelines cover.  *snap* is the load snapshot to read while
        loading, if the caller took one already.
        """
        if self._loading_finalized:
            store = self._side_store
            parts, summary = self._sink.parquet_paths, self._sink.summary
            sidelines = [(store.path, store.record_count)]
        else:
            if snap is None:
                snap = self._sink.snapshot()
            parts, summary = snap.parquet_paths, snap.summary
            sidelines = snap.sidelines
        return (
            self.state,
            self._remap_parts(self._recovered_parts + list(parts)),
            sidelines,
            self._summary_baseline.merged(summary),
        )

    @guarded_by("_lifecycle_lock")
    def _refresh_view(self) -> None:
        """Point the catalog table at the current view.

        One call in either state, resolved once per publication: while
        the load snapshot's version and the compaction epoch are the
        ones the view was last resolved from, the view is unchanged and
        this returns at once.  Otherwise the table compares the view
        with the one it scans and ignores an unchanged one, so parts
        still in it keep their cached readers (and, mid-load, partial
        aggregates) and sideline files still in it their parsed
        prefixes.  A newly sealed part or a committed compaction always
        registers.
        """
        snap = None if self._loading_finalized else self._sink.snapshot()
        key = (None if snap is None else snap.version,
               self._compaction_epoch)
        if key == self._view_key:
            return
        state, parts, sidelines, _ = self._view(snap)
        self._table.set_view(parts, sidelines, live=state != "finalized")
        self._view_key = key

    @guarded_by("_lifecycle_lock")
    def _remap_parts(self, parquet_paths: Iterable[Path]) -> List[Path]:
        """Resolve raw sealed-part paths through the compaction remap.

        Several inputs of one merge resolve to the same output; the
        first occurrence keeps its position and later ones drop, so the
        resolved list preserves ingest order with no duplicates.
        """
        resolved: List[Path] = []
        seen: set = set()
        for path in parquet_paths:
            target = self._compaction_remap.get(str(Path(path)))
            if target is None:
                target = Path(path)
            key = str(target)
            if key not in seen:
                seen.add(key)
                resolved.append(target)
        return resolved

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """Execute one SQL statement against the loaded table.

        Every server answers queries **while loading**: the statement
        runs against a consistent loaded-so-far snapshot (sealed parts
        plus sideline watermarks), so results equal serial ingest of
        exactly the chunks covered so far, and ingestion keeps running;
        a query never finalizes.  Chunks ingested since the last seal
        are absent until the next one (or :meth:`quiesce`).  A statement
        is planned once per view.  Repeated mid-load *aggregate* queries
        are incremental: sealed parts are immutable, so the plan keeps
        per-part partial aggregates by (part, query fingerprint) and
        each successive snapshot query scans only the parts sealed
        since it last ran plus the sideline delta
        (:mod:`repro.engine.snapcache`; answers are identical to a cold
        scan of the same snapshot; ``result.stats`` counts the cache
        hits).  Call :meth:`finalize_loading` to seal the load and query
        the whole table.

        Queries serialize against a concurrent :meth:`finalize_loading`
        (and against each other): a statement sees either a consistent
        mid-load snapshot or the final table, never the transition.
        """
        with self._lifecycle_lock:
            if not self._loading_finalized:
                self._refresh_view()
            return self._executor.execute(sql)

    # ------------------------------------------------------------------
    # Compaction (repro.compact drives these)
    # ------------------------------------------------------------------
    def sealed_parts(self) -> List[Path]:
        """The immutable parts a compactor may rewrite right now.

        The current view's parts: the full part list once finalized,
        the published snapshot's sealed parts while loading — both
        through the compaction remap, so already-replaced parts never
        reappear.
        """
        with self._lifecycle_lock:
            return self._view()[1]

    def commit_compaction(self, inputs: Iterable[Path],
                          output: Path | str) -> None:
        """Atomically swap compacted *inputs* for their merged *output*.

        Holding the lifecycle lock makes the swap atomic with respect
        to queries (a statement holds the same lock for its whole
        execution): every query sees either the old parts or the new
        part, never a mix.  The remap is updated first — flattening any
        earlier entries that pointed at a part now being replaced — so
        the view resolves to live parts no matter when it is read; the
        table and the manifest are then re-pointed at that view.
        """
        output = Path(output)
        with self._lifecycle_lock:
            replaced = {str(Path(p)) for p in inputs}
            for key, target in list(self._compaction_remap.items()):
                if str(target) in replaced:
                    self._compaction_remap[key] = output
            for key in replaced:
                self._compaction_remap[key] = output
            self._compaction_epoch += 1
            self._refresh_view()
            if self._manifest is not None:
                # A compactor running remove_inputs=True may unlink
                # manifest-listed parts; refresh the manifest past the
                # swap so recovery never chases deleted files.  Best
                # effort: a quiesce timeout (a dead or wedged shard,
                # counted in recovery.checkpoint_timeouts) leaves the
                # previous (stale but readable) revision in place, and
                # finalize_loading() reports the failed shard.
                try:
                    self._checkpoint_locked(
                        f"compaction epoch={self._compaction_epoch}"
                    )
                except TimeoutError:
                    pass

    # ------------------------------------------------------------------
    # Durability: the manifest, checkpoints, and crash recovery
    # ------------------------------------------------------------------
    def checkpoint(self, timeout: float = 30.0) -> bool:
        """Write a durable manifest revision; returns True if one landed.

        The durable cut: quiesce the load (:meth:`quiesce`: the loader
        or every shard seals and publishes everything submitted before
        it), so every submitted chunk is sealed or sidelined, then
        atomically record the sealed parts, sideline watermarks, ledger,
        and summary *as of that moment*.  A kill -9 after this call
        loses nothing at or before it.  Returns ``False`` on a
        non-durable server, which has nothing to write.  Raises
        :class:`TimeoutError` (counted in ``recovery.checkpoint_timeouts``)
        when a sharded flush does not complete within *timeout* — a
        dead or wedged shard.
        """
        if self._manifest is None:
            return False
        with self._lifecycle_lock:
            self._checkpoint_locked("checkpoint", timeout)
            self._m_checkpoints.inc()
            return True

    @guarded_by("_lifecycle_lock")
    def _checkpoint_locked(self, event: str, timeout: float = 30.0) -> None:
        """Quiesce the load (if one runs), then persist the view."""
        with self._ingest_lock:
            if not self._loading_finalized:
                try:
                    self._sink.quiesce(timeout)
                except TimeoutError:
                    self._m_checkpoint_timeouts.inc()
                    raise
            self._write_manifest_locked(event)

    def _relpath(self, path: Path) -> str:
        path = Path(path)
        try:
            return str(path.relative_to(self.data_dir))
        except ValueError:
            return str(path)

    @guarded_by("_lifecycle_lock", "_ingest_lock")
    def _write_manifest_locked(self, event: str) -> None:
        """Record *event* and atomically persist the view as a revision.

        Requires both the lifecycle and ingest locks: the part list,
        the ledger, and the summary must all describe the same instant.
        """
        state, parts, sidelines, summary = self._view()
        self._manifest_events.append(event)
        part_records = []
        for path in parts:
            record: Dict[str, Any] = {"path": self._relpath(path)}
            try:
                record["bytes"] = path.stat().st_size
            except OSError:
                record["bytes"] = None
            part_records.append(record)
        sideline_records = [
            {"path": self._relpath(path), "records": int(records)}
            for path, records in sidelines
            if records
        ]
        doc = {
            "table": self.table_name,
            "generation": self.generation,
            "state": state,
            "plan": dumps_plan(self.plan) if self.plan is not None else None,
            "schema": (
                self._schema.to_dict() if self._schema is not None
                else None
            ),
            "options": dict(self._options),
            "parts": part_records,
            "sideline": sideline_records,
            "summary": summary.to_dict(),
            "ledger": self._ledger.to_records(),
            "compaction_epoch": self._compaction_epoch,
            "events": list(self._manifest_events),
        }
        self._manifest.write(doc)
        self._durable_seqs = self._ledger.snapshot()
        self._m_manifest_writes.inc()

    @staticmethod
    def _validate_part(path: Path) -> bool:
        """Whether *path* is a readable, footer-intact Parquet-lite part."""
        try:
            reader = ParquetLiteReader(path)
        except (ParquetLiteError, OSError, ValueError):
            return False
        reader.close()
        return True

    @classmethod
    def recover(cls, data_dir: str | Path,
                table_name: str = "t",
                workload: Optional[Workload] = None,
                metrics: Optional[Metrics] = None,
                tracer: Optional[Tracer] = None,
                query_log: Optional[QueryLog] = None) -> "CiaoServer":
        """Rebuild a durable server from its manifest after a crash.

        Reads the manifest's last complete revision, validates every
        listed part (a torn or missing file is quarantined — renamed
        aside and counted, never trusted and never fatal), quarantines
        the table's parts the manifest does not list, re-plays the
        durable sideline prefix into a fresh generation's store, and
        restores the plan, schema, summary counts, and ingest ledger.
        The result is a live server one generation up: a finalized
        manifest yields a finalized, queryable server; a mid-load
        manifest yields a loading server that reconnecting clients
        resume into (their replays deduped from the recovered ledger).
        Answers over the recovered sealed set are byte-identical to a
        never-crashed server over the same parts.
        """
        data_dir = Path(data_dir)
        manifest, doc = Manifest.load(
            Manifest.path_for(data_dir, table_name)
        )
        mx = resolve_metrics(metrics)
        m_recovered = mx.counter("recovery.parts_recovered")
        m_quarantined = mx.counter("recovery.parts_quarantined")
        m_sideline_lost = mx.counter("recovery.sideline_records_lost")
        parts: List[Path] = []
        quarantined: List[str] = []

        def quarantine(path: Path) -> None:
            """Rename *path* aside (never trusted, never fatal) and count it."""
            m_quarantined.inc()
            quarantined.append(path.name)
            if path.exists():
                try:
                    path.rename(path.parent / (path.name + ".quarantined"))
                except OSError:
                    pass  # unreadable either way; recovery proceeds

        for record in doc.get("parts", []):
            path = data_dir / str(record.get("path", ""))
            if cls._validate_part(path):
                parts.append(path)
                m_recovered.inc()
            else:
                quarantine(path)
        # A part no manifest lists is dead: the crashed generation's
        # unsealed part, or a compaction output never committed.
        listed = {data_dir / str(record.get("path", ""))
                  for record in doc.get("parts", [])}
        for path in sorted(data_dir.glob("*.pql")):
            if path.name.startswith(f"{table_name}.") and \
                    path not in listed:
                quarantine(path)
        plan_text = doc.get("plan")
        schema_doc = doc.get("schema")
        generation = int(doc.get("generation", 0)) + 1
        # Materialize the durable sideline prefix into this generation's
        # main store before the server opens it: the table's view lists
        # segments of files this generation owns, so the recovered
        # records open that file and the load appends after them.
        pairs: List[Tuple[int, str]] = []
        expected = 0
        for record in doc.get("sideline", []):
            records = int(record.get("records", 0))
            expected += records
            view_path = data_dir / str(record.get("path", ""))
            if view_path.exists():
                pairs.extend(SidelineView(view_path, records).iter_raw())
        if len(pairs) < expected:
            m_sideline_lost.inc(expected - len(pairs))
        if pairs:
            _, sideline_path = _storage_paths(data_dir, table_name,
                                              generation)
            JsonSideStore(sideline_path).append_pairs(pairs)
        # The manifest's options are the constructor's own keywords;
        # the defaults only fill in for keys a manifest lacks (older
        # servers, which could switch sealing off, wrote a null interval).
        options = {"partial_loading": "off", "shard_mode": "thread",
                   **doc.get("options", {})}
        options["seal_interval"] = (options.get("seal_interval")
                                    or DEFAULT_SEAL_INTERVAL)
        server = cls(
            data_dir,
            plan=loads_plan(plan_text) if plan_text else None,
            workload=workload,
            table_name=table_name,
            schema=Schema.from_dict(schema_doc) if schema_doc else None,
            metrics=metrics,
            tracer=tracer,
            query_log=query_log,
            durable=True,
            generation=generation,
            **options,
        )
        server._manifest.revision = manifest.revision
        server._recovered_parts = parts
        # A recovered server's own loader/pipeline sees only this
        # generation's chunks; the baseline carries the counts the
        # manifest proved durable, so totals cover the whole table.
        server._summary_baseline = LoadSummary.from_dict(
            doc.get("summary") or {}
        )
        with server._lifecycle_lock, server._ingest_lock:
            server._ledger = IngestLedger.from_records(
                doc.get("ledger", [])
            )
            server._manifest_events = list(doc.get("events", []))
            if doc.get("state") == "finalized":
                server._loading_finalized = True
                server._refresh_view()
            event = f"recovered generation={generation}"
            if quarantined:
                event += f" quarantined={','.join(quarantined)}"
            server._write_manifest_locked(event)
        return server

    def quiesce(self, timeout: float = 30.0) -> None:
        """Make every ingested chunk visible to queries.

        Seals and publishes the open part: inline on a serial server,
        through a flush of the shard workers on a sharded one (see
        :meth:`ShardedIngestPipeline.quiesce`), so it costs the flush
        work, not an idle wait.  Useful to make "query the prefix
        ingested so far" deterministic in tests and benchmarks.  The
        server stays ``"loading"``; a no-op once finalized.
        """
        with self._ingest_lock:
            if not self._loading_finalized:
                self._sink.quiesce(timeout)

    def run_workload(self, queries: Iterable[Query]
                     ) -> List[QueryResult]:
        """Execute core-model queries via their SQL renderings."""
        return [self.query(q.sql(self.table_name)) for q in queries]

    def close(self) -> None:
        """Release the server's open files; idempotent.

        Closes the table's cached part readers (a later query reopens the
        parts it reads) and, on a serial server still loading, the open
        part's writer: that part is left unsealed, as a crash leaves it,
        and the server takes no more chunks.  Call
        :meth:`finalize_loading` first to keep the chunks ingested since
        the last seal.  A sharded server's workers own their writers and
        close them at :meth:`finalize_loading`.
        """
        with self._lifecycle_lock, self._ingest_lock:
            if self._pipeline is None:
                self._sink.loader.close()  # ciaolint: allow[LCK002] -- ClientAssistedLoader.close takes no locks; the `.close()` name union binds wider
            self._table.close_readers()

    @property
    def table(self) -> TableEntry:
        """The managed table's catalog entry."""
        return self._table

    def update_plan(self, plan: PushdownPlan) -> None:
        """Swap in a replanned pushdown registry (adaptive replanning).

        Affects the query path immediately: queries matching the new
        plan's clauses resolve to its predicate ids.  Row groups loaded
        before the new predicates existed have no vectors for them and
        are scanned fully (the engine's missing-vector rule), so answers
        stay exact; data ingested by future sessions carries the new
        annotations.  Retained clauses keep their ids (see
        :mod:`repro.core.adaptive`), so their historical vectors keep
        skipping.  The table drops the plans it prepared against the
        old registry.
        """
        self.plan = plan
        self._table.set_pushdown({
            e.clause: e.predicate_id for e in plan.entries
        })

    # ------------------------------------------------------------------
    def _decide_partial_loading(self, mode: str) -> bool:
        # The mode itself was validated up front by
        # validate_server_options; only policy resolution happens here.
        if mode == "on":
            return True
        if mode == "off":
            return False
        if self.plan is None or len(self.plan) == 0:
            return False
        if self.workload is None:
            # No prospective workload to check coverage against: be
            # conservative, exactly like a baseline server.
            return False
        return all(self.plan.covers_query(q) for q in self.workload)
