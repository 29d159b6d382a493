"""Sharded, pipelined ingest with streaming snapshots and work stealing.

One :class:`~repro.server.loader.ClientAssistedLoader` is strictly serial —
decode, parse, and write happen on the caller's thread, so a server draining
many client channels leaves every other core idle and the expensive JSON
parse on the critical path.  This module fans that work out (Fig. 1's server
box, scaled horizontally) and, unlike the paper's load-then-query lifecycle,
keeps the table queryable *while* loading:

Architecture::

    submit(payload) ──▶ shared work deque ─▶ worker 0 (local queue) ┐
    quiesce(): one      (work stealing:      worker 1 (local queue) ├─▶
      flush token per   idle workers pull    ...                    │
      shard, queued     the oldest chunk)    worker N (local queue) ┘
      behind chunks          │                        │
                             │        seal part every K chunks, on a
                             │        flush token, on idle, or at the
                             │        stop sentinel (finalize); publish
                             │        (sealed parts, sideline watermark,
                             │        per-chunk reports)
                             ▼                        ▼
                        snapshot() ◀──────lock-protected merge──────┘

* **Shard workers.**  Each worker owns a private
  :class:`ClientAssistedLoader` writing shard-local Parquet-lite parts
  (``table.shardK[.partM].pql``) and a shard-local sideline file.  Encoded
  payloads are shipped raw to the worker, which decodes them there
  (:func:`repro.client.protocol.decode_chunk` walks a zero-copy
  ``memoryview`` cursor), so the submitting thread does no per-chunk work
  beyond a queue put.
* **Work-stealing dispatch** (``dispatch="work-stealing"``, the default).
  Chunks go into one shared deque; each worker pulls the oldest pending
  chunk (grabbing a small local batch to amortize queue traffic) whenever
  it runs dry.  Skewed chunk sizes therefore spread across shards instead
  of serializing on whichever shard round-robin happened to hand the big
  chunks to.  Which shard processes which chunk is timing-dependent, but
  everything the equivalence tests observe is assignment-invariant: merged
  reports are folded in submission order, and the engine scans a
  table as the unordered union of its Parquet parts plus sideline.
  ``dispatch="round-robin"`` restores the old deterministic mapping (chunk
  *k* → shard ``k % n_shards``, reproducible shard files) for layout tests
  and as the bench baseline.
* **Streaming snapshots** (``seal_interval``).  Each worker drives a
  :class:`StreamingLoader` — the same one a serial
  :class:`~repro.server.ciao.CiaoServer` runs inline — which seals its
  current Parquet part every *seal_interval* chunks and publishes
  ``(sealed part paths, sideline record watermark, per-chunk reports)``.
  Workers also publish whenever their queue goes idle, so snapshots stay
  fresh while the submitter pauses.  :meth:`snapshot` merges those
  publications under a lock into a :class:`LoadSnapshot` — a consistent
  loaded-so-far view the query engine can scan mid-load: every covered
  chunk has *all* its rows either in a sealed part or below the sideline
  watermark, exactly as serial ingest of those chunks would have placed
  them.
* **Flush barrier** (:meth:`~ShardedIngestPipeline.quiesce`).  A durable
  checkpoint needs "everything submitted is covered" now, not after the
  workers next go idle.  quiesce queues one flush token per shard behind
  every submitted chunk; a worker that takes one seals and publishes at
  once, then parks on a barrier until every shard has taken one (so under
  work stealing each worker takes exactly one token), and quiesce blocks
  on those publications until every chunk is covered — its cost is the
  real flush work.  A flush that fails (timeout, shard error) aborts the
  barrier so parked workers go back to draining.
* **Finalize is the last publication.**  :meth:`finalize` sends every
  worker its stop sentinel; a worker publishes its last chunks and seals
  its part, and the pipeline collects one terminal message per shard.
  The final :meth:`snapshot` is then the whole load: Parquet parts in
  shard order, the table's recovered sideline segment followed by one
  segment per shard sideline, and reports folded in submission order
  (``LoadSummary.from_sequenced``), identical to what serial ingest of
  the same stream would report.  Shard sidelines stay where they were
  written, so the parsed prefixes queries cached mid-load stay valid.

Correctness: every record lands in exactly one shard, each shard preserves
its loader's invariants (``received == loaded + sidelined + malformed``
per chunk, malformed records quarantined raw in the sideline), and the
engine already scans a table as the union of its Parquet parts plus its
sideline segments — so query results match serial ingest exactly; only
row-group *order* across files differs, which no aggregate observes.

Execution modes: ``mode="process"`` (default) forks one worker process per
shard — under CPython's GIL this is the only way decode+parse actually runs
in parallel; ``mode="thread"`` runs workers as daemon threads in-process,
which keeps tests fast and would parallelize on free-threaded builds.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.annotations import guarded_by
from ..analysis.sanitizer import make_lock
from ..client.protocol import decode_chunk
from ..obs.metrics import Metrics, resolve_metrics
from ..rawjson.chunks import JsonChunk
from ..storage.jsonstore import JsonSideStore
from ..storage.schema import Schema
from .loader import ClientAssistedLoader, LoadReport, LoadSummary

#: Bounded per-shard queue depth: backpressure instead of unbounded RAM.
DEFAULT_QUEUE_DEPTH = 64

#: Chunks a streaming loader ingests between part seals.
DEFAULT_SEAL_INTERVAL = 8

#: How long a worker blocks on its queue before treating itself as idle
#: (idle workers seal + publish so mid-load snapshots stay fresh while the
#: submitter pauses; quiesce() never waits on this — it flushes).
_IDLE_POLL_SECONDS = 0.05

#: Flush token: queued behind every submitted chunk by quiesce().  A
#: worker that takes it seals + publishes, then parks on the flush
#: barrier until every shard has taken one.
_FLUSH = "flush"

#: Longest single blocking read of the out-queue while holding ``_lock``
#: (bounds how long a concurrent snapshot() waits on a silent shard).
_PUMP_SLICE_SECONDS = 0.5

#: Extra chunks a worker pulls in one shared-deque visit (work stealing).
_GRAB_BATCH = 4

#: How long finalize() keeps waiting on silent surviving workers after a
#: sibling died.  A killed process can take the shared work-stealing
#: queue's reader lock (or the flush barrier's lock) with it, leaving
#: survivors blocked forever — after this grace they are abandoned (the
#: load already failed) instead of hanging finalize.
_ABANDON_GRACE_SECONDS = 5.0


_SHARD_MODES = ("process", "thread")
_DISPATCH_MODES = ("work-stealing", "round-robin")
_PARTIAL_LOADING_MODES = ("auto", "on", "off")


def validate_server_options(shard_mode: str = "process",
                            dispatch: str = "work-stealing",
                            partial_loading: str = "auto",
                            n_shards: int = 1,
                            seal_interval: int = DEFAULT_SEAL_INTERVAL
                            ) -> None:
    """The single validation path for server deployment knobs.

    Shared by :class:`ShardedIngestPipeline`, the
    :class:`~repro.server.ciao.CiaoServer` constructor and the
    deployment-level :class:`repro.api.DeploymentConfig`, so an invalid
    option produces the same error message no matter which layer it
    entered through — the paths cannot drift apart.
    """
    if shard_mode not in _SHARD_MODES:
        raise ValueError(
            f"shard_mode must be one of {_SHARD_MODES}, "
            f"got {shard_mode!r}"
        )
    if dispatch not in _DISPATCH_MODES:
        raise ValueError(
            f"dispatch must be one of {_DISPATCH_MODES}, "
            f"got {dispatch!r}"
        )
    if partial_loading not in _PARTIAL_LOADING_MODES:
        raise ValueError(
            f"partial_loading must be 'auto', 'on' or 'off', "
            f"got {partial_loading!r}"
        )
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if seal_interval < 1:
        raise ValueError(f"seal_interval must be >= 1, got {seal_interval}")


class IngestPipelineError(RuntimeError):
    """One or more shard workers failed during a parallel load."""


@dataclass
class LoadSnapshot:
    """A consistent loaded-so-far view of a load (after finalize, the
    whole load: finalize is the last publication).

    Attributes:
        version: Monotonic change counter — equal versions mean an
            identical view, so readers can cache derived state.
        parquet_paths: Sealed (immutable, footer-written) Parquet-lite
            parts, shard-major order.
        sidelines: ``(path, records)`` segments of the sideline files,
            each ending at its writer's published watermark — the
            sideline part of the table's view (see
            :class:`repro.engine.catalog.TableEntry`).
        summary: Merged accounting for exactly the covered chunks, with
            reports in submission order — what serial ingest of those
            chunks would report (modulo wall time).
        submitted: Chunks submitted when the snapshot was taken;
            ``submitted - summary.chunks`` are still in flight.
    """

    version: int
    parquet_paths: List[Path] = field(default_factory=list)
    sidelines: List[Tuple[Path, int]] = field(default_factory=list)
    summary: LoadSummary = field(default_factory=LoadSummary)
    submitted: int = 0

    @property
    def chunks(self) -> int:
        """Number of chunks covered by this snapshot."""
        return self.summary.chunks

    @property
    def complete(self) -> bool:
        """True when every submitted chunk is covered."""
        return self.summary.chunks == self.submitted


class StreamingLoader:
    """A loader that seals and publishes a part every *seal_interval* chunks.

    The one mechanism that makes a load queryable while it runs: a serial
    :class:`~repro.server.ciao.CiaoServer` drives one inline, and each
    shard worker of :class:`ShardedIngestPipeline` drives its own.  A
    *publication* (every *seal_interval* chunks, and on :meth:`publish`)
    seals the open part — the loader writes the part's pending rows as
    its last row group (every earlier group holds ``ROW_GROUP_ROWS``
    rows, written as they filled), then the footer — and fixes the
    sealed parts, the sideline watermark and the covered chunks' reports; :meth:`snapshot` is the
    last one, a :class:`LoadSnapshot` assigned whole at the seal, so a
    reader on another thread never sees half a chunk.  Records the side
    store held before the load (a recovered prefix) are covered from the
    start.  *on_publish* gets each publication's delta ``(new parts,
    watermark, new (seq, report) pairs)``.
    """

    def __init__(self, loader: ClientAssistedLoader, seal_interval: int,
                 on_publish: Optional[Callable[
                     [List[Path], int, List[Tuple[int, LoadReport]]], None
                 ]] = None):
        self.loader = loader
        self.seal_interval = seal_interval
        self._on_publish = on_publish
        #: ``(seq, report)`` of every ingested chunk, in ingest order.
        self.reports: List[Tuple[int, LoadReport]] = []
        side = loader.side_store
        self._snapshot = LoadSnapshot(
            version=0,
            sidelines=[(side.path, side.record_count)]
            if side.record_count else [],
        )

    def submit(self, payload: Union[JsonChunk, bytes, bytearray, memoryview],
               seq: Optional[int] = None) -> None:
        """Ingest one chunk, decoding an encoded one (strictly).

        *seq* orders the report among a pipeline's shards; by default
        chunks are numbered in ingest order.
        """
        if not isinstance(payload, JsonChunk):
            payload = decode_chunk(payload)
        seq = len(self.reports) if seq is None else seq
        self.reports.append((seq, self.loader.ingest(payload)))
        if len(self.reports) - self._snapshot.chunks >= self.seal_interval:
            self.publish()

    def publish(self) -> None:
        """Seal and publish the chunks since the last publication, if any."""
        snap = self._snapshot
        new_reports = self.reports[snap.chunks:]
        if not new_reports:
            return
        self.loader.seal_part()
        new_parts = self.loader.parquet_paths[len(snap.parquet_paths):]
        side = self.loader.side_store
        watermark = side.record_count
        self._snapshot = LoadSnapshot(
            version=snap.version + 1,
            parquet_paths=snap.parquet_paths + new_parts,
            sidelines=[(side.path, watermark)] if watermark else [],
            summary=snap.summary.merged(
                LoadSummary.from_sequenced(new_reports)
            ),
            submitted=len(self.reports),
        )
        if self._on_publish is not None:
            self._on_publish(new_parts, watermark, new_reports)

    def snapshot(self) -> LoadSnapshot:
        """The last publication (read-only)."""
        return self._snapshot

    def quiesce(self, timeout: float = 30.0) -> None:
        """Publish every ingested chunk; nothing is in flight to wait for."""
        self.publish()

    def finalize(self) -> LoadSummary:
        """Publish the last chunks, then seal; idempotent.

        The last publication: afterwards :meth:`snapshot` covers every
        ingested chunk, and its summary is returned.
        """
        self.publish()
        self.loader.finalize()
        return self._snapshot.summary


def _run_shard(shard_id: int,
               in_queue,
               out_queue,
               parquet_path: str,
               sideline_path: str,
               partial_loading: bool,
               schema: Optional[Schema],
               required_ids: Optional[frozenset],
               seal_interval: int,
               barrier,
               abandon) -> None:
    """Shard worker loop: decode + parse + write until the sentinel.

    Module-level so process mode can spawn it.  On failure the worker keeps
    draining its queue (a bounded queue with a dead consumer would deadlock
    the submitter) and reports the error at shutdown.

    The worker's :class:`StreamingLoader` publishes a ``("progress",
    shard_id, new_paths, sideline_watermark, new_reports)`` message
    carrying only what was sealed/ingested *since its last publication*
    (the sideline watermark is absolute but O(1)).  Deltas keep streaming
    IPC linear in load size; the merge can simply append because the
    out-queue preserves each producer's message order.  At the stop
    sentinel the worker finalizes its loader — the last publication,
    then the seal — so the terminal ``("done", shard_id)`` follows a
    publication of the shard's whole output.  A failed worker only
    seals at the sentinel: it publishes nothing after its error.

    A flush token (:data:`_FLUSH`, queued by
    :meth:`ShardedIngestPipeline.quiesce`) makes the worker publish what
    it has ingested since its last publication, then park on *barrier*
    (one party per shard) until every shard has taken its token.
    Parking is what makes each worker under work stealing take exactly
    one token of a flush.  A failed worker publishes nothing — its
    error was announced already — but still parks, so its siblings are
    released.  A broken (aborted) barrier releases at once.

    Once *abandon* (an event) is set, by
    :meth:`ShardedIngestPipeline.close`, the worker stops between chunks
    as a crash would: its open part closes without a footer, and it
    neither publishes nor posts a terminal message.
    """
    error: Optional[str] = None
    loader: Optional[StreamingLoader] = None

    def fail(what: str) -> str:
        """Record the first error and announce it eagerly.

        The non-terminal ``"failing"`` message lets snapshot()/quiesce()
        surface the real cause immediately instead of timing out while
        the worker keeps draining its queue until the stop sentinel.
        """
        message = f"shard {shard_id} {what}:\n{traceback.format_exc()}"
        out_queue.put(("failing", shard_id, message))
        return message

    def post(paths: List[Path], watermark: int, reports) -> None:
        out_queue.put(("progress", shard_id, [str(p) for p in paths],
                       watermark, reports))

    try:
        loader = StreamingLoader(
            ClientAssistedLoader(
                parquet_path,
                JsonSideStore(sideline_path),
                partial_loading=partial_loading,
                schema=schema,
                required_predicate_ids=required_ids,
            ),
            seal_interval,
            on_publish=post,
        )
    except Exception:  # ciaolint: allow[API006] -- shard isolation: any init failure becomes a reported per-shard error
        error = fail("failed to initialize")

    def process(item) -> None:
        nonlocal error
        if error is not None:
            return
        seq, payload = item
        try:
            loader.submit(payload, seq)
        except Exception:  # ciaolint: allow[API006] -- shard isolation: a poison chunk must not kill the drain loop
            error = fail(f"failed on chunk #{seq}")

    def publish_pending() -> None:
        if error is None:
            loader.publish()

    # The drain loop must run no matter what happened above: a bounded
    # queue with a dead consumer would block submit() forever.
    stop = False
    while not stop and not abandon.is_set():
        try:
            item = in_queue.get(timeout=_IDLE_POLL_SECONDS)
        except queue.Empty:
            # Idle: keep a mid-load snapshot fresh while the submitter
            # pauses.  Nothing waits on this — quiesce() flushes.
            publish_pending()
            continue
        # Work stealing hands every worker the same shared deque; grab a
        # small batch per visit to amortize queue synchronization.  A
        # control item (stop sentinel or flush token) ends the batch, so
        # it is handled after every chunk taken before it.
        items = [item]
        try:
            while isinstance(items[-1], tuple) and len(items) < _GRAB_BATCH:
                items.append(in_queue.get_nowait())
        except queue.Empty:
            pass
        for item in items:
            if abandon.is_set():
                break
            if item is None:
                stop = True
            elif item == _FLUSH:
                # Everything taken before the token becomes visible, then
                # the worker parks until every shard took a token, so
                # under work stealing each worker takes exactly one.
                publish_pending()
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass  # quiesce() gave up on this flush; keep draining
            else:
                process(item)
    if abandon.is_set():
        if loader is not None:
            loader.loader.close()  # ciaolint: allow[LCK002] -- ClientAssistedLoader.close takes no locks; the `.close()` name union binds wider
        return
    try:
        if loader is None:
            pass
        elif error is None:
            loader.finalize()
        else:
            loader.loader.finalize()  # seal without a publication
    except Exception:  # ciaolint: allow[API006] -- shard isolation: finalize failure is reported via the out queue
        if error is None:
            error = fail("failed to finalize")
    out_queue.put(("done", shard_id) if error is None
                  else ("error", shard_id, error))


class ShardedIngestPipeline:
    """Fan encoded chunks across shard loaders; publish a merged view.

    :meth:`snapshot` is the table's view in both states: mid-load it
    covers what the shards published so far, and after :meth:`finalize`
    (the last publication) the whole load.  Shard sidelines stay where
    they were written; the view lists them as segments.

    Args:
        parquet_path: Base table path; shard *K* writes
            ``<stem>.shardK<suffix>`` parts next to it.
        sideline_path: The table's main sideline file; shard *K* writes
            ``<stem>.shardK<suffix>`` next to it.
            Records the main file already holds (a recovered prefix)
            are listed first in every snapshot, followed by the shard
            segments.
        n_shards: Worker count (1 is legal and equivalent to one loader
            behind a queue).
        partial_loading / schema / required_predicate_ids: Forwarded to
            every shard's :class:`ClientAssistedLoader`.
        mode: ``"process"`` (parallel under the GIL) or ``"thread"``.
        dispatch: ``"work-stealing"`` (shared deque, default) or
            ``"round-robin"`` (chunk *k* → shard ``k % n_shards``,
            deterministic shard files).
        seal_interval: Chunks between streaming part seals.
        queue_depth: Per-shard bound of the input queue(s) (backpressure);
            the shared work-stealing deque is bounded at
            ``queue_depth * n_shards``.
    """

    def __init__(self, parquet_path: str | Path,
                 sideline_path: str | Path,
                 n_shards: int,
                 partial_loading: bool,
                 schema: Optional[Schema] = None,
                 required_predicate_ids: Optional[Sequence[int]] = None,
                 mode: str = "process",
                 dispatch: str = "work-stealing",
                 seal_interval: int = DEFAULT_SEAL_INTERVAL,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics: Optional[Metrics] = None):
        validate_server_options(shard_mode=mode, dispatch=dispatch,
                                n_shards=n_shards,
                                seal_interval=seal_interval)
        self.parquet_path = Path(parquet_path)
        self.n_shards = n_shards
        self.mode = mode
        self.dispatch = dispatch
        self.seal_interval = seal_interval
        self._seq = 0
        self._finalized = False
        self._errors: List[str] = []  # guarded-by: _lock
        # Streaming snapshot state, guarded by _lock: the latest published
        # per-shard (sealed paths, sideline watermark, reports) plus a
        # version bumped on every observed change.
        self._lock = make_lock("ShardedIngestPipeline._lock")
        # guarded-by: _lock
        self._progress: Dict[int, Tuple[List[Path], int,
                                        List[Tuple[int, LoadReport]]]] = {}
        self._terminal: set = set()  # guarded-by: _lock
        self._version = 0  # guarded-by: _lock
        # guarded-by: _lock
        self._snapshot_cache: Optional[LoadSnapshot] = None
        # Parent-side instrumentation only: worker processes cannot share
        # a registry, so seals/ingests are counted as their publications
        # arrive.
        metrics = resolve_metrics(metrics)
        self._m_submitted = metrics.counter("pipeline.chunks_submitted")
        self._m_ingested = metrics.counter("pipeline.chunks_ingested")
        self._m_sealed = metrics.counter("pipeline.parts_sealed")
        self._m_snapshots = metrics.counter("pipeline.snapshots")
        self._m_finalize = metrics.histogram("pipeline.finalize_seconds")

        required = (
            frozenset(required_predicate_ids)
            if required_predicate_ids is not None else None
        )
        base = JsonSideStore(sideline_path)
        self._base_sideline = (
            [(base.path, base.record_count)] if base.record_count else []
        )
        side_path = base.path
        self._sideline_paths = [
            side_path.parent / f"{side_path.stem}.shard{i}{side_path.suffix}"
            for i in range(n_shards)
        ]
        shard_parquet = [
            self.parquet_path.parent
            / f"{self.parquet_path.stem}.shard{i}{self.parquet_path.suffix}"
            for i in range(n_shards)
        ]
        if mode == "process":
            # Only process shards need it; thread-sharded servers skip
            # the import.
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            make_queue = ctx.Queue
            make_worker = ctx.Process
            self._barrier = ctx.Barrier(n_shards)
            self._abandon = ctx.Event()
        else:
            make_queue = queue.Queue
            make_worker = threading.Thread
            self._barrier = threading.Barrier(n_shards)
            self._abandon = threading.Event()
        self._aborter: Optional[threading.Thread] = None
        self._out_queue = make_queue()
        if dispatch == "round-robin":
            self._in_queues = [make_queue(maxsize=queue_depth)
                               for _ in range(n_shards)]
        else:
            shared = make_queue(maxsize=queue_depth * n_shards)
            self._in_queues = [shared] * n_shards
        self._workers = [
            make_worker(
                target=_run_shard,
                args=(i, self._in_queues[i], self._out_queue,
                      str(shard_parquet[i]), str(self._sideline_paths[i]),
                      partial_loading, schema, required, seal_interval,
                      self._barrier, self._abandon),
                daemon=True,
            )
            for i in range(n_shards)
        ]
        for worker in self._workers:
            worker.start()
        if mode == "process":
            # A pipeline abandoned before finalize (caller crashed) must
            # not wedge interpreter exit: atexit joins each queue's feeder
            # thread AFTER daemon workers are terminated, so a feeder
            # still holding more buffered chunks than the pipe fits would
            # block forever with nobody reading.  Cancel the join on the
            # parent's input-queue copies only (post-fork, so workers
            # still flush their own re-queued sentinels normally);
            # finalize() never needs exit-time flushing — it waits for
            # every worker's terminal message while they are alive.
            seen = set()
            for in_queue in self._in_queues:
                if id(in_queue) not in seen:
                    seen.add(id(in_queue))
                    in_queue.cancel_join_thread()

    # ------------------------------------------------------------------
    def submit(self, payload: Union[JsonChunk, bytes, bytearray, memoryview]
               ) -> int:
        """Enqueue one chunk (encoded or decoded); returns its sequence no.

        Encoded payloads are decoded *inside* the worker, keeping the
        submitting thread off the critical path.  Blocks when the target
        queue is full (backpressure).  Assumes one submitting thread.
        """
        if self._finalized:
            raise RuntimeError("pipeline already finalized")
        if isinstance(payload, memoryview):
            payload = bytes(payload)  # queues need an owned buffer
        seq = self._seq
        self._seq += 1
        self._in_queues[seq % self.n_shards].put((seq, payload))
        self._m_submitted.inc()
        return seq

    # ------------------------------------------------------------------
    # Streaming snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> LoadSnapshot:
        """The current consistent loaded-so-far view (lock-protected).

        Merges any worker publications that arrived since the last call
        and returns the covered state: sealed Parquet parts, the table
        store's records from before the load followed by per-shard
        sideline views bounded at their watermarks, and a summary whose
        reports are in submission order.  Chunks still in flight (or
        sealed but not yet published) are simply absent — they appear in
        a later snapshot.  Raises :class:`IngestPipelineError` as soon as any
        shard has reported a failure — a failed load has no trustworthy
        loaded-so-far view.  The returned snapshot is cached until the
        next publication arrives; treat it as read-only.
        """
        self._m_snapshots.inc()
        with self._lock:
            self._pump_messages()
            if self._errors:
                raise IngestPipelineError("\n".join(self._errors))
            cached = self._snapshot_cache
            if (cached is not None and cached.version == self._version
                    and cached.submitted == self._seq):
                return cached
            paths = [
                path
                for shard_id in sorted(self._progress)
                for path in self._progress[shard_id][0]
            ]
            sidelines = self._base_sideline + [
                (self._sideline_paths[shard_id], watermark)
                for shard_id in sorted(self._progress)
                for watermark in (self._progress[shard_id][1],)
                if watermark > 0
            ]
            self._snapshot_cache = LoadSnapshot(
                version=self._version,
                parquet_paths=paths,
                sidelines=sidelines,
                summary=LoadSummary.from_sequenced(
                    pair for _, _, reports in self._progress.values()
                    for pair in reports
                ),
                submitted=self._seq,
            )
            return self._snapshot_cache

    def quiesce(self, timeout: float = 30.0) -> LoadSnapshot:
        """Block until every submitted chunk is covered by a snapshot.

        A flush barrier: unless the snapshot is already complete, queue
        one flush token per shard behind every submitted chunk (one per
        round-robin queue, ``n_shards`` on the shared work-stealing
        deque), then block on worker publications until the snapshot
        covers every submitted chunk.  Each worker that takes a token
        publishes and parks until every shard has taken one.  Raises
        :class:`IngestPipelineError` as soon as a shard reports a
        failure, and :class:`TimeoutError` after *timeout* seconds —
        e.g. when a shard died mid-load (:meth:`finalize` surfaces the
        underlying error); either way the barrier is aborted so parked
        workers go back to draining.  Assumes the submitting thread
        calls it.
        """
        snap = self.snapshot()
        if snap.complete:
            return snap
        deadline = time.monotonic() + timeout
        if self._barrier.broken and not self._aborting():
            self._barrier.reset()
        queues = (self._in_queues if self.dispatch == "round-robin"
                  else self._in_queues[:1] * self.n_shards)
        flushed = False
        try:
            for in_queue in queues:
                in_queue.put(_FLUSH,
                             timeout=max(deadline - time.monotonic(), 1e-3))
            while not snap.complete:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"pipeline did not quiesce within {timeout}s: "
                        f"{snap.chunks}/{snap.submitted} chunks covered"
                    )
                with self._lock:
                    self._pump_messages(
                        block_seconds=min(remaining, _PUMP_SLICE_SECONDS)
                    )
                snap = self.snapshot()
            flushed = True
        except queue.Full:
            raise TimeoutError(
                f"pipeline did not quiesce within {timeout}s: a shard "
                f"queue stayed full"
            ) from None
        finally:
            if not flushed:
                self._abort_flush()
        return snap

    def _abort_flush(self) -> None:
        """Break the flush barrier so parked workers go back to draining.

        A process barrier's ``abort()`` waits for every parked worker to
        acknowledge its wake-up, and a shard killed while parked never
        does; aborting on a helper thread keeps such a death from
        wedging the caller (the barrier then stays broken, and flushes
        fall back to the idle publish).  A thread barrier's abort never
        waits, and a helper would queue behind busy workers for the GIL.
        """
        if self.mode == "thread":
            self._barrier.abort()
            return
        self._aborter = threading.Thread(
            target=self._barrier.abort, name="flush-abort", daemon=True
        )
        self._aborter.start()
        self._aborter.join(_PUMP_SLICE_SECONDS)

    def _aborting(self) -> bool:
        """True while an abort is still stuck on a dead parked worker."""
        return self._aborter is not None and self._aborter.is_alive()

    @guarded_by("_lock")
    def _pump_messages(self, block_seconds: Optional[float] = None) -> bool:
        """Drain pending out-queue messages into state; caller holds _lock.

        Returns True if at least one message was handled.  With
        *block_seconds* the first get blocks that long (used by
        :meth:`quiesce` and :meth:`finalize` while waiting on workers).
        """
        handled = False
        block = block_seconds
        while True:
            try:
                if block:
                    message = self._out_queue.get(timeout=block)
                    block = None
                else:
                    message = self._out_queue.get_nowait()
            except queue.Empty:
                return handled
            handled = True
            kind = message[0]
            if kind == "progress":
                _, shard_id, paths, watermark, reports = message
                prev = self._progress.get(shard_id, ([], 0, []))
                self._progress[shard_id] = (
                    prev[0] + [Path(p) for p in paths],
                    watermark,
                    prev[2] + list(reports),
                )
                self._version += 1
                self._m_sealed.inc(len(paths))
                self._m_ingested.inc(len(reports))
            elif kind == "failing":
                # Eager (non-terminal) announcement of a shard error; the
                # worker repeats the same text in its terminal message.
                if message[2] not in self._errors:
                    self._errors.append(message[2])
            elif kind == "error":
                if message[2] not in self._errors:
                    self._errors.append(message[2])
                self._terminal.add(message[1])
            else:
                # "done": the shard's last publication holds its output.
                self._terminal.add(message[1])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop a loading pipeline's workers without publishing, as a
        crash leaves them; idempotent, and a no-op once finalized.

        Each worker stops between chunks and closes its open part without
        a footer; chunks still queued are dropped, and what the shards
        published before stays as it was.  A process worker still alive
        after a grace period is terminated.  The pipeline takes no more
        chunks.
        """
        if self._finalized:
            return
        self._finalized = True
        self._abandon.set()
        self._abort_flush()
        deadline = time.monotonic() + _ABANDON_GRACE_SECONDS
        for worker in self._workers:
            while worker.is_alive() and time.monotonic() < deadline:
                with self._lock:
                    # Drain the out queue, so a process worker's exit
                    # never waits on a full pipe.
                    self._pump_messages()
                worker.join(_IDLE_POLL_SECONDS)
            if worker.is_alive() and hasattr(worker, "terminate"):
                worker.terminate()
                worker.join()

    def finalize(self) -> LoadSummary:
        """Stop the workers; return the final snapshot's summary.

        The last publication: each worker publishes its last chunks and
        seals its part before its terminal message, so afterwards
        :meth:`snapshot` covers the whole load.  No sideline file is
        opened.  Idempotent.  Raises :class:`IngestPipelineError` if any
        shard failed.
        """
        if self._finalized:
            return self.snapshot().summary
        self._finalized = True
        finalize_start = time.perf_counter()
        # A worker may still be parked on a flush that never completed
        # (a sibling died, or stale tokens of an aborted flush): release
        # it, or it never reaches its stop sentinel.
        self._abort_flush()
        if self.dispatch == "round-robin":
            for in_queue in self._in_queues:
                in_queue.put(None)
        else:
            for _ in range(self.n_shards):
                self._in_queues[0].put(None)
        # Collect one terminal result per shard, but never hang on a
        # worker that died without posting (e.g. an OOM-killed process):
        # poll with a timeout, and when a pending worker is no longer
        # alive give its in-flight message one grace period before
        # declaring it lost.  A killed worker may additionally have
        # poisoned the shared work-stealing queue (died holding its
        # reader lock) or, under any dispatch, the flush barrier (died
        # parked on it), leaving alive siblings unable to ever see their
        # stop sentinel — once a death is recorded, survivors that stay
        # silent past a grace period are abandoned too rather than
        # waited on forever.
        abandon_at: Optional[float] = None
        while True:
            with self._lock:
                pending = set(range(self.n_shards)) - self._terminal
                if not pending:
                    break
                if self._pump_messages(block_seconds=_PUMP_SLICE_SECONDS):
                    continue
                dead = [i for i in sorted(pending)
                        if not self._workers[i].is_alive()]
                if dead and self._pump_messages(
                        block_seconds=_PUMP_SLICE_SECONDS):
                    continue  # a straggler message made it; keep collecting
                for shard_id in dead:
                    self._errors.append(
                        f"shard {shard_id} terminated without reporting "
                        f"a result"
                    )
                    self._terminal.add(shard_id)
                if dead and abandon_at is None:
                    abandon_at = time.monotonic() + _ABANDON_GRACE_SECONDS
                if abandon_at is not None and \
                        time.monotonic() >= abandon_at:
                    stuck = sorted(
                        set(range(self.n_shards)) - self._terminal
                    )
                    for shard_id in stuck:
                        self._errors.append(
                            f"shard {shard_id} abandoned: a sibling "
                            f"worker died and may have poisoned the "
                            f"shared work queue or the flush barrier"
                        )
                        self._terminal.add(shard_id)
                        worker = self._workers[shard_id]
                        if hasattr(worker, "terminate"):
                            worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._m_finalize.observe(time.perf_counter() - finalize_start)
        return self.snapshot().summary
