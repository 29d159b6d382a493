"""CiaoService: concurrent remote serving on top of a CiaoSession.

The router→controller→service loop that turns the in-process session API
into a servable system:

* the **service** owns a listening socket and accepts up to
  ``max_connections`` concurrent clients;
* each connection gets a **router** thread that decodes
  :mod:`repro.transport.wire` messages and dispatches them;
* handlers are the **controllers** — ingest control
  (OPEN_INGEST/CHUNKS/END_INGEST/COMMIT feeding an external
  :class:`~repro.api.session.LoadJob`), plan shipping (GET_PLAN via
  :mod:`repro.core.plan_io`), and query serving (QUERY through
  query-side :class:`~repro.service.admission.QueryAdmission`).

Concurrency discipline: the service lock guards only the connection
registry and the external-job pointer — it is **never** held while
calling into the session or server, so the service adds no edges above
the server's lifecycle lock and the lock graph stays acyclic.  Query
execution runs between admission acquire/release with no service lock
held; saturation surfaces as a BUSY reply, never an unbounded queue.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

from ..analysis.sanitizer import make_lock
from ..api.session import CiaoSession, LoadJob
from ..core.plan_io import dumps_plan
from ..engine.executor import QueryResult
from ..obs.querylog import client_scope
from ..obs.tracing import TraceContext
from ..server.ciao import IngestSession
from ..transport.base import ChannelTimeout, TransportError
from ..transport.sockets import SocketChannel, SocketListener
from ..transport import wire
from ..transport.wire import Message, WireError, encode_message
from .admission import AdmissionSaturated, QueryAdmission
from .results import result_to_payload

#: Default ceiling on concurrently served connections.
DEFAULT_MAX_CONNECTIONS = 64

#: Self-describing format tag of the STATS reply body.
STATS_FORMAT = "ciao-stats/1"

#: Router receive poll; also bounds how fast close() is observed.
_POLL_SECONDS = 0.25

#: Default silence (seconds) before an idle connection is reaped.
DEFAULT_IDLE_TIMEOUT = 300.0


class _Connection:
    """Router for one accepted connection: decode, dispatch, reply."""

    def __init__(self, service: "CiaoService", channel: SocketChannel,
                 conn_id: int):
        self.service = service
        self.channel = channel
        self.conn_id = conn_id
        self.client_id = f"conn-{conn_id}"
        self._ingest: Optional[IngestSession] = None
        self.last_activity = time.monotonic()
        self.thread = threading.Thread(
            target=self._run, name=f"ciao-service-conn-{conn_id}",
            daemon=True,
        )

    def start(self) -> None:
        self.thread.start()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            self._serve()
        finally:
            # Only the stream's current owner may close it: a client
            # that reconnected and RESUMEd on a fresh connection has
            # already adopted the session, and this (stale) router must
            # not yank it out from under the live one.
            ingest = self._ingest
            if ingest is not None and \
                    self.service._release_ingest(self, ingest):
                ingest.close()
            self.channel.close()
            self.service._forget(self)

    def _serve(self) -> None:
        while not self.service.closed:
            try:
                payload = self.channel.receive_wait(_POLL_SECONDS)
            except ChannelTimeout:
                # The peer went silent past the socket's own recv
                # deadline — same remedy as the idle check below.
                self.service._m_idle_reaped.inc()
                return
            if payload is None:
                if self.channel.closed:
                    return
                idle = self.service.idle_timeout
                if idle is not None and \
                        time.monotonic() - self.last_activity > idle:
                    # Reap the connection: free this router thread and
                    # any admission the peer was holding hostage.  A
                    # live client heartbeats (PING) to stay connected.
                    self.service._m_idle_reaped.inc()
                    return
                continue
            self.last_activity = time.monotonic()
            try:
                message = wire.decode_message(payload)
            except WireError as exc:
                # A torn or corrupted frame: the stream itself is still
                # intact (framing survived), so the sender may simply
                # resend — the ingest ledger makes that safe.
                self._reply(wire.ERROR, {
                    "error": str(exc), "retryable": True,
                })
                continue
            if message.tag == wire.BYE:
                self._reply(wire.BYE, {})
                return
            try:
                self._dispatch(message)
            except AdmissionSaturated as exc:
                self.service._m_busy.inc()
                self._reply(wire.BUSY, {"error": str(exc)})
            except TransportError:
                return  # peer is gone; nothing left to reply to
            except Exception as exc:  # ciaolint: allow[API006] -- a handler fault must become an ERROR reply, not kill the connection
                self._reply(wire.ERROR, {
                    "error": f"{type(exc).__name__}: {exc}",
                })

    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> None:
        tag = message.tag
        if tag == wire.HELLO:
            self._handle_hello(message)
        elif tag == wire.GET_PLAN:
            self._handle_get_plan()
        elif tag == wire.OPEN_INGEST:
            self._handle_open_ingest(message)
        elif tag == wire.CHUNKS:
            self._handle_chunks(message)
        elif tag == wire.END_INGEST:
            self._handle_end_ingest()
        elif tag == wire.RESUME:
            self._handle_resume(message)
        elif tag == wire.PING:
            self._handle_ping()
        elif tag == wire.COMMIT:
            self._handle_commit()
        elif tag == wire.QUERY:
            self._handle_query(message)
        elif tag == wire.STATS:
            self._handle_stats(message)
        else:
            self._reply(wire.ERROR, {
                "error": f"unexpected {message.name} message",
            })

    def _handle_hello(self, message: Message) -> None:
        protocol = message.header.get("protocol")
        if protocol != wire.PROTOCOL_VERSION:
            self._reply(wire.ERROR, {
                "error": (
                    f"protocol mismatch: client speaks {protocol!r}, "
                    f"service speaks {wire.PROTOCOL_VERSION}"
                ),
            })
            return
        client_id = message.header.get("client_id")
        if client_id:
            self.client_id = str(client_id)
        self._reply(wire.WELCOME, {
            "server": "ciao",
            "protocol": wire.PROTOCOL_VERSION,
            "mode": self.service.session.config.mode,
        })

    def _handle_get_plan(self) -> None:
        plan = self.service.session.pushdown_plan
        if plan is None:
            self._reply(wire.PLAN, {"present": False})
        else:
            self._reply(wire.PLAN, {"present": True},
                        dumps_plan(plan).encode("utf-8"))

    def _handle_open_ingest(self, message: Message) -> None:
        source_id = message.header.get("source_id") or self.client_id
        if self._ingest is not None and not self._ingest.closed:
            raise RuntimeError(
                f"connection already has ingest stream "
                f"{self._ingest.source_id!r} open"
            )
        self._ingest = self.service._open_ingest(str(source_id))
        self.service._claim_ingest(self, self._ingest)
        self._reply(wire.INGEST_ACK, {"opened": str(source_id)})

    def _handle_resume(self, message: Message) -> None:
        """Adopt (or re-adopt) an ingest stream after a client redial.

        Unlike OPEN_INGEST this is idempotent — a replayed RESUME
        re-attaches the same server-side stream — and it answers with
        the stream's applied watermark so the client replays exactly
        the batches the server never saw.  If the load already
        committed there is no stream to adopt: the client learns
        ``finalized`` and skips its replay entirely.
        """
        source_id = str(message.header.get("source_id") or self.client_id)
        self.service._m_resumes.inc()
        job = self.service._current_external_job()
        if job is not None and job.done:
            self._reply(wire.RESUME, {
                "source_id": source_id,
                "finalized": True,
                "last_seq": job.server.ledger_last(
                    self.client_id, source_id
                ),
            })
            return
        job = self.service._ensure_external_job()
        session = job.server.resume_ingest_session(source_id)
        stale = self._ingest
        if stale is not None and stale is not session and \
                self.service._release_ingest(self, stale):
            stale.close()
        self._ingest = session
        self.service._claim_ingest(self, session)
        self._reply(wire.RESUME, {
            "source_id": source_id,
            "finalized": False,
            "last_seq": job.server.ledger_last(self.client_id, source_id),
            "durable_seq": job.server.durable_seq(
                self.client_id, source_id
            ),
        })

    def _handle_ping(self) -> None:
        self.service._m_pings.inc()
        self._reply(wire.PONG, {})

    def _handle_chunks(self, message: Message) -> None:
        if self._ingest is None or self._ingest.closed:
            raise RuntimeError(
                "CHUNKS before OPEN_INGEST: open an ingest stream first"
            )
        if not wire.verify_crc(message.header, message.body):
            # Corrupted in flight: refuse without advancing the ledger
            # so the client's resend (same seq) applies cleanly.
            self.service._m_crc_rejects.inc()
            self._reply(wire.ERROR, {
                "error": "CHUNKS body failed its crc check",
                "retryable": True,
            })
            return
        seq = message.header.get("seq")
        if seq is None:
            # Legacy unsequenced stream: at-least-once, no dedupe.
            accepted = self._ingest.ingest(message.body)
            self._reply(wire.INGEST_ACK, {"frames_accepted": accepted})
            return
        accepted, duplicate = self._ingest.ingest_sequenced(
            message.body, seq=int(seq), client_id=self.client_id,
        )
        if duplicate:
            # Already applied — ack what the batch claimed to carry so
            # the client's accounting matches the first delivery.
            accepted = int(message.header.get("frames", 0))
        header: Dict[str, Any] = {
            "frames_accepted": accepted,
            "seq": int(seq),
            "duplicate": duplicate,
        }
        job = self.service._current_external_job()
        if job is not None:
            header["durable_seq"] = job.server.durable_seq(
                self.client_id, self._ingest.source_id
            )
        self._reply(wire.INGEST_ACK, header)
        if not duplicate:
            self.service._note_applied_batch()

    def _handle_end_ingest(self) -> None:
        if self._ingest is None:
            raise RuntimeError("END_INGEST without an open ingest stream")
        self._ingest.close()
        self._reply(wire.INGEST_ACK, {"closed": True})

    def _handle_commit(self) -> None:
        report = self.service._commit()
        self._reply(wire.COMMITTED, {
            "report": {"mode": report.mode, **report.to_dict()},
        })

    def _handle_query(self, message: Message) -> None:
        sql = message.header.get("sql")
        if not sql:
            raise ValueError("QUERY message carries no sql")
        snapshot = bool(message.header.get("snapshot"))
        trace = wire.extract_trace(message.header)
        tracer = self.service.session.tracer
        header: Dict[str, Any] = {}
        with client_scope(self.client_id):
            if trace is not None and tracer.enabled:
                # Re-root the server-side spans under the client's wire
                # context, then ship the finished records back in the
                # RESULT header so the client tracer can adopt them —
                # one trace id covers both halves of the query.
                trace_id, parent_id = trace
                with tracer.trace(
                    "service.query", parent=TraceContext(trace_id,
                                                         parent_id),
                    attrs={"client_id": self.client_id, "sql": str(sql)},
                ):
                    result = self.service._query(
                        self.client_id, str(sql), snapshot
                    )
                header["spans"] = [
                    s.to_dict() for s in tracer.drain(trace_id)
                ]
            else:
                result = self.service._query(
                    self.client_id, str(sql), snapshot
                )
        self._reply(wire.RESULT, header, result_to_payload(result))

    def _handle_stats(self, message: Message) -> None:
        tail = message.header.get("query_log_tail", 0)
        try:
            tail = max(0, int(tail))
        except (TypeError, ValueError):
            tail = 0
        payload = self.service.stats(query_log_tail=tail)
        body = json.dumps(payload, sort_keys=True,
                          default=str).encode("utf-8")
        self._reply(wire.STATS, {"format": STATS_FORMAT}, body)

    # ------------------------------------------------------------------
    def _reply(self, tag: int, header: Dict, body: bytes = b"") -> None:
        try:
            self.channel.send(encode_message(tag, header, body))
        except TransportError:
            pass  # peer hung up mid-reply; the router loop will exit


class CiaoService:
    """A network front end serving one :class:`CiaoSession` to N clients.

    Listens immediately on construction (``port=0`` picks a free port —
    read :attr:`address` back); every accepted connection is served by
    its own router thread, so ingest streams and queries from different
    clients genuinely interleave.  Query admission mirrors the ingest
    side's ``max_active``/``max_pending`` discipline (defaults come from
    the session's :class:`~repro.api.config.DeploymentConfig`
    ``query_max_active``/``query_max_pending`` knobs).

    The service does not own the session: closing the service stops
    serving but leaves the session and its loaded data usable in
    process.  Context-manager friendly.
    """

    def __init__(self, session: CiaoSession,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 query_max_active: Optional[int] = None,
                 query_max_pending: Optional[int] = None,
                 admission_timeout: Optional[float] = 30.0,
                 idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
                 checkpoint_every: Optional[int] = None):
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive or None, "
                f"got {idle_timeout}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 or None, "
                f"got {checkpoint_every}"
            )
        config = session.config
        self.session = session
        self.max_connections = max_connections
        self.admission_timeout = admission_timeout
        #: Silence bound before a router reaps its connection (liveness:
        #: a hung peer must not pin a thread and admission state
        #: forever).  ``None`` disables reaping.
        self.idle_timeout = idle_timeout
        #: Checkpoint the external load's durable manifest after every
        #: N applied CHUNKS batches (``None`` = only at commit).  Also
        #: bounds retrying clients' replay buffers, which prune to the
        #: durable watermark each checkpoint publishes.
        self.checkpoint_every = checkpoint_every
        # The session's registry instruments the whole service stack:
        # admission pressure, accepted sockets, BUSY turn-aways.
        metrics = session.obs_metrics
        self._m_busy = metrics.counter("service.busy_replies")
        self._m_accepted = metrics.counter("service.connections_accepted")
        self._m_connections = metrics.gauge("service.connections")
        self._m_idle_reaped = metrics.counter("heartbeat.idle_reaped")
        self._m_pings = metrics.counter("heartbeat.pings")
        self._m_resumes = metrics.counter("recovery.resumes")
        self._m_crc_rejects = metrics.counter("recovery.crc_rejects")
        self.admission = QueryAdmission(
            max_active=(
                query_max_active if query_max_active is not None
                else config.query_max_active
            ),
            max_pending=(
                query_max_pending if query_max_pending is not None
                else config.query_max_pending
            ),
            metrics=metrics,
        )
        self._listener = SocketListener(
            host, port, metrics=metrics, recv_deadline=idle_timeout,
        )
        self._lock = make_lock("CiaoService._lock")
        self._connections: List[_Connection] = []  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._next_conn = 0  # guarded-by: _lock
        self._external_job: Optional[LoadJob] = None  # guarded-by: _lock
        # Which router currently owns each ingest stream; RESUME on a
        # fresh connection steals ownership from the dead one.
        self._ingest_owner: Dict[str, _Connection] = {}  # guarded-by: _lock
        self._batches_since_checkpoint = 0  # guarded-by: _lock
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="ciao-service-accept",
            daemon=True,
        )
        self._acceptor.start()

    # ------------------------------------------------------------------
    @property
    def address(self):
        """The bound ``(host, port)`` clients dial."""
        return self._listener.address

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def connection_count(self) -> int:
        """Connections currently being served."""
        with self._lock:
            return len(self._connections)

    def close(self) -> None:
        """Stop accepting and disconnect every client (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections)
        self._listener.close()
        for connection in connections:
            connection.channel.close()
        for connection in connections:
            connection.thread.join(timeout=10.0)
        self._acceptor.join(timeout=10.0)

    def __enter__(self) -> "CiaoService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
            channel = self._listener.accept(timeout=_POLL_SECONDS)
            if channel is None:
                continue
            with self._lock:
                if self._closed:
                    at_capacity = True  # shutting down: turn it away
                else:
                    at_capacity = (
                        len(self._connections) >= self.max_connections
                    )
                if not at_capacity:
                    conn_id = self._next_conn
                    self._next_conn += 1
                    connection = _Connection(self, channel, conn_id)
                    self._connections.append(connection)
                    self._m_connections.set(len(self._connections))
            if at_capacity:
                self._m_busy.inc()
                try:
                    channel.send(encode_message(wire.BUSY, {
                        "error": (
                            f"service at max_connections="
                            f"{self.max_connections}"
                        ),
                    }))
                except TransportError:
                    pass  # the turned-away peer already hung up
                channel.close()
            else:
                self._m_accepted.inc()
                connection.start()

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
                self._m_connections.set(len(self._connections))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self, query_log_tail: int = 0) -> Dict[str, Any]:
        """A live operational snapshot (the STATS wire reply body).

        Always includes connection and admission accounting; the
        ``metrics`` section is empty unless the session was constructed
        with a real registry.  *query_log_tail* > 0 additionally embeds
        the most recent N query-log records.
        """
        with self._lock:
            connections = len(self._connections)
        admission = self.admission.stats
        doc: Dict[str, Any] = {
            "format": STATS_FORMAT,
            "connections": connections,
            "max_connections": self.max_connections,
            "admission": {
                "granted": admission.granted,
                "completed": admission.completed,
                "rejected": admission.rejected,
                "peak_active": admission.peak_active,
                "peak_queued": admission.peak_queued,
                "active": self.admission.active,
                "queued": self.admission.queued,
            },
            "metrics": self.session.metrics(),
            "heartbeat": {
                "idle_timeout": self.idle_timeout,
            },
        }
        job = self.session.last_job
        if job is not None:
            server = job.server
            doc["recovery"] = {
                "durable": server.durable,
                "manifest_revision": server.manifest_revision,
                "generation": server.generation,
                "ledger_streams": len(server.ledger_records()),
                "checkpoint_every": self.checkpoint_every,
            }
        compaction = self.session.compaction_stats()
        if compaction is not None:
            doc["compaction"] = compaction
        if query_log_tail > 0:
            records = self.session.query_log()
            doc["query_log"] = [
                r.to_dict() for r in records[-query_log_tail:]
            ]
        return doc

    # ------------------------------------------------------------------
    # Controllers (called from router threads, no service lock held)
    # ------------------------------------------------------------------
    def _open_ingest(self, source_id: str) -> IngestSession:
        job = self._ensure_external_job()
        return job.server.open_ingest_session(source_id)

    def _claim_ingest(self, connection: _Connection,
                      session: IngestSession) -> None:
        with self._lock:
            self._ingest_owner[session.source_id] = connection

    def _release_ingest(self, connection: _Connection,
                        session: IngestSession) -> bool:
        """Drop *connection*'s claim; True if it was the owner."""
        with self._lock:
            if self._ingest_owner.get(session.source_id) is connection:
                del self._ingest_owner[session.source_id]
                return True
            return False

    def _current_external_job(self) -> Optional[LoadJob]:
        with self._lock:
            return self._external_job

    def _note_applied_batch(self) -> None:
        """Count one applied CHUNKS batch toward the checkpoint cadence.

        The checkpoint itself runs with no service lock held — it
        flushes the ingest pipeline (one flush token per shard, waiting
        until every submitted chunk is sealed or sidelined) and fsyncs
        the manifest, both far too heavy for the connection-registry
        lock.  It runs on this router thread, so the client's next
        CHUNKS batch waits for exactly that flush work.
        """
        if self.checkpoint_every is None:
            return
        with self._lock:
            self._batches_since_checkpoint += 1
            due = self._batches_since_checkpoint >= self.checkpoint_every
            if due:
                self._batches_since_checkpoint = 0
            job = self._external_job
        if due and job is not None:
            job.server.checkpoint()

    def _ensure_external_job(self) -> LoadJob:
        with self._lock:
            job = self._external_job
            needs_new = job is None or job.done
        if needs_new:
            # Created outside the lock: external_load builds a server
            # (storage directories, shard workers) and must not run
            # under the connection-registry lock.
            created = self.session.external_load()
            with self._lock:
                # First creator wins; a racing creator's job is unused
                # (external_load itself rejects concurrent actives, so
                # losing this race raises there instead).
                if self._external_job is None or self._external_job.done:
                    self._external_job = created
                job = self._external_job
        return job

    def _commit(self):
        with self._lock:
            job = self._external_job
        if job is None:
            raise RuntimeError(
                "COMMIT without a remote load: no ingest stream was "
                "opened on this service"
            )
        return job.finish_external()

    def _query(self, client_id: str, sql: str,
               snapshot: bool) -> QueryResult:
        ticket = self.admission.acquire(
            client_id, timeout=self.admission_timeout
        )
        try:
            return self._execute(sql, snapshot)
        finally:
            self.admission.release(ticket)

    def _execute(self, sql: str, snapshot: bool) -> QueryResult:
        session = self.session
        job = session.last_job
        if job is not None and not job.done:
            if snapshot:
                return job.snapshot_query(sql)
            if job._external:
                # A plain query would wait for a COMMIT that may never
                # come from this client — refuse instead of wedging an
                # admission slot.
                raise RuntimeError(
                    "a remote load is in flight: COMMIT it first, or "
                    "use a snapshot query"
                )
        return session.query(sql)
