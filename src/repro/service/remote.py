"""RemoteSession: the client half of the service conversation.

A :class:`RemoteSession` talks to a :class:`~repro.service.service.CiaoService`
over any :class:`~repro.transport.base.Channel` — normally a
:class:`~repro.transport.sockets.SocketChannel` dialed from an address,
but an explicitly constructed channel (including one wrapped in
Lossy/Latency/Faulty decorators) can be injected for fault-injection
tests.

The surface mirrors the in-process session: fetch the pushdown plan,
:meth:`load` a source (client-side filtering runs *here*, on this
process's :class:`~repro.client.device.SimulatedClient`, exactly as the
paper's client-assisted design prescribes), :meth:`commit`, and
:meth:`query` — remote results decode into the same
:class:`~repro.engine.executor.QueryResult` dataclasses local execution
returns.

Fault tolerance is opt-in via a :class:`~repro.recovery.RetryPolicy`:
with one, every request retries under a bounded backoff schedule, BUSY
turn-aways back off instead of raising, a dropped connection redials
(``channel_factory`` or the original address) and resumes its ingest
stream with a RESUME handshake, and every CHUNKS batch carries a
monotonic per-``(client_id, source_id)`` sequence number plus a body
crc — the server's ingest ledger dedupes replays, so a retried batch
lands exactly once no matter how many times the wire ate the ack.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..client.device import DEFAULT_SHIP_BATCH, SimulatedClient
from ..client.protocol import encode_frame_batch
from ..core.optimizer import PushdownPlan
from ..core.plan_io import loads_plan
from ..data.randomness import DEFAULT_SEED
from ..engine.executor import QueryResult
from ..obs.metrics import Metrics, resolve_metrics
from ..obs.tracing import Tracer, resolve_tracer
from ..rawjson.chunks import DEFAULT_CHUNK_SIZE
from ..recovery.retry import RetryPolicy
from ..transport.base import Channel, TransportError
from ..transport.sockets import SocketChannel
from ..transport import wire
from ..transport.wire import Message, WireError, encode_message
from .results import result_from_payload


class RemoteError(RuntimeError):
    """The service replied with an error, or the conversation broke."""


class RemoteBusyError(RemoteError):
    """The service is saturated (admission BUSY); back off and retry."""


class RemoteRetryableError(RemoteError):
    """An ERROR reply the service marked safe to retry (e.g. a batch
    that failed its crc check in flight)."""


class RemoteTimeoutError(RemoteError):
    """No reply arrived within the session timeout; the connection's
    state is unknown, so a retrying session redials before resending."""


class RemoteSession:
    """A client-side session speaking the service wire protocol.

    Args:
        address: ``(host, port)`` of a running service; a fresh
            :class:`SocketChannel` is dialed (and redialed after a
            drop, when a *retry* policy is set).  Mutually exclusive
            with *channel* and *channel_factory*.
        channel: An already-open channel to converse over — inject a
            decorated (lossy/latent/faulty) channel here for fault
            testing.  A session built this way cannot reconnect.
        channel_factory: A zero-argument callable dialing a fresh
            channel; called at construction (under *retry*) and again
            on every reconnect.  This is how chaos tests compose
            :func:`repro.transport.faults.faulty_dialer` with a real
            socket service.
        client_id: Identity used for admission fairness, ingest-ledger
            keying, and default ingest source ids.
        chunk_size: Records per chunk for :meth:`load`'s client.
        timeout: Per-reply wait; ``None`` waits forever.
        tracer: A :class:`repro.obs.Tracer`.  When given, every
            :meth:`query`/:meth:`snapshot_query` opens a client-side
            span, propagates its context in the wire header, and adopts
            the server-side spans shipped back in the RESULT reply — one
            exported trace spans both processes.
        metrics: A :class:`repro.obs.Metrics` registry for the dialed
            socket's byte/frame counters and this session's retry
            counters (``retry.attempts``, ``retry.reconnects``,
            ``retry.giveups``, ``admission.busy_retries``).
        retry: A :class:`~repro.recovery.RetryPolicy`; ``None`` (the
            default) keeps the legacy fail-fast behavior — every
            transport hiccup or BUSY raises immediately.
        recv_deadline: Passed through to dialed sockets: the hard bound
            on peer silence inside one receive before
            :class:`~repro.transport.base.ChannelTimeout` (see
            :class:`~repro.transport.sockets.SocketChannel`).

    The constructor dials and performs the HELLO/WELCOME handshake
    through the reconnect path, under the retry policy, so a
    constructed session is known-good.  Context-manager friendly.
    """

    #: Failures a retrying session treats as transient.
    _RETRYABLE = (TransportError, WireError, RemoteRetryableError,
                  RemoteTimeoutError)

    def __init__(self, address: Optional[Tuple[str, int]] = None, *,
                 channel: Optional[Channel] = None,
                 channel_factory: Optional[Callable[[], Channel]] = None,
                 client_id: str = "remote-client",
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 seed: int = DEFAULT_SEED,
                 timeout: Optional[float] = 30.0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None,
                 retry: Optional[RetryPolicy] = None,
                 recv_deadline: Optional[float] = None):
        given = [address is not None, channel is not None,
                 channel_factory is not None]
        if sum(given) != 1:
            raise ValueError(
                "pass exactly one of address=(host, port), channel=, "
                "or channel_factory="
            )
        if address is not None:
            def channel_factory() -> Channel:
                return SocketChannel.connect(
                    address, metrics=metrics, recv_deadline=recv_deadline,
                )
        if channel is None and retry is None:
            channel = channel_factory()  # fail-fast: a refusal raises as is
        #: ``None`` until the first dial, which then runs under *retry*.
        self.channel: Optional[Channel] = channel
        self.tracer = resolve_tracer(tracer)
        self.client_id = client_id
        self.chunk_size = chunk_size
        self.seed = seed
        self.timeout = timeout
        self.retry = retry
        self.last_client: Optional[SimulatedClient] = None
        self._channel_factory = channel_factory
        self._closed = False
        #: Injectable pause, so tests assert schedules without sleeping.
        self._sleep: Callable[[float], None] = time.sleep
        registry = resolve_metrics(metrics)
        self._m_attempts = registry.counter("retry.attempts")
        self._m_reconnects = registry.counter("retry.reconnects")
        self._m_giveups = registry.counter("retry.giveups")
        self._m_busy_retries = registry.counter("admission.busy_retries")
        # Exactly-once ingest state: the next sequence number per
        # source stream, and (retrying sessions only) the unacked tail
        # kept for replay after a reconnect, pruned to the server's
        # durable watermark.
        self._seqs: Dict[str, int] = {}
        self._sent: Dict[int, Tuple[int, bytes, Dict[str, Any]]] = {}
        self._source_id: Optional[str] = None
        self._ingest_active = False
        self._ingest_ended = False
        # True once the *current* channel has completed its handshake
        # and (if an ingest stream is open) its RESUME replay.
        self._session_ready = False
        self.server_mode = ""
        if retry is None:
            self._ensure_connected()
        else:
            self._with_policy(lambda _deadline: self._ensure_connected())

    # ------------------------------------------------------------------
    def _request_once(self, tag: int,
                      header: Optional[Dict[str, Any]] = None,
                      body: bytes = b"",
                      expect: Optional[int] = None) -> Message:
        """Send one message and wait for the service's reply."""
        if self._closed:
            raise RemoteError("session is closed")
        self.channel.send(encode_message(tag, header or {}, body))
        payload = self.channel.receive_wait(self.timeout)
        if payload is None:
            raise RemoteTimeoutError(
                f"no reply to {wire.tag_name(tag)} within "
                f"{self.timeout} s (connection "
                f"{'closed' if self.channel.closed else 'idle'})"
            )
        reply = wire.decode_message(payload)
        if reply.tag == wire.BUSY:
            raise RemoteBusyError(
                reply.header.get("error", "service saturated")
            )
        if reply.tag == wire.ERROR:
            error = reply.header.get("error", "unspecified service error")
            if reply.header.get("retryable"):
                raise RemoteRetryableError(error)
            raise RemoteError(error)
        if expect is not None and reply.tag != expect:
            raise RemoteError(
                f"expected {wire.tag_name(expect)} in reply to "
                f"{wire.tag_name(tag)}, got {reply.name}"
            )
        return reply

    def _request(self, tag: int, header: Optional[Dict[str, Any]] = None,
                 body: bytes = b"",
                 expect: Optional[int] = None) -> Message:
        """One request under the session's retry policy (if any).

        Without a policy this is exactly :meth:`_request_once`.  With
        one, transient failures (transport drops, timeouts, retryable
        ERROR replies, BUSY) are retried on the policy's bounded
        backoff schedule; a drop closes the channel so the next attempt
        redials and resumes any open ingest stream first.  Redial,
        handshake and RESUME retry on a budget of their own (the same
        ``max_attempts``) inside each request attempt, so a flaky
        reconnect never spends the request's attempts: at most
        ``max_attempts`` sends and ``max_attempts ** 2`` reconnect
        tries, all inside the policy's ``deadline``.
        """
        if self.retry is None:
            return self._request_once(tag, header, body, expect)

        def connect_then_send(op_deadline: Optional[float]) -> Message:
            self._retrying(self._ensure_connected, op_deadline)
            return self._request_once(tag, header, body, expect)

        return self._with_policy(connect_then_send)

    def _with_policy(self, operation: Callable[[Optional[float]], Any]
                     ) -> Any:
        """Run *operation* on the retry schedule; count a give-up.

        *operation* receives the operation's absolute deadline
        (``None``: the policy sets none).
        """
        policy = self.retry
        op_deadline = (
            time.monotonic() + policy.deadline
            if policy.deadline is not None else None
        )
        try:
            return self._retrying(lambda: operation(op_deadline),
                                  op_deadline)
        except (RemoteBusyError,) + self._RETRYABLE:
            self._m_giveups.inc()
            raise

    def _retrying(self, operation: Callable[[], Any],
                  op_deadline: Optional[float]) -> Any:
        """Run *operation* on the retry policy's bounded schedule.

        Re-raises the last transient failure once the attempts (or the
        deadline) run out; other errors propagate at once.
        """
        last_exc: Optional[Exception] = None
        for attempt, pause in enumerate(self.retry.pauses()):
            if pause > 0.0:
                if (op_deadline is not None
                        and time.monotonic() + pause >= op_deadline):
                    break
                self._sleep(pause)
            if attempt > 0:
                self._m_attempts.inc()
            try:
                return operation()
            except RemoteBusyError as exc:
                last_exc = exc
                self._m_busy_retries.inc()
            except self._RETRYABLE as exc:
                last_exc = exc
                if (isinstance(exc, (TransportError, RemoteTimeoutError))
                        and self.channel is not None):
                    # The conversation's state is unknown; drop the
                    # channel so the next attempt redials cleanly.
                    self.channel.close()
        assert last_exc is not None
        raise last_exc

    # ------------------------------------------------------------------
    # Reconnect and resume
    # ------------------------------------------------------------------
    def _ensure_connected(self) -> None:
        """Dial (first or after a drop), handshake, and resume ingest.

        Readiness is tracked separately from the channel being open: a
        handshake or RESUME that failed with a *retryable* error leaves
        the channel up but the conversation unestablished, and the next
        attempt must finish establishing it before resending the
        caller's request.
        """
        if self.channel is None or self.channel.closed:
            if self._channel_factory is None:
                raise RemoteError(
                    "connection lost and this session has no way to "
                    "redial; construct with address= or "
                    "channel_factory= to enable reconnects"
                )
            redial = self.channel is not None
            try:
                self.channel = self._channel_factory()
            except OSError as exc:
                raise TransportError(f"dial failed: {exc}") from exc
            if redial:
                self._m_reconnects.inc()
            self._session_ready = False
        if self._session_ready:
            return
        self._handshake()
        self._resume_ingest()
        self._session_ready = True

    def _handshake(self) -> None:
        welcome = self._request_once(wire.HELLO, {
            "client_id": self.client_id,
            "protocol": wire.PROTOCOL_VERSION,
        }, expect=wire.WELCOME)
        self.server_mode = str(welcome.header.get("mode", ""))

    def _resume_ingest(self) -> None:
        """Replay the unacked ingest tail on a fresh connection.

        RESUME tells us the server's last applied sequence for this
        stream; everything after it in the replay buffer is resent (a
        batch the server did apply but whose ack we lost dedupes
        against the ledger).  If the load finalized while we were away
        there is nothing to feed — the buffered tail was already
        committed or never will be, and :meth:`commit` reports which.
        """
        source_id = self._source_id
        if source_id is None or not self._ingest_active:
            return
        reply = self._request_once(
            wire.RESUME, {"source_id": source_id}, expect=wire.RESUME,
        )
        if reply.header.get("finalized"):
            self._sent.clear()
            self._ingest_active = False
            return
        last = int(reply.header.get("last_seq", 0))
        for seq in sorted(self._sent):
            entry = self._sent.get(seq)
            if entry is None or seq <= last:
                continue
            _, body, header = entry
            ack = self._request_once(
                wire.CHUNKS, dict(header), body, expect=wire.INGEST_ACK,
            )
            self._prune(ack)
        if self._ingest_ended:
            self._request_once(wire.END_INGEST, {}, expect=wire.INGEST_ACK)

    def _prune(self, reply: Message) -> None:
        """Drop replay-buffer entries the server has made durable."""
        durable = reply.header.get("durable_seq")
        if isinstance(durable, bool) or not isinstance(durable, int):
            return
        for seq in [s for s in self._sent if s <= durable]:
            del self._sent[seq]

    # ------------------------------------------------------------------
    def fetch_plan(self) -> Optional[PushdownPlan]:
        """The service's pushdown plan (``None`` if it has none)."""
        reply = self._request(wire.GET_PLAN, expect=wire.PLAN)
        if not reply.header.get("present"):
            return None
        return loads_plan(reply.body.decode("utf-8"))

    def load(self, source, *, n_records: Optional[int] = None,
             source_id: Optional[str] = None,
             batch_size: int = DEFAULT_SHIP_BATCH) -> int:
        """Client-filter *source* and stream its chunks to the service.

        Fetches the plan, runs this process's
        :class:`~repro.client.device.SimulatedClient` over the records
        (predicate bit-vectors computed client-side), and ships encoded
        chunk frames in batches of *batch_size* per CHUNKS message —
        every batch is acknowledged, so a returned count is a received
        count.  Returns the number of chunk frames the service accepted.

        Call :meth:`commit` (after all participating clients finish) to
        seal the load; :meth:`snapshot_query` works before the commit.
        """
        # Imported here (not at module top): source coercion pulls in the
        # api layer, which imports transport; keep the client-facing
        # entry lazy so service/* never creates an import cycle.
        from ..api.source import as_source

        src = as_source(source, seed=self.seed, n_records=n_records)
        plan = self.fetch_plan()
        client = SimulatedClient(self.client_id, plan, self.chunk_size)
        self.last_client = client
        self._open_ingest(source_id or self.client_id)
        accepted = 0
        pending: List[Any] = []
        for chunk in client.process(src.records()):
            pending.append(chunk)
            if len(pending) >= batch_size:
                accepted += self._ship(pending)
                pending = []
        if pending:
            accepted += self._ship(pending)
        self._end_ingest()
        return accepted

    def _open_ingest(self, source_id: str) -> None:
        """Open (retrying: resume) the ingest stream *source_id*.

        A retrying session opens with RESUME rather than OPEN_INGEST —
        the two differ exactly in their retry safety: a replayed
        OPEN_INGEST trips the "already open" guard, a replayed RESUME
        re-adopts the same stream.  The reply's watermark seeds the
        sequence counter, so rejoining an existing stream continues it
        instead of colliding with it.
        """
        self._source_id = source_id
        self._ingest_active = True
        self._ingest_ended = False
        self._sent.clear()
        if self.retry is None:
            self._request(wire.OPEN_INGEST, {"source_id": source_id},
                          expect=wire.INGEST_ACK)
            return
        reply = self._request(wire.RESUME, {"source_id": source_id},
                              expect=wire.RESUME)
        last = int(reply.header.get("last_seq", 0))
        self._seqs[source_id] = max(self._seqs.get(source_id, 0), last)

    def _ship(self, chunks) -> int:
        """Send one CHUNKS batch; returns the acknowledged frame count.

        Every batch carries its stream sequence number and a body crc;
        retrying sessions additionally buffer it until the server
        reports it durable (the ``durable_seq`` ack field), bounding
        replay to the tail a crash can actually lose.
        """
        source_id = self._source_id
        assert source_id is not None
        body = encode_frame_batch(chunks)
        seq = self._seqs.get(source_id, 0) + 1
        self._seqs[source_id] = seq
        header: Dict[str, Any] = {
            "frames": len(chunks), "seq": seq, "source_id": source_id,
        }
        wire.attach_crc(header, body)
        if self.retry is not None:
            self._sent[seq] = (len(chunks), body, dict(header))
        reply = self._request(wire.CHUNKS, header, body,
                              expect=wire.INGEST_ACK)
        self._prune(reply)
        return int(reply.header.get("frames_accepted", 0))

    def _end_ingest(self) -> None:
        self._ingest_ended = True
        self._request(wire.END_INGEST, {}, expect=wire.INGEST_ACK)
        self._ingest_active = False

    def commit(self) -> Dict[str, Any]:
        """Seal the remote load; returns the service's report summary.

        Safe to retry: the service-side finalize is idempotent, so a
        replayed COMMIT returns the same report it already built.
        """
        reply = self._request(wire.COMMIT, expect=wire.COMMITTED)
        return dict(reply.header.get("report", {}))

    # ------------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """Run *sql* on the service's finalized store."""
        return self._traced_query(sql, snapshot=False)

    def snapshot_query(self, sql: str) -> QueryResult:
        """Run *sql* against the service's loaded-so-far snapshot."""
        return self._traced_query(sql, snapshot=True)

    def _traced_query(self, sql: str, snapshot: bool) -> QueryResult:
        """One QUERY round trip, wrapped in a client-side span.

        The span's context rides the wire header; the service executes
        under it and returns its finished span records in the RESULT
        header, which are adopted here — so a single trace id covers
        ``remote.query`` on this side and plan/scan/aggregate on the
        server side.  With the (default) null tracer this is exactly the
        pre-obs request path.
        """
        header: Dict[str, Any] = {"sql": sql, "snapshot": snapshot}
        if not self.tracer.enabled:
            reply = self._request(wire.QUERY, header, expect=wire.RESULT)
            return result_from_payload(reply.body)
        with self.tracer.trace(
            "remote.query", attrs={"sql": sql, "snapshot": snapshot},
        ) as span:
            wire.attach_trace(header, span.trace_id, span.span_id)
            reply = self._request(wire.QUERY, header, expect=wire.RESULT)
            spans = reply.header.get("spans")
            if isinstance(spans, list):
                self.tracer.adopt(
                    s for s in spans if isinstance(s, dict)
                )
            return result_from_payload(reply.body)

    def ping(self) -> bool:
        """One PING/PONG heartbeat round trip (resets idle reaping)."""
        reply = self._request(wire.PING, expect=wire.PONG)
        return reply.tag == wire.PONG

    def stats(self, query_log_tail: int = 0) -> Dict[str, Any]:
        """Poll the service's live STATS document.

        Includes connection/admission accounting and the service-side
        metrics snapshot; *query_log_tail* > 0 additionally requests the
        most recent N query-log records.
        """
        reply = self._request(
            wire.STATS, {"query_log_tail": int(query_log_tail)},
            expect=wire.STATS,
        )
        try:
            doc = json.loads(reply.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteError(f"malformed STATS reply: {exc}") from exc
        if not isinstance(doc, dict):
            raise RemoteError(
                f"STATS reply must be a JSON object, got "
                f"{type(doc).__name__}"
            )
        return doc

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say BYE (best effort) and close the channel (idempotent)."""
        if self._closed:
            return
        try:
            self._request_once(wire.BYE, expect=wire.BYE)
        except (RemoteError, TransportError, wire.WireError):
            pass  # the goodbye is a courtesy, not a contract
        self._closed = True
        self.channel.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
