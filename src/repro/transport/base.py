"""Channel core: the ordered-message transport abstraction.

A :class:`Channel` is a one-directional ordered byte-message transport;
everything above it (chunk framing, plan shipping, the service wire) is
payload.  This module holds the abstraction plus the in-process
:class:`MemoryChannel` and the :class:`ChannelDecorator` base the fault/
latency decorators build on.  Concrete transports live beside it —
:mod:`repro.transport.file` (the paper's file-I/O deployment),
:mod:`repro.transport.sockets` (real TCP) — and compose with the
decorators identically, so a seeded lossy link works the same over a
real wire as over an in-memory queue.

Every channel accounts bytes and messages in :class:`ChannelStats` so
experiments can report transfer overhead — bit-vectors add ~1 bit per
record per pushed predicate, one of CIAO's selling points.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, Optional, Sequence

#: Undelivered messages a channel may hold before its sender blocks.
DEFAULT_MAX_PENDING = 8

#: Sleep between polls in the generic :meth:`Channel.receive_wait` loop.
_POLL_SECONDS = 0.0005


class TransportError(RuntimeError):
    """A transport-level failure (closed socket, oversized frame)."""


class ChannelTimeout(TransportError):
    """A channel's receive deadline elapsed with the peer silent.

    Raised by transports configured with a ``recv_deadline`` (see
    :class:`repro.transport.sockets.SocketChannel`) when a blocking
    receive outlives the deadline.  Distinct from the ``None`` a plain
    *timeout* returns: the deadline is a liveness bound — crossing it
    means the peer should be presumed hung, and the caller should tear
    the conversation down rather than keep waiting.
    """


@dataclass
class ChannelStats:
    """Transfer accounting for one channel."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    #: First transmissions lost on a lossy link (each one was
    #: retransmitted, so drops cost bytes, never data).
    messages_dropped: int = 0

    def record_send(self, size: int) -> None:
        """Account one outgoing message of *size* bytes."""
        self.messages_sent += 1
        self.bytes_sent += size

    def record_receive(self) -> None:
        """Account one delivered message."""
        self.messages_received += 1

    def record_drop(self, size: int) -> None:
        """Account one dropped transmission (its retransmission bytes too)."""
        self.messages_dropped += 1
        self.bytes_sent += size


class Channel(ABC):
    """One-directional ordered message transport."""

    def __init__(self) -> None:
        self.stats = ChannelStats()

    @abstractmethod
    def send(self, payload: bytes) -> None:
        """Enqueue one message."""

    def send_batch(self, payloads: Iterable[bytes]) -> None:
        """Frame several encoded chunks into one message.

        Chunk frames are self-delimiting, so the batch is their plain
        concatenation; one queue put / spool file then carries many
        chunks, amortizing per-message transport overhead.  Receivers
        that care about chunk boundaries use :meth:`drain_chunks`, which
        splits batches back apart; an empty batch sends nothing.
        """
        batch = bytearray()
        for payload in payloads:
            if not isinstance(payload, (bytes, bytearray, memoryview)):
                raise TypeError("channels carry bytes")
            batch += payload
        if batch:
            self.send(bytes(batch))

    def send_frames(self, payloads: Sequence[bytes]) -> None:
        """Send buffered chunk frames as one message.

        The canonical flush for senders that accumulate frames: a single
        frame goes out directly (no copy), several are concatenated via
        :meth:`send_batch`, and an empty buffer sends nothing.
        """
        if len(payloads) == 1:
            self.send(payloads[0])
        elif payloads:
            self.send_batch(payloads)

    @abstractmethod
    def receive(self) -> Optional[bytes]:
        """Dequeue the oldest message, or None if the channel is empty."""

    def receive_wait(self, timeout: Optional[float] = None
                     ) -> Optional[bytes]:
        """Block until a message arrives (or *timeout* seconds pass).

        The generic implementation polls :meth:`receive`; transports
        with a real readiness primitive (sockets) override it.  Returns
        ``None`` on timeout or when the channel can never deliver again
        (:attr:`closed`).
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            payload = self.receive()
            if payload is not None:
                return payload
            if self.closed:
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(_POLL_SECONDS)

    @property
    def closed(self) -> bool:
        """True once the channel can never deliver another message."""
        return False

    def close(self) -> None:
        """Release transport resources (no-op for in-process channels)."""

    def drain(self) -> Iterator[bytes]:
        """Receive until empty."""
        while True:
            payload = self.receive()
            if payload is None:
                return
            yield payload

    def drain_chunks(self) -> Iterator[bytes]:
        """Receive until empty, yielding individual chunk frames.

        The inverse of :meth:`send_batch`: each received message is split
        into its chunk frames (a single-chunk message yields itself), so
        consumers see one chunk per iteration regardless of how the
        sender framed them.  Only valid for channels carrying encoded
        chunks.
        """
        # Imported lazily: the chunk protocol sits above the transport
        # layer in the package graph, and channels stay payload-agnostic
        # except for this one chunk-aware convenience.
        from ..client.protocol import split_frames

        for payload in self.drain():
            for frame in split_frames(payload):
                yield bytes(frame)

    def __len__(self) -> int:
        return self.pending()

    @abstractmethod
    def pending(self) -> int:
        """Number of undelivered messages."""


class MemoryChannel(Channel):
    """In-process FIFO — the fast default for tests and benches."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[bytes] = deque()

    def send(self, payload: bytes) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("channels carry bytes")
        self._queue.append(bytes(payload))
        self.stats.record_send(len(payload))

    def receive(self) -> Optional[bytes]:
        if not self._queue:
            return None
        self.stats.record_receive()
        return self._queue.popleft()

    def pending(self) -> int:
        return len(self._queue)


class ChannelDecorator(Channel):
    """Base for channels that wrap another channel.

    Decorators compose declaratively (see
    :func:`repro.transport.make_channel`): each one adds a transport
    property — loss, latency pricing — while delegating storage to the
    innermost real channel.  The decorator keeps its own
    :class:`ChannelStats` describing what *it* saw; ``inner.stats`` keeps
    the underlying channel's view.
    """

    def __init__(self, inner: Channel):
        super().__init__()
        self.inner = inner

    def send(self, payload: bytes) -> None:
        self.stats.record_send(len(payload))
        self.inner.send(payload)

    def receive(self) -> Optional[bytes]:
        payload = self.inner.receive()
        if payload is not None:
            self.stats.record_receive()
        return payload

    def receive_wait(self, timeout: Optional[float] = None
                     ) -> Optional[bytes]:
        payload = self.inner.receive_wait(timeout)
        if payload is not None:
            self.stats.record_receive()
        return payload

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def close(self) -> None:
        self.inner.close()

    def pending(self) -> int:
        return self.inner.pending()
