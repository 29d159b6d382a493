"""Transport layer: channels, decorators, sockets, and the service wire.

The channel stack, lifted out of ``simulate/`` now that it carries real
traffic: :class:`Channel` and its in-process/file implementations,
the composable :class:`LossyChannel`/:class:`LatencyChannel` decorators,
declarative construction (:class:`ChannelSpec`, :func:`make_channel`,
:func:`per_client_channels`), the TCP transport
(:class:`SocketChannel`, :class:`SocketListener`), and the typed
service-message codec (:mod:`repro.transport.wire`).  Decorators compose
over any base transport — a seeded lossy link behaves identically over
an in-memory queue and a live socket.
"""

from .. import _lazy

__all__ = [
    "Channel",
    "ChannelDecorator",
    "ChannelLike",
    "ChannelSpec",
    "ChannelStats",
    "ChannelTimeout",
    "FaultEvent",
    "FaultPlan",
    "FaultyChannel",
    "FileChannel",
    "LatencyChannel",
    "LinkModel",
    "LossyChannel",
    "MAX_FRAME_BYTES",
    "MemoryChannel",
    "Message",
    "OpCounter",
    "SocketChannel",
    "SocketListener",
    "TransportError",
    "WireError",
    "decode_message",
    "encode_message",
    "faulty_dialer",
    "make_channel",
    "per_client_channels",
    "socket_pair",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".base": (
        "Channel", "ChannelDecorator", "ChannelStats", "ChannelTimeout",
        "MemoryChannel", "TransportError"),
    ".decorators": ("LatencyChannel", "LinkModel", "LossyChannel"),
    ".faults": (
        "FaultEvent", "FaultPlan", "FaultyChannel", "OpCounter",
        "faulty_dialer"),
    ".file": ("FileChannel",),
    ".sockets": (
        "MAX_FRAME_BYTES", "SocketChannel", "SocketListener", "socket_pair"),
    ".spec": (
        "ChannelLike", "ChannelSpec", "make_channel", "per_client_channels"),
    ".wire": ("Message", "WireError", "decode_message", "encode_message"),
})
