"""Typed service messages over a channel: the remote-session wire format.

Chunk frames (:mod:`repro.client.protocol`) carry data; this module
carries *conversation* — the handshake, plan shipping, ingest control,
and query traffic between a :class:`~repro.service.remote.RemoteSession`
and a :class:`~repro.service.service.CiaoService`.  One message is one
channel payload::

        [MAGIC "CIAW"] [u8 tag] [u32 header_len] [header JSON]
        [u32 body_len] [body bytes]

The header is small structured metadata (source ids, SQL text, error
strings) as UTF-8 JSON; the body is an opaque byte blob for the payloads
that already have their own serialization — batched chunk frames, a
:mod:`repro.core.plan_io` plan document, an encoded query result.  All
integers are little-endian, and every length is bounds-checked before
the slice so truncated or corrupt messages surface as :class:`WireError`
rather than silent misparses (same discipline as the chunk protocol).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: Service message magic ("CIAO wire"); chunk frames use ``CIA3``.
MAGIC = b"CIAW"

#: Conversation protocol version, checked in the HELLO/WELCOME handshake.
PROTOCOL_VERSION = 1

_U32_BYTES = 4
_HEADER_OFFSET = len(MAGIC) + 1  # magic + tag byte

#: Ceiling on the JSON header — headers are metadata, not payload.
MAX_HEADER_BYTES = 1 << 20

#: Message tags, in conversation order.
HELLO = 1          # client → server: {"client_id", "protocol"}
WELCOME = 2        # server → client: {"server", "mode", "protocol"}
GET_PLAN = 3       # client → server: {}
PLAN = 4           # server → client: {"present"}; body = plan_io text
OPEN_INGEST = 5    # client → server: {"source_id"}
CHUNKS = 6         # client → server: {"frames"}; body = chunk frames
INGEST_ACK = 7     # server → client: {"frames_accepted"}
END_INGEST = 8     # client → server: {"source_id"}
COMMIT = 9         # client → server: {}
COMMITTED = 10     # server → client: {"report"}
QUERY = 11         # client → server: {"sql", "snapshot"}
RESULT = 12        # server → client: {"spans"?}; body = encoded result
ERROR = 13         # server → client: {"error"}
BUSY = 14          # server → client: {"error"} (admission saturated)
BYE = 15           # client → server: {}
STATS = 16         # both ways: request {}, reply {}; body = stats JSON
RESUME = 17        # client → server: {"source_id"}; reply RESUME:
                   # {"source_id", "last_seq", "finalized"?}
PING = 18          # client → server: {} (liveness probe)
PONG = 19          # server → client: {}

_TAG_NAMES = {
    HELLO: "HELLO", WELCOME: "WELCOME", GET_PLAN: "GET_PLAN",
    PLAN: "PLAN", OPEN_INGEST: "OPEN_INGEST", CHUNKS: "CHUNKS",
    INGEST_ACK: "INGEST_ACK", END_INGEST: "END_INGEST",
    COMMIT: "COMMIT", COMMITTED: "COMMITTED", QUERY: "QUERY",
    RESULT: "RESULT", ERROR: "ERROR", BUSY: "BUSY", BYE: "BYE",
    STATS: "STATS", RESUME: "RESUME", PING: "PING", PONG: "PONG",
}

#: Header field carrying trace context.  Headers are read with ``.get``
#: on both ends, so an old peer simply ignores the field — trace
#: propagation is backward/forward compatible by construction.
TRACE_FIELD = "trace"

#: Header field carrying a CRC-32 of the message body.  Same tolerant
#: ``.get`` discipline as :data:`TRACE_FIELD`: an absent field means
#: "unchecked", so old peers interoperate unchanged.
CRC_FIELD = "crc"


class WireError(ValueError):
    """A malformed, truncated, or unknown service message."""


def attach_trace(header: Dict[str, Any], trace_id: str,
                 parent_id: str) -> Dict[str, Any]:
    """Add trace context to a message header (mutates and returns it).

    The receiving side re-roots its spans under this context so one
    trace id covers both halves of a remote query.
    """
    header[TRACE_FIELD] = {"trace_id": trace_id, "parent_id": parent_id}
    return header


def extract_trace(header: Dict[str, Any]) -> Tuple[str, str] | None:
    """The ``(trace_id, parent_id)`` in *header*, if well-formed.

    Tolerant by design: an absent field (old client), a non-dict value,
    or missing ids all return ``None`` rather than raising, so trace
    context can never break message handling.
    """
    value = header.get(TRACE_FIELD)
    if not isinstance(value, dict):
        return None
    trace_id = value.get("trace_id")
    parent_id = value.get("parent_id")
    if not isinstance(trace_id, str) or not isinstance(parent_id, str):
        return None
    if not trace_id or not parent_id:
        return None
    return trace_id, parent_id


def attach_crc(header: Dict[str, Any], body: bytes) -> Dict[str, Any]:
    """Stamp *header* with a CRC-32 of *body* (mutates and returns it).

    The wire codec already rejects truncated *messages*; the CRC closes
    the remaining gap — a body whose bytes were flipped in flight but
    whose framing survived.  Ingest payloads are the case that matters:
    a corrupted chunk frame must bounce back to the sender as a
    retryable error, never reach a shard worker.
    """
    header[CRC_FIELD] = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    return header


def verify_crc(header: Dict[str, Any], body: bytes) -> bool:
    """True iff *header* carries no CRC or the CRC matches *body*.

    Tolerant like :func:`extract_trace`: a missing or non-integer field
    passes (old peers never stamp one), only a present-and-mismatched
    CRC fails.
    """
    value = header.get(CRC_FIELD)
    if not isinstance(value, int) or isinstance(value, bool):
        return True
    return (zlib.crc32(bytes(body)) & 0xFFFFFFFF) == (value & 0xFFFFFFFF)


def tag_name(tag: int) -> str:
    """Human-readable name of a message tag (for errors and logs)."""
    return _TAG_NAMES.get(tag, f"tag#{tag}")


@dataclass
class Message:
    """One decoded service message."""

    tag: int
    header: Dict[str, Any] = field(default_factory=dict)
    body: bytes = b""

    @property
    def name(self) -> str:
        """The tag's symbolic name."""
        return tag_name(self.tag)


def encode_message(tag: int, header: Dict[str, Any] = None,
                   body: bytes = b"") -> bytes:
    """Serialize one service message into a channel payload."""
    if tag not in _TAG_NAMES:
        raise WireError(f"unknown message tag {tag}")
    header_bytes = json.dumps(
        header or {}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise WireError(
            f"{tag_name(tag)} header of {len(header_bytes)} bytes "
            f"exceeds the {MAX_HEADER_BYTES}-byte ceiling"
        )
    if not isinstance(body, (bytes, bytearray, memoryview)):
        raise WireError("message bodies are bytes")
    body = bytes(body)
    return b"".join((
        MAGIC,
        bytes((tag,)),
        len(header_bytes).to_bytes(_U32_BYTES, "little"),
        header_bytes,
        len(body).to_bytes(_U32_BYTES, "little"),
        body,
    ))


def _read_u32(buf: bytes, offset: int) -> Tuple[int, int]:
    """Bounds-checked little-endian u32 read; returns (value, new offset)."""
    end = offset + _U32_BYTES
    if end > len(buf):
        raise WireError(
            f"truncated message: u32 at offset {offset} needs {end} "
            f"bytes, have {len(buf)}"
        )
    return int.from_bytes(buf[offset:end], "little"), end


def _take(buf: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    """Bounds-checked slice of *length* bytes; returns (bytes, new offset)."""
    end = offset + length
    if end > len(buf):
        raise WireError(
            f"truncated message: field at offset {offset} declares "
            f"{length} bytes, have {len(buf) - offset}"
        )
    return buf[offset:end], end


def decode_message(payload: bytes) -> Message:
    """Parse one channel payload back into a :class:`Message`.

    Strict: bad magic, unknown tags, truncation anywhere, undecodable
    header JSON, and trailing garbage all raise :class:`WireError`.
    """
    if len(payload) < _HEADER_OFFSET:
        raise WireError(
            f"message of {len(payload)} bytes is shorter than the "
            f"{_HEADER_OFFSET}-byte preamble"
        )
    if payload[:len(MAGIC)] != MAGIC:
        raise WireError(
            f"bad message magic {bytes(payload[:len(MAGIC)])!r}; "
            f"expected {MAGIC!r}"
        )
    tag = payload[len(MAGIC)]
    if tag not in _TAG_NAMES:
        raise WireError(f"unknown message tag {tag}")
    header_len, offset = _read_u32(payload, _HEADER_OFFSET)
    if header_len > MAX_HEADER_BYTES:
        raise WireError(
            f"{tag_name(tag)} header declares {header_len} bytes; "
            f"ceiling is {MAX_HEADER_BYTES}"
        )
    header_bytes, offset = _take(payload, offset, header_len)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(
            f"{tag_name(tag)} header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise WireError(
            f"{tag_name(tag)} header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    body_len, offset = _read_u32(payload, offset)
    body, offset = _take(payload, offset, body_len)
    if offset != len(payload):
        raise WireError(
            f"{tag_name(tag)} message has {len(payload) - offset} "
            f"trailing bytes"
        )
    return Message(tag=tag, header=header, body=bytes(body))
