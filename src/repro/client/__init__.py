"""Client-side substrate: raw-record evaluation, chunk protocol, devices."""

from .. import _lazy

__all__ = [
    "ClientEvaluator",
    "ClientStats",
    "DEFAULT_SHIP_BATCH",
    "EvaluationReport",
    "MAGIC",
    "ProtocolError",
    "SimulatedClient",
    "bitvector_overhead",
    "decode_chunk",
    "decode_chunk_stream",
    "encode_chunk",
    "encode_frame_batch",
    "split_frames",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".device": ("ClientStats", "SimulatedClient"),
    ".evaluator": ("ClientEvaluator", "EvaluationReport"),
    ".protocol": (
        "DEFAULT_SHIP_BATCH", "MAGIC", "ProtocolError", "bitvector_overhead",
        "decode_chunk", "decode_chunk_stream", "encode_chunk",
        "encode_frame_batch", "split_frames"),
})
