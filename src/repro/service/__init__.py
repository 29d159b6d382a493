"""Remote serving: a CiaoSession behind a socket, many clients at once.

The service layer is the paper's deployment story made literal: the
client-assisted loading pipeline (client-side predicate evaluation,
chunk shipping, server-side partial loading) running across a real wire.
:class:`CiaoService` serves one :class:`~repro.api.session.CiaoSession`
to N concurrent connections — remote ingest streams, plan shipping, and
admission-controlled query serving — and :class:`RemoteSession` is the
matching client.  Query admission mirrors the ingest side's
``max_active``/``max_pending`` discipline with round-robin fairness.
"""

from .. import _lazy

__all__ = [
    "AdmissionSaturated",
    "AdmissionStats",
    "CiaoService",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_CONNECTIONS",
    "QueryAdmission",
    "RESULT_FORMAT",
    "RemoteBusyError",
    "RemoteError",
    "RemoteRetryableError",
    "RemoteSession",
    "RemoteTimeoutError",
    "ResultFormatError",
    "RetryPolicy",
    "STATS_FORMAT",
    "canonical_result_bytes",
    "result_from_payload",
    "result_to_payload",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".admission": ("AdmissionSaturated", "AdmissionStats", "QueryAdmission"),
    "..recovery.retry": ("RetryPolicy",),
    ".remote": (
        "RemoteBusyError", "RemoteError", "RemoteRetryableError",
        "RemoteSession", "RemoteTimeoutError"),
    ".results": (
        "RESULT_FORMAT", "ResultFormatError", "canonical_result_bytes",
        "result_from_payload", "result_to_payload"),
    ".service": (
        "DEFAULT_IDLE_TIMEOUT", "DEFAULT_MAX_CONNECTIONS", "STATS_FORMAT",
        "CiaoService"),
})
