"""Fault tolerance: durable manifests, exactly-once ingest, retries.

The pieces that let a CIAO deployment survive real faults instead of
simulated ones: a crash-atomic :class:`Manifest` recording each
server's sealed state (:mod:`repro.recovery.manifest`), the
:class:`IngestLedger` that makes replayed batches idempotent
(:mod:`repro.recovery.ledger`), and the bounded deterministic
:class:`RetryPolicy` clients retry under
(:mod:`repro.recovery.retry`).  The server side wires these into
:meth:`repro.server.CiaoServer.checkpoint` /
:meth:`repro.server.CiaoServer.recover`; the client side into
:class:`repro.service.RemoteSession`; the chaos harness that proves
the combination lives in :mod:`repro.transport.faults`.
"""

from .. import _lazy

__all__ = [
    "IngestLedger",
    "LedgerError",
    "MANIFEST_FORMAT",
    "Manifest",
    "ManifestError",
    "RetryPolicy",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".ledger": ("IngestLedger", "LedgerError"),
    ".manifest": ("MANIFEST_FORMAT", "Manifest", "ManifestError"),
    ".retry": ("RetryPolicy",),
})
