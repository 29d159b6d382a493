"""The unified load report: one accounting contract for every mode.

A :class:`LoadReport` *is* a :class:`~repro.server.loader.LoadSummary` —
the counters, ``loading_ratio`` and the ``accounting_ok`` partition
invariant (``received == loaded + sidelined + malformed``) are inherited
— plus the deployment context of one load: its mode, the offered record
count, and the client, fleet and transport accounting.  When the offered
count is known, :attr:`LoadReport.no_record_loss` also requires
``received == records_offered``, so callers of
:meth:`~repro.api.session.LoadJob.result` check one contract regardless
of how the data got there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..server.loader import LoadSummary

if TYPE_CHECKING:
    from ..client.device import ClientStats
    from ..fleet.report import FleetReport


@dataclass(kw_only=True)
class LoadReport(LoadSummary):
    """Outcome of one :meth:`CiaoSession.load` run, any mode.

    The inherited counters are the server's; ``wall_seconds`` is the
    job's wall clock (start to finalized).
    """

    #: Deployment mode that produced this load.
    mode: str
    #: Records the session offered to the load (``None`` = unknown,
    #: e.g. a streamed file of unknown length).
    records_offered: Optional[int] = None
    #: Single-client device accounting (serial/sharded modes).
    client_stats: Optional[ClientStats] = None
    #: The full fleet report (fleet mode only).
    fleet: Optional[FleetReport] = None
    #: Payload bytes shipped over the transport.
    bytes_sent: int = 0
    #: Transmissions dropped (and retransmitted) by lossy channels.
    messages_dropped: int = 0

    @property
    def no_record_loss(self) -> bool:
        """Every offered record arrived exactly once and is accounted for.

        Falls back to :attr:`accounting_ok` when the offered count is
        unknown (streamed sources).
        """
        if not self.accounting_ok:
            return False
        if self.records_offered is None:
            return True
        return self.received == self.records_offered

    def describe(self) -> str:
        """Human-readable account of the load (fleet table when present)."""
        # Imported here: reporting sits in the bench layer, which imports
        # broadly; the API data model must stay importable on its own.
        from ..bench.reporting import load_report_block

        return load_report_block(self)
