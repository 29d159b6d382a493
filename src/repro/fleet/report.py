"""Fleet run reporting: per-client and aggregate accounting.

The :class:`FleetReport` is the contract every fleet scenario (drift,
churn, flaky networks) checks against: per-client throughput and budget
utilization, aggregate load accounting (a
:class:`~repro.server.loader.LoadSummary`) with the no-record-loss
invariant (the summary's ``accounting_ok`` and ``received`` equal to the
records handed to the fleet), reassignment and re-allocation counts, and
the run's :class:`~repro.simulate.runtime.CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..server.loader import LoadSummary
from ..simulate.runtime import CostLedger


@dataclass
class ClientRunReport:
    """One client's contribution to a fleet load."""

    client_id: str
    platform: str
    speed_factor: float
    share: float
    budget_us: float
    n_pushed: int
    assigned_records: int
    shipped_records: int
    absorbed_records: int
    shipped_chunks: int
    bytes_sent: int
    modeled_us_per_record: float
    prefilter_wall_s: float
    killed: bool
    #: Transmissions a lossy channel dropped (and retransmitted) for
    #: this client — loss costs bytes, never records.
    messages_dropped: int = 0

    @property
    def device_records_per_s(self) -> float:
        """Records retired per second of on-device prefiltering time."""
        if self.prefilter_wall_s <= 0:
            return 0.0
        return self.shipped_records / self.prefilter_wall_s

    @property
    def budget_utilization(self) -> float:
        """Modeled spend as a fraction of the allocated budget."""
        if self.budget_us <= 0:
            return 0.0
        return (self.modeled_us_per_record * self.speed_factor
                / self.budget_us)


@dataclass
class FleetReport:
    """Aggregate outcome of one coordinated fleet load."""

    clients: List[ClientRunReport]
    summary: LoadSummary
    total_records: int
    wall_seconds: float
    reassignment_events: int = 0
    reassigned_records: int = 0
    reassignments: List[Tuple[str, str, int]] = field(default_factory=list)
    realloc_rounds: int = 0
    chunks_by_source: Dict[str, int] = field(default_factory=dict)
    ledger: CostLedger = field(default_factory=CostLedger)

    # ------------------------------------------------------------------
    @property
    def records_per_second(self) -> float:
        """Aggregate fleet loading throughput (wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.summary.received / self.wall_seconds

    @property
    def killed_clients(self) -> List[str]:
        """Ids of clients that died mid-load."""
        return [c.client_id for c in self.clients if c.killed]

    @property
    def messages_dropped(self) -> int:
        """Fleet-wide dropped (retransmitted) transmissions."""
        return sum(c.messages_dropped for c in self.clients)

    @property
    def no_record_loss(self) -> bool:
        """The fleet-wide accounting invariant.

        Every record handed to the fleet arrived at the server exactly
        once and was either loaded, sidelined, or quarantined malformed —
        even across client deaths and partition reassignment.
        """
        return (self.summary.accounting_ok
                and self.summary.received == self.total_records)

    def client(self, client_id: str) -> ClientRunReport:
        """One client's row."""
        for report in self.clients:
            if report.client_id == client_id:
                return report
        raise KeyError(client_id)

    def describe(self) -> str:
        """Paper-style fleet table plus the aggregate footer."""
        # Imported here: reporting sits in the bench layer, which imports
        # broadly; the fleet data model must stay importable on its own.
        from ..bench.reporting import fleet_table

        return fleet_table(self)
