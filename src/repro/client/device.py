"""A simulated client device (edge sensor / log shipper).

The device consumes raw records, batches them into chunks, runs the
pushdown plan's predicates, and emits encoded chunks onto a channel.  It
keeps a ledger of the client-side cost in both axes: wall-clock (what this
Python process actually spent matching) and modeled µs (what the calibrated
cost model charges — the number the budget constrains).

A ``speed_factor`` < 1 makes the device an under-powered client: its
*virtual* cost is scaled up accordingly, which is how heterogeneous-client
experiments exercise :func:`repro.core.budgets.allocate_budgets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

from ..core.optimizer import PushdownPlan
from ..rawjson.chunks import DEFAULT_CHUNK_SIZE, JsonChunk, chunk_records
from ..transport import Channel
from .evaluator import ClientEvaluator, EvaluationReport
from .protocol import encode_chunk


@dataclass
class ClientStats:
    """Cumulative device accounting."""

    records: int = 0
    chunks: int = 0
    wall_seconds: float = 0.0
    modeled_us: float = 0.0
    bytes_sent: int = 0

    def modeled_us_per_record(self) -> float:
        """Average modeled per-record cost — the budget's unit."""
        return self.modeled_us / self.records if self.records else 0.0

    def observed_us_per_record(self) -> float:
        """Average measured evaluation wall time per record, in µs.

        The cost the client really paid on this host, beside
        :meth:`modeled_us_per_record`, the cost the optimizer assumed.
        """
        return self.wall_seconds * 1e6 / self.records if self.records else 0.0


class SimulatedClient:
    """One data-producing client executing a pushdown plan.

    Args:
        client_id: Identifier, for multi-client experiments.
        plan: The pushdown plan (None/empty = annotate nothing; the
            zero-budget baseline).
        chunk_size: Records per chunk (paper default 1 000).
        speed_factor: Relative device speed; modeled cost scales by 1/f.
    """

    def __init__(self, client_id: str,
                 plan: Optional[PushdownPlan] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 speed_factor: float = 1.0):
        if speed_factor <= 0:
            raise ValueError("speed factor must be positive")
        self.client_id = client_id
        self.plan = plan
        self.chunk_size = chunk_size
        self.speed_factor = speed_factor
        self._evaluator = (
            ClientEvaluator(plan.entries) if plan and len(plan) else None
        )
        self.stats = ClientStats()

    def update_plan(self, plan: Optional[PushdownPlan]) -> None:
        """Swap the executed plan (fleet budget re-allocation).

        Fleet coordinators re-allocate budgets between loading intervals;
        the new plan must be a prefix/superset of the same global plan so
        predicate ids stay consistent (see ``PushdownPlan.restrict``).
        Chunks annotated before the swap keep their old annotations —
        the server loads partially-annotated chunks eagerly, so answers
        stay exact.  ``budget_respected`` compares the cumulative ledger
        against the *current* plan's budget, so it is only meaningful
        between swaps.
        """
        self.plan = plan
        self._evaluator = (
            ClientEvaluator(plan.entries) if plan and len(plan) else None
        )

    def process(self, raw_records: Iterable[str],
                start_chunk_id: int = 0) -> Iterator[JsonChunk]:
        """Batch, annotate, and yield chunks (not yet encoded)."""
        for chunk in chunk_records(raw_records, self.chunk_size,
                                   start_id=start_chunk_id):
            if self._evaluator is not None:
                report = self._evaluator.annotate(chunk)
                self._account(report)
            self.stats.records += len(chunk)
            self.stats.chunks += 1
            yield chunk

    def ship(self, raw_records: Iterable[str], channel: Channel,
             batch_size: int = 1,
             on_flush: Optional[Callable[[], None]] = None) -> int:
        """Process records and send encoded chunks; returns chunk count.

        With ``batch_size > 1``, that many chunk frames are concatenated
        into one channel message (:meth:`Channel.send_batch`), amortizing
        per-message transport overhead for small chunks; the server splits
        the frames back apart when draining.

        *on_flush* runs after every message actually sent — the hook a
        driver uses to drain the channel into a server as data flows
        (bounded memory) instead of after the whole stream shipped.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        sent = 0
        batch: List[bytes] = []
        for chunk in self.process(raw_records):
            payload = encode_chunk(chunk)
            self.stats.bytes_sent += len(payload)
            batch.append(payload)
            sent += 1
            if len(batch) >= batch_size:
                self._flush(batch, channel, on_flush)
        self._flush(batch, channel, on_flush)
        return sent

    @staticmethod
    def _flush(batch: List[bytes], channel: Channel,
               on_flush: Optional[Callable[[], None]] = None) -> None:
        flushed = bool(batch)
        channel.send_frames(batch)
        batch.clear()
        if flushed and on_flush is not None:
            on_flush()

    def _account(self, report: EvaluationReport) -> None:
        self.stats.wall_seconds += report.wall_seconds
        self.stats.modeled_us += report.modeled_us / self.speed_factor

    def budget_respected(self, tolerance: float = 1e-9) -> bool:
        """Did average modeled cost stay within the plan's budget?

        The plan's budget is expressed in calibrated-machine µs, so the
        device's speed-scaled ledger is rescaled back before comparing.
        Vacuously true with no plan.  The optimizer guarantees this by
        construction; integration tests assert it end to end.
        """
        if self.plan is None or self.stats.records == 0:
            return True
        calibrated_us = self.stats.modeled_us_per_record() * self.speed_factor
        return calibrated_us <= self.plan.budget.us + tolerance
