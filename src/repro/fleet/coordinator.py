"""The fleet coordinator: N concurrent clients, one sharded server.

Architecture (one box per thread)::

    partition ──▶ client worker 0 ── channel 0 ──┐
    (Zipf shares) client worker 1 ── channel 1 ──┤   drain loop    sharded
                  ...                            ├──▶ (sessions, ─▶ ingest
                  client worker N ── channel N ──┘   re-allocation) pipeline

* **Client workers** run one :class:`~repro.client.device.SimulatedClient`
  each: take a chunk's worth of raw records from their work queue,
  annotate with their allocated plan prefix, encode, and ship onto their
  private channel in frame batches.  Shipping blocks while the channel
  holds :attr:`max_pending` undelivered messages — bounded per-channel
  backpressure, so a flooding fleet holds at most
  ``n_clients * max_pending`` messages plus the pipeline's own bounded
  queues in memory.  :attr:`max_active` optionally gates how many workers
  run concurrently (admission control).
* **The drain loop** (the caller's thread) moves messages from every
  channel into per-client :class:`~repro.server.ciao.IngestSession`\\ s,
  round-robin with a bounded take per visit so no channel starves the
  others, and periodically re-allocates budgets from observed throughput.
* **Straggler reassignment.**  Work queues are shared state: a worker
  whose own queue runs dry *steals* the oldest pending records from the
  neediest sibling — always from one that is dead (killed mid-load), or
  from a live one still holding at least a chunk's worth.  A dead
  client's remaining partition is therefore absorbed by whoever finishes
  first, with per-event accounting in the report; a merely slow client
  sheds load the same way.  Records a dying worker had in hand but never
  shipped are returned to its queue first, so the fleet-wide invariant
  ``received == loaded + sidelined + malformed == all records`` survives
  any single-client death.

Consistency model: the fleet result is equivalent to serial single-client
ingest of the union of the partitions — the engine scans a table as the
unordered union of its Parquet parts plus sideline, and every record lands
in exactly one shipped chunk regardless of which client ships it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, \
    Tuple, Union

from ..analysis.annotations import guarded_by
from ..analysis.sanitizer import make_condition
from ..client.device import SimulatedClient
from ..client.protocol import DEFAULT_SHIP_BATCH, encode_chunk
from ..core.budgets import Budget, ClientProfile
from ..core.optimizer import PushdownPlan
from ..server.ciao import CiaoServer, IngestSession
from ..transport import Channel, ChannelLike, per_client_channels
from ..transport.base import DEFAULT_MAX_PENDING
from ..simulate.runtime import LOADING, PREFILTERING, CostLedger
from .allocation import FleetAllocation, FleetBudgetAllocator, \
    uniform_allocation
from .population import ClientPopulation, FleetClientSpec
from .report import ClientRunReport, FleetReport

#: Sleep while waiting out backpressure or an empty work pool.
_POLL_SECONDS = 0.0005

#: Sentinel marking "no plan swap pending" (None is a valid plan).
_NO_SWAP = object()

#: Sentinel from ``_take_work(can_wait=False)``: no work available right
#: now, but the pool is not exhausted — flush buffered frames and retry.
_EMPTY_NOW = object()


@dataclass
class _Worker:
    """Mutable per-client state shared between threads.

    The work ``queue`` and the in-hand counter are guarded by the
    coordinator's condition lock; counters written by the worker thread
    (``shipped_*``) are read by the drain loop only for monotone
    progress estimates, which tolerate staleness.
    """

    spec: FleetClientSpec
    client: SimulatedClient
    channel: Channel
    session: IngestSession
    queue: Deque[str]
    assigned: int
    budget_us: float = 0.0
    shipped_records: int = 0
    shipped_chunks: int = 0
    absorbed_records: int = 0
    bytes_sent: int = 0
    chunks_emitted: int = 0
    #: Records claimed from a queue but not yet shipped or returned;
    #: guarded by the coordinator's condition lock.
    in_hand: int = 0
    killed: bool = False
    #: False only while gated behind admission control — such a worker
    #: cannot consume its own queue, so siblings may drain it fully.
    started: bool = True
    done: bool = False
    pending_plan: object = _NO_SWAP
    ledger: CostLedger = field(default_factory=CostLedger)
    thread: Optional[threading.Thread] = None


class FleetCoordinator:
    """Run a heterogeneous client fleet against one CIAO server.

    Args:
        server: The target server (state ``"loading"``).  Sharded servers
            get true pipeline parallelism; serial ones still get the
            coordination semantics.
        population: The fleet (a :class:`ClientPopulation` or a plain
            sequence of :class:`FleetClientSpec`).
        global_plan: Fleet-wide optimized pushdown plan; each client
            executes its allocated prefix.  ``None`` ships unannotated.
        aggregate_budget: Mean per-record budget across the fleet
            (calibrated-machine µs).  ``None`` gives every client the
            full *global_plan*.
        chunk_size: Records per chunk.
        batch_size: Chunk frames concatenated per channel message
            (framing amortization; measured default
            :data:`~repro.client.protocol.DEFAULT_SHIP_BATCH`).
        max_pending: Per-channel backpressure bound, in messages.
        max_active: Admission control — concurrently running client
            workers (``None`` = all at once).
        channel_factory: Per-client transport — a ``client_id ->
            Channel`` factory, or any declarative spec
            :func:`repro.transport.per_client_channels` accepts
            (a :class:`~repro.transport.ChannelSpec`, ``"memory"``,
            ``"file:<dir>"``); defaults to in-memory channels.  Lossy
            specs derive an independent, replayable drop seed per client.
        realloc_interval: Re-allocate budgets from observed throughput
            every this many chunks drained (``None`` disables — required
            for bit-for-bit deterministic client ledgers).
    """

    def __init__(self, server: CiaoServer,
                 population: ClientPopulation | Sequence[FleetClientSpec],
                 global_plan: Optional[PushdownPlan] = None,
                 aggregate_budget: Optional[Budget] = None,
                 chunk_size: int = 500,
                 batch_size: int = DEFAULT_SHIP_BATCH,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 max_active: Optional[int] = None,
                 channel_factory: Union[
                     Callable[[str], Channel], ChannelLike, None
                 ] = None,
                 realloc_interval: Optional[int] = None):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be >= 1 or None")
        if realloc_interval is not None and realloc_interval < 1:
            raise ValueError("realloc_interval must be >= 1 or None")
        if not isinstance(population, ClientPopulation):
            population = ClientPopulation(list(population))
        self.server = server
        self.population = population
        self.global_plan = global_plan
        self.aggregate_budget = aggregate_budget
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.max_active = max_active
        self.realloc_interval = realloc_interval
        self._channel_factory = per_client_channels(channel_factory)
        self._allocator: Optional[FleetBudgetAllocator] = None
        if global_plan is not None and aggregate_budget is not None:
            self._allocator = FleetBudgetAllocator(
                global_plan, aggregate_budget
            )
        self._workers: List[_Worker] = []
        self._by_id: Dict[str, _Worker] = {}
        self._cond = make_condition("FleetCoordinator._cond")
        self._admission = (
            threading.Semaphore(max_active) if max_active else None
        )
        self._reassignment_events = 0  # guarded-by: _cond
        self._reassigned_records = 0  # guarded-by: _cond
        self._reassignments: List[Tuple[str, str, int]] = []  # guarded-by: _cond
        self._realloc_rounds = 0
        self._profiles: List[ClientProfile] = []
        self._ran = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def kill_client(self, client_id: str) -> None:
        """Simulate *client_id* dying right now (cooperative, at the next
        chunk/backpressure boundary).  Its unshipped records stay in its
        queue for survivors to absorb."""
        worker = self._by_id[client_id]
        worker.killed = True
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self, records: Sequence[str],
            finalize: bool = True) -> FleetReport:
        """Load *records* through the fleet; returns the report.

        Partitions the input across the population, allocates budgets,
        runs every client worker concurrently, drains their channels into
        per-client ingest sessions, and (by default) finalizes the server
        so the report carries the merged load summary.
        """
        if self._ran:
            raise RuntimeError("a FleetCoordinator runs exactly once")
        self._ran = True
        records = list(records)
        partition = self.population.partition(records)
        allocation = self._initial_allocation()
        self._profiles = self.population.profiles()

        for spec in self.population:
            plan = allocation.plans.get(spec.client_id)
            budget = allocation.budgets.get(spec.client_id, Budget(0))
            client = SimulatedClient(
                spec.client_id,
                plan=plan,
                chunk_size=self.chunk_size,
                speed_factor=spec.speed_factor,
            )
            channel = self._channel_factory(spec.client_id)
            worker = _Worker(
                spec=spec,
                client=client,
                channel=channel,
                session=self.server.open_ingest_session(spec.client_id),
                queue=deque(partition[spec.client_id]),
                assigned=len(partition[spec.client_id]),
                budget_us=budget.us,
                started=self._admission is None,
            )
            self._workers.append(worker)
            self._by_id[spec.client_id] = worker

        start = time.perf_counter()
        for worker in self._workers:
            worker.thread = threading.Thread(
                target=self._worker_loop, args=(worker,), daemon=True
            )
            worker.thread.start()
        self._drain_loop()
        for worker in self._workers:
            worker.thread.join(timeout=30.0)
        summary = None
        if finalize:
            summary = self.server.finalize_loading()
        wall = time.perf_counter() - start
        return self._build_report(records, summary, wall)

    def _initial_allocation(self) -> FleetAllocation:
        if self._allocator is not None:
            return self._allocator.allocate(self.population.profiles())
        return uniform_allocation(
            self.global_plan, [s.client_id for s in self.population]
        )

    # ------------------------------------------------------------------
    # Client worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, worker: _Worker) -> None:
        if self._admission is not None:
            self._admission.acquire()
        worker.started = True
        # (payload, raw records) pairs annotated but not yet shipped.
        unshipped: List[Tuple[bytes, List[str]]] = []
        try:
            self._worker_body(worker, unshipped)
        except BaseException:  # ciaolint: allow[API006] -- re-raised below; siblings must be unwedged first
            # An unexpected client-side crash must not wedge the fleet:
            # hand back what can be handed back, zero the in-hand count
            # so siblings' termination check converges, and die loudly.
            worker.killed = True
            self._return_records(worker, unshipped)
            with self._cond:
                worker.in_hand = 0
                self._cond.notify_all()
            raise
        finally:
            worker.done = True
            with self._cond:
                self._cond.notify_all()
            if self._admission is not None:
                self._admission.release()

    def _worker_body(self, worker: _Worker,
                     unshipped: List[Tuple[bytes, List[str]]]) -> None:
        while True:
            if worker.pending_plan is not _NO_SWAP:
                # Swap-and-clear under the lock: _reallocate (drain
                # thread) may store a newer plan between our read and
                # the reset, and that round must not be silently lost.
                with self._cond:
                    pending = worker.pending_plan
                    worker.pending_plan = _NO_SWAP
                if pending is not _NO_SWAP:
                    worker.client.update_plan(pending)
            if worker.killed:
                self._return_records(worker, unshipped)
                return
            # Block waiting for work only with an empty ship buffer:
            # a waiter holding unshipped (in-hand) records would count
            # as "may still produce" for every *other* waiter's
            # exhaustion check, and two such waiters deadlock.
            batch = self._take_work(worker, can_wait=not unshipped)
            if batch is _EMPTY_NOW:
                if not self._flush(worker, unshipped):
                    self._return_records(worker, unshipped)
                    return
                continue
            if batch is None:
                break
            with worker.ledger.timed(PREFILTERING):
                for chunk in worker.client.process(
                    batch, start_chunk_id=worker.chunks_emitted
                ):
                    worker.chunks_emitted += 1
                    unshipped.append(
                        (encode_chunk(chunk), chunk.records)
                    )
            after = worker.spec.kill_after_chunks
            if after is not None and worker.chunks_emitted >= after:
                # Fault injection: ship exactly the first *after* chunks,
                # then die — deterministically, regardless of how frames
                # are batched.  The unclaimed queue stays for survivors.
                if unshipped and not self._flush(worker, unshipped):
                    self._return_records(worker, unshipped)
                    return
                worker.killed = True
                continue
            if len(unshipped) >= self.batch_size:
                if not self._flush(worker, unshipped):
                    self._return_records(worker, unshipped)
                    return
        # Work pool exhausted — or this worker was killed while it
        # waited for work; a dead client must not ship its buffer.
        if worker.killed:
            self._return_records(worker, unshipped)
        elif unshipped and not self._flush(worker, unshipped):
            self._return_records(worker, unshipped)

    def _take_work(self, worker: _Worker, can_wait: bool = True):
        """Claim up to one chunk of records — own queue first, then steal.

        Returns ``None`` when the fleet's work pool is exhausted (all
        queues empty and nothing in flight in any worker's hands), and
        :data:`_EMPTY_NOW` when nothing is claimable right now but the
        pool may still refill and *can_wait* is False.
        """
        with self._cond:
            while True:
                if worker.killed:
                    return None
                if worker.queue:
                    return self._claim(worker, worker.queue,
                                       self.chunk_size)
                picked = self._pick_victim(worker)
                if picked is not None:
                    victim, limit = picked
                    batch = self._claim(worker, victim.queue, limit)
                    worker.absorbed_records += len(batch)
                    self._reassignment_events += 1
                    self._reassigned_records += len(batch)
                    self._reassignments.append(
                        (victim.spec.client_id, worker.spec.client_id,
                         len(batch))
                    )
                    return batch
                # Exhausted iff no queue holds records and no *other*
                # worker might still return claimed ones (a sibling's
                # in-hand records either ship — gone for good — or come
                # back to a queue when it dies; this worker's own buffer
                # is flushed by itself after leaving).
                if not any(w.queue for w in self._workers) and not any(
                    w.in_hand for w in self._workers if w is not worker
                ):
                    return None
                if not can_wait:
                    return _EMPTY_NOW
                self._cond.wait(timeout=0.01)

    @guarded_by("_cond")
    def _claim(self, worker: _Worker, queue: Deque[str],
               limit: int) -> List[str]:
        n = min(self.chunk_size, limit, len(queue))
        batch = [queue.popleft() for _ in range(n)]
        worker.in_hand += n
        return batch

    @guarded_by("_cond")
    def _pick_victim(self, thief: _Worker
                     ) -> Optional[Tuple[_Worker, int]]:
        """The neediest sibling to steal from (with a take limit), or None.

        Workers that cannot make progress themselves — dead (killed, or
        exited with a non-empty queue) or still gated behind admission
        control — are fully stealable.  Live ones are only relieved of
        backlog *beyond* their final chunk: every running client gets to
        ship at least one chunk of its own partition, and the tail of a
        healthy load is not churned between clients.
        """
        best: Optional[_Worker] = None
        best_key = None
        best_limit = 0
        for other in self._workers:
            if other is thief or not other.queue:
                continue
            backlog = len(other.queue)
            blocked = other.killed or other.done or not other.started
            limit = backlog if blocked else backlog - self.chunk_size
            if limit <= 0:
                continue
            key = (blocked, backlog)
            if best_key is None or key > best_key:
                best, best_key, best_limit = other, key, limit
        if best is None:
            return None
        return best, best_limit

    def _flush(self, worker: _Worker,
               unshipped: List[Tuple[bytes, List[str]]]) -> bool:
        """Ship the buffered frames as one message; False if killed while
        waiting out backpressure (records then still belong to the
        worker's in-hand set)."""
        while worker.channel.pending() >= self.max_pending:
            if worker.killed:
                return False
            time.sleep(_POLL_SECONDS)
        payloads = [payload for payload, _ in unshipped]
        worker.channel.send_frames(payloads)
        shipped = sum(len(raws) for _, raws in unshipped)
        worker.bytes_sent += sum(len(p) for p in payloads)
        worker.shipped_records += shipped
        worker.shipped_chunks += len(unshipped)
        unshipped.clear()
        with self._cond:
            worker.in_hand -= shipped
            self._cond.notify_all()
        return True

    def _return_records(self, worker: _Worker,
                        unshipped: List[Tuple[bytes, List[str]]]) -> None:
        """Put a dying worker's in-hand records back for reassignment."""
        raws = [raw for _, chunk_raws in unshipped for raw in chunk_raws]
        unshipped.clear()
        if not raws:
            return
        with self._cond:
            worker.queue.extendleft(reversed(raws))
            worker.in_hand -= len(raws)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Server side: drain + re-allocation
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        drained_chunks = 0
        next_realloc = self.realloc_interval
        while True:
            moved = False
            for worker in self._workers:
                # Bounded take per visit: a fast client cannot starve
                # its siblings' channels.
                for _ in range(self.max_pending):
                    payload = worker.channel.receive()
                    if payload is None:
                        break
                    drained_chunks += worker.session.ingest(payload)
                    moved = True
            if (next_realloc is not None
                    and drained_chunks >= next_realloc):
                self._reallocate()
                next_realloc = drained_chunks + self.realloc_interval
            if moved:
                continue
            if all(w.done for w in self._workers) and all(
                w.channel.pending() == 0 for w in self._workers
            ):
                return
            time.sleep(_POLL_SECONDS)

    def _reallocate(self) -> None:
        """Feed observed throughput back into the budget allocation."""
        if self._allocator is None:
            return
        throughput: Dict[str, float] = {}
        for worker in self._workers:
            if worker.killed:
                continue  # dead clients drop out of the allocation
            wall = worker.ledger.wall_seconds.get(PREFILTERING, 0.0)
            if wall > 0 and worker.shipped_records > 0:
                throughput[worker.spec.client_id] = (
                    worker.shipped_records / wall
                )
        if not throughput:
            return
        allocation = self._allocator.reallocate(
            self._profiles, throughput
        )
        # Remember the blended factors so the next round starts from them.
        self._profiles = [
            ClientProfile(
                client_id=p.client_id,
                speed_factor=allocation.speed_factors.get(
                    p.client_id, p.speed_factor
                ),
                slack_us_per_record=p.slack_us_per_record,
            )
            for p in self._profiles
        ]
        with self._cond:
            for worker in self._workers:
                cid = worker.spec.client_id
                if worker.killed or worker.done:
                    continue
                if cid in allocation.plans:
                    worker.budget_us = allocation.budgets[cid].us
                    worker.pending_plan = allocation.plans[cid]
        self._realloc_rounds += 1

    # ------------------------------------------------------------------
    def _build_report(self, records: Sequence[str],
                      summary, wall: float) -> FleetReport:
        ledger = CostLedger()
        clients: List[ClientRunReport] = []
        for worker in self._workers:
            stats = worker.client.stats
            ledger = ledger.merge(worker.ledger)
            ledger.charge(PREFILTERING, stats.modeled_us)
            clients.append(
                ClientRunReport(
                    client_id=worker.spec.client_id,
                    platform=worker.spec.platform,
                    speed_factor=worker.spec.speed_factor,
                    share=worker.spec.share,
                    budget_us=worker.budget_us,
                    n_pushed=(
                        len(worker.client.plan)
                        if worker.client.plan is not None else 0
                    ),
                    assigned_records=worker.assigned,
                    shipped_records=worker.shipped_records,
                    absorbed_records=worker.absorbed_records,
                    shipped_chunks=worker.shipped_chunks,
                    bytes_sent=worker.bytes_sent,
                    modeled_us_per_record=stats.modeled_us_per_record(),
                    prefilter_wall_s=worker.ledger.wall_seconds.get(
                        PREFILTERING, 0.0
                    ),
                    killed=worker.killed,
                    messages_dropped=worker.channel.stats.messages_dropped,
                )
            )
        if summary is None:
            summary = self.server.load_summary
        ledger.charge_wall(LOADING, summary.wall_seconds)
        return FleetReport(
            clients=clients,
            summary=summary,
            total_records=len(records),
            wall_seconds=wall,
            reassignment_events=self._reassignment_events,
            reassigned_records=self._reassigned_records,
            reassignments=list(self._reassignments),
            realloc_rounds=self._realloc_rounds,
            chunks_by_source=dict(self.server.ingest_sources),
            ledger=ledger,
        )
