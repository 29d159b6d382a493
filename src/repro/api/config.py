"""Deployment configuration: every knob of a CIAO deployment, one place.

A deployment is described by *how* data flows — ``serial`` (one client,
one loader), ``sharded`` (one client, fanned across shard workers), or
``fleet`` (many concurrent heterogeneous clients) — plus the transport and
the client/fleet tuning knobs.  :class:`DeploymentConfig` carries every
server construction option and validates everything through a single
path at construction, reusing
:func:`repro.server.pipeline.validate_server_options` for the knobs the
server also checks — so a bad option raises the same error no matter
which layer it entered through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..client.device import DEFAULT_SHIP_BATCH
from ..core.budgets import Budget
from ..fleet.coordinator import DEFAULT_MAX_PENDING
from ..fleet.population import ClientPopulation
from ..rawjson.chunks import DEFAULT_CHUNK_SIZE
from ..server.pipeline import DEFAULT_SEAL_INTERVAL, validate_server_options
from ..transport import ChannelLike
from ..storage.schema import Schema

#: The deployment shapes a session can run.
DEPLOYMENT_MODES = ("serial", "sharded", "fleet")

#: Default shard count for sharded/fleet deployments.
DEFAULT_N_SHARDS = 2

#: Default fleet size when no population is given.
DEFAULT_N_CLIENTS = 8

#: Query-side per-client backpressure bound, mirroring the ingest-side
#: :data:`~repro.fleet.coordinator.DEFAULT_MAX_PENDING`: a remote client
#: may have at most this many queries queued before the service answers
#: BUSY instead of accepting more.
DEFAULT_QUERY_MAX_PENDING = 8


@dataclass(frozen=True)
class DeploymentConfig:
    """How one :class:`~repro.api.session.CiaoSession` deploys CIAO.

    Attributes:
        mode: ``"serial"`` | ``"sharded"`` | ``"fleet"``.
        table_name: Catalog name of the loaded table.
        partial_loading: ``'auto'`` | ``'on'`` | ``'off'`` (server policy).
        schema: Optional pre-agreed schema.
        n_shards: Shard workers (``None`` = mode default: 1 serial,
            :data:`DEFAULT_N_SHARDS` otherwise).
        shard_mode: ``'process'`` | ``'thread'`` shard workers.
        dispatch: ``'work-stealing'`` | ``'round-robin'`` chunk dispatch.
        seal_interval: Chunks each loader ingests between part seals —
            the cadence at which mid-load snapshots advance.
        chunk_size: Records per client chunk.
        ship_batch: Chunk frames concatenated per channel message.
        channel: Transport spec (see
            :func:`repro.transport.make_channel`); ``None`` is an
            in-memory channel.  Fleets derive one independently-seeded
            channel per client from it.
        n_clients: Fleet size when generating a population.
        population: Explicit fleet population (overrides *n_clients*).
        population_seed: Seed for generated populations (``None``
            derives from the session seed).
        aggregate_budget: Fleet-wide mean per-record budget; ``None``
            gives every client the full plan.
        max_pending: Per-channel backpressure bound (fleet).
        max_active: Admission control (fleet; ``None`` = all at once).
        realloc_interval: Online budget re-allocation cadence in drained
            chunks (fleet; ``None`` disables).
        query_max_active: Query-side admission control when the session
            is served remotely (:class:`repro.service.CiaoService`):
            at most this many queries execute concurrently (``None`` =
            unbounded) — the read-path mirror of *max_active*.
        query_max_pending: Query-side per-client backpressure bound: a
            remote client with this many queries already queued gets
            BUSY instead of unbounded queueing — the read-path mirror
            of *max_pending*.
        durable: Keep a crash-atomic manifest
            (:class:`repro.recovery.Manifest`) under the server's data
            directory, checkpointable mid-load and recoverable after a
            crash via ``CiaoSession(recover_from=...)``.  Off by
            default — durability costs an fsync per checkpoint.
    """

    mode: str = "serial"
    table_name: str = "t"
    partial_loading: str = "auto"
    schema: Optional[Schema] = None
    n_shards: Optional[int] = None
    shard_mode: str = "process"
    dispatch: str = "work-stealing"
    seal_interval: int = DEFAULT_SEAL_INTERVAL
    chunk_size: int = DEFAULT_CHUNK_SIZE
    ship_batch: int = DEFAULT_SHIP_BATCH
    channel: ChannelLike = None
    n_clients: int = DEFAULT_N_CLIENTS
    population: Optional[ClientPopulation] = None
    population_seed: Optional[int] = None
    aggregate_budget: Optional[Budget] = None
    max_pending: int = DEFAULT_MAX_PENDING
    max_active: Optional[int] = None
    realloc_interval: Optional[int] = None
    query_max_active: Optional[int] = None
    query_max_pending: int = DEFAULT_QUERY_MAX_PENDING
    durable: bool = False

    def __post_init__(self) -> None:
        if self.mode not in DEPLOYMENT_MODES:
            raise ValueError(
                f"mode must be one of {DEPLOYMENT_MODES}, "
                f"got {self.mode!r}"
            )
        validate_server_options(
            shard_mode=self.shard_mode,
            dispatch=self.dispatch,
            partial_loading=self.partial_loading,
            n_shards=self.resolved_n_shards,
            seal_interval=self.seal_interval,
        )
        if self.mode == "serial" and (self.n_shards or 1) != 1:
            raise ValueError(
                f"serial mode runs exactly one loader; got "
                f"n_shards={self.n_shards} (use mode='sharded')"
            )
        if self.mode == "sharded" and self.resolved_n_shards < 2:
            raise ValueError(
                f"sharded mode needs n_shards >= 2, got {self.n_shards}"
            )
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.ship_batch < 1:
            raise ValueError(
                f"ship_batch must be >= 1, got {self.ship_batch}"
            )
        if self.mode != "fleet":
            for knob in ("population", "aggregate_budget",
                         "max_active", "realloc_interval"):
                if getattr(self, knob) is not None:
                    raise ValueError(
                        f"{knob} only applies to mode='fleet' "
                        f"(got mode={self.mode!r})"
                    )
        else:
            if self.population is None and self.n_clients < 1:
                raise ValueError(
                    f"a fleet needs at least one client, "
                    f"got n_clients={self.n_clients}"
                )
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.query_max_pending < 1:
            raise ValueError(
                f"query_max_pending must be >= 1, "
                f"got {self.query_max_pending}"
            )
        if self.query_max_active is not None and self.query_max_active < 1:
            raise ValueError(
                f"query_max_active must be >= 1 or None, "
                f"got {self.query_max_active}"
            )

    # ------------------------------------------------------------------
    @property
    def resolved_n_shards(self) -> int:
        """The effective shard count (mode default when unset)."""
        if self.n_shards is not None:
            return self.n_shards
        return 1 if self.mode == "serial" else DEFAULT_N_SHARDS

    def with_mode(self, mode: str, **changes) -> "DeploymentConfig":
        """This config re-targeted to another deployment mode."""
        return replace(self, mode=mode, **changes)
