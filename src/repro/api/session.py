"""The CIAO front door: plan → load → query in one session object.

The paper presents CIAO as a single framework (Fig. 1): a workload goes
in, an optimized pushdown plan comes out, and client-assisted loading and
skipping run underneath.  :class:`CiaoSession` is that picture as an API:

    session = CiaoSession(workload, source="yelp", seed=7)
    plan = session.plan(Budget(1.0))
    report = session.load(n_records=10_000).result()
    result = session.query("SELECT COUNT(*) FROM t")

Everything underneath — sampling, selectivity estimation, cost modeling,
optimization, server construction, client simulation, fleet coordination,
transport — stays the existing low-level API; the session composes it and
injects nothing you cannot override (pass your own ``selectivities``,
``cost_model``, ``plan``, population, or channel spec).  One session is
one deployment: its :class:`~repro.api.config.DeploymentConfig` decides
whether a load runs serial, sharded, or as a coordinated fleet, and
:meth:`load` always returns a :class:`LoadJob` handle with the same
contract in every mode.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Mapping, Optional, Union)

from ..analysis.sanitizer import make_lock
from ..core.budgets import Budget
from ..core.cost_model import DEFAULT_COEFFICIENTS, CostModel
from ..core.optimizer import CiaoOptimizer, PushdownPlan
from ..core.predicates import Query, Workload
from ..data.randomness import DEFAULT_SEED, derive_seed
from ..engine.executor import QueryResult
from ..obs.metrics import Metrics, resolve_metrics
from ..obs.querylog import QueryLog, QueryLogRecord, resolve_query_log
from ..obs.tracing import Tracer, resolve_tracer
from ..recovery.manifest import ManifestError
from ..server.ciao import CiaoServer
from ..workload.selectivity import estimate_selectivities
from .config import DeploymentConfig
from .report import LoadReport

# Local loads, fleets, compaction and data sources import what they
# drive when they start, so a session that only serves never loads them.
if TYPE_CHECKING:
    from ..client.device import SimulatedClient
    from ..compact.compactor import Compactor
    from ..fleet.coordinator import FleetCoordinator
    from ..transport.base import Channel
    from .source import DataSource, SourceLike


@dataclass(frozen=True)
class LoadProgress:
    """A point-in-time view of a running :class:`LoadJob`."""

    state: str  # 'running' | 'done' | 'failed'
    records_shipped: int
    chunks_shipped: int

    @property
    def done(self) -> bool:
        return self.state != "running"


class LoadJob:
    """Handle on one in-flight (or finished) load.

    The load runs on a background thread, so the caller keeps control
    while data flows: poll :meth:`progress`, answer analytics mid-load
    with :meth:`snapshot_query`, and collect the
    unified :class:`~repro.api.report.LoadReport` with :meth:`result` —
    which joins the load, finalizes the server, and enforces the
    accounting invariant's visibility in every mode.
    """

    def __init__(self, server: CiaoServer, config: DeploymentConfig,
                 records_offered: Optional[int]):
        self.server = server
        self.config = config
        self.records_offered = records_offered
        # guarded-by: <written before _finished is set, read after wait()>
        self._error: Optional[BaseException] = None
        self._report: Optional[LoadReport] = None
        self._started = time.perf_counter()
        # guarded-by: <written before _finished is set, read after wait()>
        self._wall: Optional[float] = None
        #: Server summary, set once the load finalizes — so wall time
        #: covers finalize in every mode (the fleet coordinator
        #: finalizes internally; serial/sharded match it).
        # guarded-by: <written before _finished is set, read after wait()>
        self._summary = None
        # Mode-specific progress taps, set by the session at start.
        self._client: Optional[SimulatedClient] = None
        self._channel: Optional[Channel] = None
        self._coordinator: Optional[FleetCoordinator] = None
        # guarded-by: <written before _finished is set, read after wait()>
        self._fleet_report = None
        #: Externally-fed loads (a network service pushing chunks) have
        #: no load thread; the feeder seals them via finish_external().
        self._external = False
        #: Set exactly once, when the load has finished either way —
        #: by the load thread, by finish_external(), or at construction
        #: for a recovered finalized load.
        self._finished = threading.Event()

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The deployment mode this job runs under."""
        return self.config.mode

    @property
    def done(self) -> bool:
        """True once the load has finished (success or failure)."""
        return self._finished.is_set()

    def progress(self) -> LoadProgress:
        """Client-side progress so far (monotone, safely stale)."""
        if self._coordinator is not None:
            workers = self._coordinator._workers
            shipped = sum(w.shipped_records for w in workers)
            chunks = sum(w.shipped_chunks for w in workers)
        elif self._client is not None:
            shipped = self._client.stats.records
            chunks = self._client.stats.chunks
        else:
            shipped = chunks = 0
        if not self.done:
            state = "running"
        else:
            state = "failed" if self._error is not None else "done"
        return LoadProgress(
            state=state, records_shipped=shipped, chunks_shipped=chunks
        )

    def snapshot_query(self, sql: str) -> QueryResult:
        """Answer *sql* against the loaded-so-far snapshot, mid-load.

        Every deployment exposes a consistent mid-load view: the parts
        its loaders sealed so far plus their sideline watermarks.  The
        load keeps running; :meth:`result` finalizes it.

        Polling the same aggregate repeatedly is cheap: the engine keeps
        per-part partial aggregates keyed by (sealed part, query
        fingerprint), so each call scans only the parts sealed since the
        previous one plus the sideline delta — see
        ``result.stats.snapshot_cache_hits`` — with answers
        identical to a cold scan of the same snapshot.
        """
        return self.server.query(sql)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the load finishes; True if it did."""
        return self._finished.wait(timeout)

    def finish_external(self, timeout: Optional[float] = None
                        ) -> LoadReport:
        """Seal an externally-fed load and return its report.

        The external counterpart of the worker thread's finalize: the
        feeder (e.g. a :class:`repro.service.CiaoService` handling a
        remote COMMIT) calls this once every chunk has been ingested.
        Idempotent — concurrent callers race only on identical writes,
        and the underlying ``finalize_loading`` is itself idempotent.
        """
        if not self._external:
            raise RuntimeError(
                "finish_external() only applies to external loads "
                "(see CiaoSession.external_load)"
            )
        if not self._finished.is_set():
            self._settle(self._finalize)
        return self.result(timeout)

    def result(self, timeout: Optional[float] = None) -> LoadReport:
        """The unified load report (joins the load and finalizes).

        Idempotent: the first call seals the server and builds the
        report, later calls return the same object.  A load that failed
        re-raises its exception here.
        """
        if self._report is not None:
            return self._report
        if not self.wait(timeout):
            raise TimeoutError(
                f"load did not finish within {timeout} s"
            )
        if self._error is not None:
            # Reap shard workers even on failure; the original error
            # stays the one surfaced.
            try:
                self.server.finalize_loading()
            except BaseException:  # ciaolint: allow[API006] -- best-effort reap; the original load error is surfaced
                pass
            raise self._error
        self._report = self._build_report()
        return self._report

    # ------------------------------------------------------------------
    def _start(self, body: Callable[[], None]) -> None:
        """Run *body* on a background load thread, then settle the job."""
        threading.Thread(target=self._settle, args=(body,),
                         daemon=True).start()

    def _settle(self, body: Callable[[], None]) -> None:
        """Run *body*, keep its error, stamp the wall time, finish."""
        try:
            body()
        except BaseException as exc:  # ciaolint: allow[API006] -- surfaced by result()
            self._error = exc
        finally:
            self._wall = time.perf_counter() - self._started
            self._finished.set()

    def _finalize(self) -> None:
        self._summary = self.server.finalize_loading()

    def _build_report(self) -> LoadReport:
        fleet = self._fleet_report
        if fleet is not None:
            summary = fleet.summary
            stats = None
            bytes_sent = sum(c.bytes_sent for c in fleet.clients)
            dropped = fleet.messages_dropped
        else:
            summary = self._summary
            stats = self._client.stats if self._client is not None else None
            bytes_sent = stats.bytes_sent if stats is not None else 0
            dropped = (self._channel.stats.messages_dropped
                       if self._channel is not None else 0)
        counters = summary.to_dict()
        counters["wall_seconds"] = self._wall  # the job's, not the server's
        return LoadReport(
            **counters,
            reports=summary.reports,
            mode=self.config.mode,
            records_offered=self.records_offered,
            client_stats=stats,
            fleet=fleet,
            bytes_sent=bytes_sent,
            messages_dropped=dropped,
        )


class CiaoSession:
    """One CIAO deployment: plan, load, and query through a single object.

    Args:
        workload: The prospective workload (needed by :meth:`plan` and
            the server's partial-loading coverage policy).
        source: Default input — anything :func:`repro.api.as_source`
            accepts (dataset name, generator, lines, JSONL/CSV path).
        config: The :class:`DeploymentConfig`; default is a serial
            deployment.
        data_dir: Server storage root.  ``None`` manages a temporary
            directory, cleaned up by :meth:`close` / context-manager
            exit.
        seed: Root seed for source coercion, generated fleet
            populations, and channel loss sequences.
        plan: A pre-built pushdown plan (skips :meth:`plan`).
        metrics: A :class:`repro.obs.Metrics` registry to instrument the
            deployment with (``None`` = no-op instruments everywhere).
        tracer: A :class:`repro.obs.Tracer` for engine-side spans.
        query_log: A :class:`repro.obs.QueryLog` accumulating one record
            per executed query; drain it via :meth:`query_log`.
        compaction: Opt-in background compaction of sealed parts: a
            :class:`repro.compact.CompactionConfig` (or ``True`` for
            the defaults) starts a :class:`repro.compact.Compactor`
            worker per load that merges small sealed parts and
            re-clusters rows by the query log's hot predicate columns.
            Off by default.
        recover_from: Rebuild the session from a crashed (or cleanly
            stopped) durable deployment: a directory holding a
            ``MANIFEST-<table>.json`` — either directly or in its
            newest ``load-*/`` subdirectory (a previous session's
            ``data_dir``).  The recovered server becomes the session's
            latest job: finalized manifests come back queryable
            immediately; mid-load manifests come back as an open
            external load that remote clients can resume into (see
            :meth:`external_load`).  Raises
            :class:`repro.recovery.ManifestError` when no manifest is
            found.

    The session is a facade over — not a fork of — the low-level API:
    :attr:`server`, :attr:`pushdown_plan`, and every constructor the
    session calls remain public and injectable.
    """

    def __init__(self, workload: Optional[Workload] = None,
                 source: Optional[SourceLike] = None,
                 config: Optional[DeploymentConfig] = None,
                 data_dir: Optional[Union[str, Path]] = None,
                 seed: int = DEFAULT_SEED,
                 plan: Optional[PushdownPlan] = None,
                 metrics: Optional[Metrics] = None,
                 tracer: Optional[Tracer] = None,
                 query_log: Optional[QueryLog] = None,
                 compaction=None,
                 recover_from: Optional[Union[str, Path]] = None):
        self.workload = workload
        self.config = config or DeploymentConfig()
        self.seed = seed
        self._metrics = resolve_metrics(metrics)
        self._tracer = resolve_tracer(tracer)
        self._query_log = resolve_query_log(query_log)
        self._compaction = None
        if compaction is not None and compaction is not False:
            from ..compact.policy import resolve_compaction

            self._compaction = resolve_compaction(compaction)
        self._compactor: Optional[Compactor] = None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if data_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="ciao-")
            data_dir = self._tmpdir.name
        self.data_dir = Path(data_dir)
        self._source: Optional[DataSource] = None
        if source is not None:
            from .source import as_source
            self._source = as_source(source, seed=seed)
        self._plan = plan
        self._jobs: List[LoadJob] = []  # guarded-by: _external_lock
        # Serializes external_load's check-and-create: concurrent
        # service routers (one RESUME per reconnecting client) must
        # converge on ONE job, not race two servers into one data_dir.
        # Every _jobs append takes it so the job list stays coherent
        # when a driver-thread load overlaps a router's rejoin.
        self._external_lock = make_lock("CiaoSession._external_lock")
        self._closed = False
        if recover_from is not None:
            self._recover(Path(recover_from))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source(self) -> Optional[DataSource]:
        """The session's default data source."""
        return self._source

    @property
    def pushdown_plan(self) -> Optional[PushdownPlan]:
        """The current pushdown plan (from :meth:`plan` or injection)."""
        return self._plan

    @property
    def server(self) -> CiaoServer:
        """The latest load's server (the thin inner layer)."""
        if not self._jobs:
            raise RuntimeError(
                "no server yet: call load() first"
            )
        return self._jobs[-1].server

    @property
    def last_job(self) -> Optional[LoadJob]:
        """The most recent :class:`LoadJob`, if any."""
        return self._jobs[-1] if self._jobs else None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs_metrics(self) -> Metrics:
        """The live metrics registry this session instruments with."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The tracer collecting this session's engine spans."""
        return self._tracer

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """A point-in-time snapshot of every session instrument.

        Empty sections unless the session was constructed with a real
        :class:`repro.obs.Metrics` (observability is opt-in).
        """
        return self._metrics.snapshot()

    @property
    def compactor(self) -> Optional[Compactor]:
        """The live compaction worker, if the session opted in."""
        return self._compactor

    def compaction_stats(self) -> Optional[Dict[str, Any]]:
        """The compactor's operational snapshot, or None when disabled.

        This is what the service layer embeds under the STATS reply's
        ``compaction`` key.
        """
        if self._compactor is None:
            return None
        return self._compactor.stats()

    def query_log(self, drain: bool = False) -> List[QueryLogRecord]:
        """The accumulated per-query records, oldest first.

        With ``drain=True`` the returned records are removed from the
        log (the consuming pattern for layout optimizers); otherwise the
        log keeps them.  Empty unless the session was constructed with a
        real :class:`repro.obs.QueryLog`.
        """
        if drain:
            return self._query_log.drain()
        return self._query_log.records()

    # ------------------------------------------------------------------
    # Plan
    # ------------------------------------------------------------------
    def plan(self, budget: Union[Budget, float], *,
             source: Optional[SourceLike] = None,
             sample_size: int = 2000,
             sample: Optional[List[Dict[str, Any]]] = None,
             selectivities: Optional[Mapping[Any, float]] = None,
             cost_model: Optional[CostModel] = None,
             coefficients=None,
             avg_record_length: Optional[float] = None,
             use_celf: bool = True) -> PushdownPlan:
        """Optimize the pushdown plan for *budget* in one call.

        Runs the full paper pipeline — sample the source, estimate
        selectivities over the workload's candidate pool, build the cost
        model, run the budgeted submodular optimizer — with every stage
        injectable: pass *selectivities* to skip estimation, *sample* to
        skip sampling, *cost_model* (or *coefficients* /
        *avg_record_length*) to replace calibration.  Deterministic for a
        fixed session seed.  The plan is stored on the session and used
        by subsequent :meth:`load` calls.
        """
        if self.workload is None:
            raise RuntimeError(
                "plan() needs a prospective workload; construct the "
                "session with one"
            )
        if not isinstance(budget, Budget):
            budget = Budget(float(budget))
        if selectivities is None:
            if sample is None:
                src = self._require_source(source, "plan")
                sample = src.sample(sample_size)
            selectivities = estimate_selectivities(
                self.workload.candidate_pool, sample
            )
        if cost_model is None:
            if avg_record_length is None:
                src = self._require_source(source, "plan")
                avg_record_length = src.average_record_length()
            cost_model = CostModel(
                coefficients if coefficients is not None
                else DEFAULT_COEFFICIENTS,
                avg_record_length,
            )
        optimizer = CiaoOptimizer(self.workload, selectivities, cost_model)
        self._plan = optimizer.plan(budget, use_celf=use_celf)
        return self._plan

    def use_plan(self, plan: Optional[PushdownPlan]) -> None:
        """Inject a pre-built plan (e.g. deserialized via plan_io)."""
        self._plan = plan

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, source: Optional[SourceLike] = None, *,
             n_records: Optional[int] = None) -> LoadJob:
        """Start loading *source* (default: the session source).

        Returns immediately with a :class:`LoadJob`; the data flows on a
        background thread through whatever the session's config deploys —
        a single client into a serial or sharded server, or a full
        coordinated fleet.  One load runs at a time per session; each
        load gets a fresh server under the session's data directory.
        """
        self._check_open()
        active = self.last_job
        if active is not None and not active.done and \
                active._report is None:
            raise RuntimeError(
                "a load is already running on this session; collect "
                "job.result() first"
            )
        src = self._require_source(source, "load", n_records=n_records)
        server = self._new_server()
        job = LoadJob(server, self.config, src.count())
        if self.config.mode == "fleet":
            self._start_fleet(job, src)
        else:
            self._start_serial(job, src)
        with self._external_lock:
            self._jobs.append(job)
        self._attach_compactor(server)
        return job

    def external_load(self) -> LoadJob:
        """Start (or rejoin) a load whose data arrives from outside.

        The session builds a fresh server exactly as :meth:`load` does,
        but ships nothing itself: the caller feeds chunks through
        ``job.server`` ingest sessions (this is how a
        :class:`repro.service.CiaoService` routes remote clients' data
        in) and seals the load with :meth:`LoadJob.finish_external`.
        Progress/snapshot/query semantics match a thread-driven job.

        If an external load is already open — including one rebuilt by
        ``recover_from=`` — it is returned instead of a fresh one, so a
        service attached after recovery feeds the surviving server
        rather than racing it.  A running thread-driven :meth:`load`
        still refuses.  Safe to call from concurrent service routers:
        check-and-create is serialized, so racing callers share one job.
        """
        self._check_open()
        with self._external_lock:
            active = self.last_job
            if active is not None and not active.done and \
                    active._report is None:
                if active._external:
                    return active
                raise RuntimeError(
                    "a load is already running on this session; collect "
                    "job.result() first"
                )
            server = self._new_server()
            job = LoadJob(server, self.config, None)
            job._external = True
            self._jobs.append(job)
            self._attach_compactor(server)
            return job

    def _new_server(self) -> CiaoServer:
        """A fresh server for the next load, in its own ``load-N/`` dir."""
        config = self.config
        return CiaoServer(
            self.data_dir / f"load-{len(self._jobs)}",
            plan=self._plan,
            workload=self.workload,
            table_name=config.table_name,
            partial_loading=config.partial_loading,
            schema=config.schema,
            n_shards=config.resolved_n_shards,
            shard_mode=config.shard_mode,
            dispatch=config.dispatch,
            seal_interval=config.seal_interval,
            metrics=self._metrics,
            tracer=self._tracer,
            query_log=self._query_log,
            durable=config.durable,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, root: Path) -> None:
        """Rebuild the latest job from a durable manifest under *root*.

        Accepts either the manifest's own directory or a previous
        session's ``data_dir`` (in which case the newest ``load-*/``
        subdirectory holding a manifest wins — later loads supersede
        earlier ones exactly as they do live).
        """
        table = self.config.table_name
        manifest_path = self._find_manifest(root, table)
        server = CiaoServer.recover(
            manifest_path.parent,
            table_name=table,
            workload=self.workload,
            metrics=self._metrics,
            tracer=self._tracer,
            query_log=self._query_log,
        )
        if self._plan is None:
            self._plan = server.plan
        # The manifest's deployment options supersede the session's
        # defaults: future loads and stats reflect what is on disk.
        self.config = self._recovered_config(server)
        job = LoadJob(server, self.config, None)
        job._external = True
        if server.state == "finalized":
            # Nothing left to feed: the job is born done and queryable.
            job._summary = server.load_summary
            job._wall = 0.0
            job._finished.set()
        with self._external_lock:
            self._jobs.append(job)
        self._attach_compactor(server)

    @staticmethod
    def _find_manifest(root: Path, table: str) -> Path:
        name = f"MANIFEST-{table}.json"
        if (root / name).exists():
            return root / name
        candidates = [
            child for child in root.glob("load-*") if (child / name).exists()
        ]
        if candidates:
            def load_index(child: Path) -> int:
                try:
                    return int(child.name.split("-", 1)[1])
                except ValueError:
                    return -1
            return max(candidates, key=load_index) / name
        raise ManifestError(
            f"no {name} under {root} or its load-*/ subdirectories; "
            f"was the deployment durable?"
        )

    def _recovered_config(self, server: CiaoServer) -> DeploymentConfig:
        """A config matching the *recovered* server's actual shape.

        The manifest records how the crashed deployment really ran
        (shards, dispatch, seal cadence); the session's own config may
        disagree, and future loads must follow the server that exists,
        not the one the caller imagined.
        """
        options = server.deployment_options
        n_shards = int(options.get("n_shards", 1) or 1)
        return replace(
            self.config,
            mode="sharded" if n_shards > 1 else "serial",
            n_shards=n_shards if n_shards > 1 else None,
            shard_mode=str(options.get("shard_mode", self.config.shard_mode)),
            dispatch=str(options.get("dispatch", self.config.dispatch)),
            seal_interval=int(options["seal_interval"]),
            partial_loading=str(
                options.get("partial_loading", self.config.partial_loading)
            ),
            durable=True,
            population=None,
            aggregate_budget=None,
            max_active=None,
            realloc_interval=None,
        )

    def _attach_compactor(self, server: CiaoServer) -> None:
        """Start a compaction worker for *server* (if opted in).

        One worker per live server: a new load retires the previous
        worker (its server is superseded) and starts a fresh one, so
        compaction keeps running across external loads too — including
        under remote serving, where :class:`repro.service.CiaoService`
        creates the jobs.
        """
        if self._compaction is None:
            return
        from ..compact.compactor import Compactor

        if self._compactor is not None:
            self._compactor.close()
        self._compactor = Compactor(
            server,
            config=self._compaction,
            metrics=self._metrics,
            tracer=self._tracer,
            query_log=self._query_log,
        )
        self._compactor.start()

    def _start_serial(self, job: LoadJob, src: DataSource) -> None:
        from ..client.device import SimulatedClient
        from ..transport.spec import make_channel

        client = SimulatedClient(
            "session-client",
            plan=self._plan,
            chunk_size=self.config.chunk_size,
        )
        channel = make_channel(
            self.config.channel,
            directory=self.data_dir / f"spool-{len(self._jobs)}",
        )
        job._client = client
        job._channel = channel

        def run() -> None:
            # The documented low-level path, verbatim: ship drains into
            # the server after every flushed message, so memory stays
            # bounded by the batch, and the worker finalizes so wall time
            # covers the merge (as the fleet's does).
            client.ship(
                src.records(), channel,
                batch_size=self.config.ship_batch,
                on_flush=lambda: job.server.ingest_channel(channel),
            )
            job._finalize()

        job._start(run)

    def _start_fleet(self, job: LoadJob, src: DataSource) -> None:
        from ..fleet.coordinator import FleetCoordinator
        from ..fleet.population import ClientPopulation
        from ..transport.spec import per_client_channels

        population = self.config.population
        if population is None:
            population = ClientPopulation.generate(
                self.config.n_clients,
                seed=(
                    self.config.population_seed
                    if self.config.population_seed is not None
                    else derive_seed(self.seed, "api:population")
                ),
            )
        coordinator = FleetCoordinator(
            job.server,
            population,
            global_plan=self._plan,
            aggregate_budget=self.config.aggregate_budget,
            chunk_size=self.config.chunk_size,
            batch_size=self.config.ship_batch,
            max_pending=self.config.max_pending,
            max_active=self.config.max_active,
            channel_factory=per_client_channels(
                self.config.channel,
                directory=self.data_dir / f"spool-{len(self._jobs)}",
            ),
            realloc_interval=self.config.realloc_interval,
        )
        job._coordinator = coordinator
        records = list(src.records())
        job.records_offered = len(records)

        def run() -> None:
            job._fleet_report = coordinator.run(records)

        job._start(run)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """Execute *sql* against the loaded table.

        Waits for an in-flight load to finish first (final answers);
        for mid-load answers use :meth:`LoadJob.snapshot_query`.
        """
        self._check_open()
        job = self.last_job
        if job is None:
            raise RuntimeError(
                "nothing loaded on this session yet: call load() first"
            )
        job.result()
        return job.server.query(sql)

    def snapshot_query(self, sql: str) -> QueryResult:
        """Answer *sql* against the loaded-so-far snapshot, mid-load.

        The session-level convenience over
        :meth:`LoadJob.snapshot_query`: while a load is in flight this
        answers from the consistent loaded-so-far view without waiting;
        once the load is done it behaves exactly like :meth:`query`.
        """
        self._check_open()
        job = self.last_job
        if job is None:
            raise RuntimeError(
                "nothing loaded on this session yet: call load() first"
            )
        if not job.done:
            return job.snapshot_query(sql)
        return self.query(sql)

    def run_workload(self, queries: Optional[Iterable[Query]] = None
                     ) -> List[QueryResult]:
        """Run the prospective workload (or *queries*) to completion."""
        if queries is None:
            if self.workload is None:
                raise RuntimeError(
                    "run_workload() needs queries or a session workload"
                )
            queries = self.workload.queries
        table = self.config.table_name
        return [self.query(q.sql(table)) for q in queries]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish and finalize every load, close its server, then release
        session storage.

        Uncollected jobs are joined and finalized here — a finalize left
        undone would leak shard workers (and, for process shards, OS
        processes) past the session's lifetime — and each server's open
        part files are closed (:meth:`CiaoServer.close`).
        """
        if self._closed:
            return
        if self._compactor is not None:
            # Stop background rewrites before finalizing: a swap racing
            # the teardown would rewrite parts nobody will query.
            self._compactor.close()
            self._compactor = None
        for job in self._jobs:
            if job._report is None:
                try:
                    if job._external and not job.done:
                        # An abandoned external load would wait forever
                        # for a feeder that is gone; seal it instead.
                        job.finish_external()
                    else:
                        job.result()
                except BaseException:  # ciaolint: allow[API006] -- closing must not mask the caller's exception
                    pass
            job.server.close()
        self._closed = True
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "CiaoSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this session is closed")

    def _require_source(self, source: Optional[SourceLike],
                        operation: str,
                        n_records: Optional[int] = None) -> DataSource:
        from .source import as_source
        if source is not None:
            return as_source(source, seed=self.seed, n_records=n_records)
        if self._source is None:
            raise RuntimeError(
                f"{operation}() needs a data source; pass one here or "
                f"construct the session with source=..."
            )
        if n_records is not None:
            return as_source(self._source, n_records=n_records)
        return self._source
