"""CIAO: an optimization framework for client-assisted data loading.

A from-scratch Python reproduction of Ding et al., ICDE 2021
(arXiv:2102.11793).  Clients evaluate pushed-down string predicates on raw
JSON without parsing it, ship per-predicate bit-vectors with each chunk,
and the server uses them for partial loading and query-time data skipping.
Which predicates to push is a budgeted submodular maximization solved with
the paper's paired greedy algorithms.

Quickstart — the :mod:`repro.api` front door runs the whole pipeline
(sampling, selectivity estimation, cost model, optimizer, client, server)
in three calls::

    from repro.api import Budget, CiaoSession, Query, Workload, clause, key_value

    workload = Workload((Query((clause(key_value("stars", 5)),)),), dataset="yelp")
    with CiaoSession(workload, source="yelp", seed=7) as session:
        session.plan(Budget(1.0))
        report = session.load(n_records=10_000).result()
        count = session.query("SELECT COUNT(*) FROM t").scalar()

Query *while* loading via ``job.snapshot_query(...)`` in any mode.
Swap the session's :class:`~repro.api.DeploymentConfig` to go sharded
(``mode="sharded"`` — shard workers parse in parallel) or to a
coordinated heterogeneous fleet (``mode="fleet"`` — per-client budgets,
backpressure, straggler reassignment, declarative — optionally lossy —
channels).  To serve a
session over a real socket to concurrent remote clients, wrap it in a
:class:`~repro.service.CiaoService` and dial in with
:class:`~repro.service.RemoteSession` (see :mod:`repro.service`).

The low-level layer the session composes (``CiaoOptimizer``,
``CiaoServer``, ``SimulatedClient``, ``FleetCoordinator``, channels)
stays public below it — see ROADMAP.md — and is what this package
re-exports alongside the facade.  See README.md for the architecture
overview and EXPERIMENTS.md for the paper-versus-measured record of every
table and figure.
"""

from . import _lazy

__version__ = "1.2.0"

__all__ = [
    "APPROXIMATION_GUARANTEE",
    "AsyncSession",
    "Budget",
    "Channel",
    "ChannelSpec",
    "CiaoOptimizer",
    "CiaoServer",
    "CiaoService",
    "CiaoSession",
    "Clause",
    "ClientAssistedLoader",
    "ClientEvaluator",
    "ClientPopulation",
    "ClientProfile",
    "ClientRunReport",
    "CostCoefficients",
    "CostModel",
    "DEFAULT_COEFFICIENTS",
    "DataSource",
    "DeploymentConfig",
    "FileChannel",
    "FleetClientSpec",
    "FleetCoordinator",
    "FleetReport",
    "IngestSession",
    "LatencyChannel",
    "LinkModel",
    "LoadJob",
    "LoadProgress",
    "LoadReport",
    "LoadSummary",
    "LossyChannel",
    "MemoryChannel",
    "Metrics",
    "PredicateKind",
    "PushdownEntry",
    "PushdownPlan",
    "Query",
    "QueryLog",
    "RemoteSession",
    "SelectionObjective",
    "SelectionResult",
    "SimplePredicate",
    "SimulatedClient",
    "SocketChannel",
    "SocketListener",
    "Tracer",
    "UnsupportedPredicateError",
    "Workload",
    "__version__",
    "allocate_budgets",
    "as_source",
    "clause",
    "exact",
    "key_present",
    "key_value",
    "make_channel",
    "prefix",
    "select_predicates",
    "substring",
    "suffix",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".api": (
        "AsyncSession", "CiaoSession", "DataSource", "DeploymentConfig",
        "LoadJob", "LoadProgress", "LoadReport", "as_source"),
    ".core": (
        "APPROXIMATION_GUARANTEE", "Budget", "CiaoOptimizer", "Clause",
        "ClientProfile", "CostCoefficients", "CostModel",
        "DEFAULT_COEFFICIENTS", "PredicateKind", "PushdownEntry",
        "PushdownPlan", "Query", "SelectionObjective", "SelectionResult",
        "SimplePredicate", "UnsupportedPredicateError", "Workload",
        "allocate_budgets", "clause", "exact", "key_present", "key_value",
        "prefix", "select_predicates", "substring", "suffix"),
    ".client": ("ClientEvaluator", "SimulatedClient"),
    ".fleet": (
        "ClientPopulation", "ClientRunReport", "FleetClientSpec",
        "FleetCoordinator", "FleetReport"),
    ".obs": ("Metrics", "QueryLog", "Tracer"),
    ".server": (
        "CiaoServer", "ClientAssistedLoader", "IngestSession", "LoadSummary"),
    ".service": ("CiaoService", "RemoteSession"),
    ".transport": (
        "Channel", "ChannelSpec", "FileChannel", "LatencyChannel", "LinkModel",
        "LossyChannel", "MemoryChannel", "SocketChannel", "SocketListener",
        "make_channel"),
})
