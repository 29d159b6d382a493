"""The CIAO deployment API: one front door over the whole framework.

This package is the canonical entry point for using the reproduction as a
system (the low-level constructors stay public underneath it):

* :class:`DataSource` / :func:`as_source` — one interface over dataset
  generators, raw-line iterables, and JSONL/CSV files, providing the
  parsed sample (optimizer calibration) and the raw record stream
  (ingest) uniformly;
* :class:`DeploymentConfig` — every deployment knob, one validation
  path, covering serial, sharded, and fleet modes plus transport specs;
* :class:`CiaoSession` — ``plan(budget)`` → ``load(source)`` →
  ``query(sql)``, with :class:`LoadJob` handles (progress, mid-load
  ``snapshot_query`` in every mode) and the unified
  :class:`LoadReport` accounting contract;
* :func:`make_channel` and the composable channel decorators
  (:class:`LossyChannel`, :class:`LatencyChannel`) for declarative,
  replayable transport — including flaky networks — re-exported from
  :mod:`repro.transport`;
* :class:`AsyncSession` — an ``async``/``await`` face over a blocking
  local or remote session (see :mod:`repro.service` for the network
  service itself).

Commonly-needed core symbols (budgets, workload building blocks) are
re-exported so a quickstart needs only ``repro.api`` imports.
"""

from ..core.budgets import Budget
from ..core.cost_model import DEFAULT_COEFFICIENTS, CostCoefficients, CostModel
from ..core.optimizer import CiaoOptimizer, PushdownPlan
from ..core.predicates import (
    Query,
    Workload,
    clause,
    exact,
    key_present,
    key_value,
    prefix,
    substring,
    suffix,
)
from ..fleet.population import ClientPopulation, FleetClientSpec
from ..server.ciao import CiaoServer
from ..transport import (
    Channel,
    ChannelSpec,
    FileChannel,
    LatencyChannel,
    LinkModel,
    LossyChannel,
    MemoryChannel,
    make_channel,
    per_client_channels,
)
from .aio import AsyncSession
from .config import (
    DEFAULT_N_CLIENTS,
    DEFAULT_N_SHARDS,
    DEPLOYMENT_MODES,
    DeploymentConfig,
)
from .report import LoadReport
from .session import CiaoSession, LoadJob, LoadProgress
from .source import (
    CsvFileSource,
    DataSource,
    GeneratorSource,
    JsonFileSource,
    LimitedSource,
    LineSource,
    as_source,
)

__all__ = [
    "AsyncSession",
    "Budget",
    "Channel",
    "ChannelSpec",
    "CiaoOptimizer",
    "CiaoServer",
    "CiaoSession",
    "ClientPopulation",
    "CostCoefficients",
    "CostModel",
    "CsvFileSource",
    "DEFAULT_COEFFICIENTS",
    "DEFAULT_N_CLIENTS",
    "DEFAULT_N_SHARDS",
    "DEPLOYMENT_MODES",
    "DataSource",
    "DeploymentConfig",
    "FileChannel",
    "FleetClientSpec",
    "GeneratorSource",
    "JsonFileSource",
    "LatencyChannel",
    "LimitedSource",
    "LineSource",
    "LinkModel",
    "LoadJob",
    "LoadProgress",
    "LoadReport",
    "LossyChannel",
    "MemoryChannel",
    "PushdownPlan",
    "Query",
    "Workload",
    "as_source",
    "clause",
    "exact",
    "key_present",
    "key_value",
    "make_channel",
    "per_client_channels",
    "prefix",
    "substring",
    "suffix",
]
