"""End-to-end experiment runner: the engine behind Figs 3–12.

One :class:`EndToEndRunner` owns a generated dataset (shared across runs so
baseline and CIAO see identical records) and executes *runs*: given a
pushdown plan (or a budget to optimize under), it plays the full pipeline —

    client prefilter → ship chunks → partial load → run query workload —

and returns a :class:`RunMetrics` with the three stacked accounts of the
end-to-end figures (prefiltering / data loading / query) in both wall-clock
seconds and deterministic model-based seconds, plus loading ratio, coverage
and skipping statistics.

Every CIAO run is verified against the zero-budget baseline: all query
answers must match exactly.  A reproduction harness that could silently
return wrong counts would be worthless, so verification is on by default.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.budgets import Budget
from ..core.cost_model import DEFAULT_COEFFICIENTS, CostModel
from ..core.optimizer import CiaoOptimizer, PushdownPlan, manual_plan
from ..core.predicates import Clause, Workload
from ..client.device import SimulatedClient
from ..data import make_generator
from ..server.ciao import CiaoServer
from ..server.skipping import estimate_skipping
from ..workload.selectivity import estimate_selectivities


@dataclass
class ExperimentConfig:
    """Scale and determinism knobs shared by all experiments.

    The paper ran multi-GB datasets; the defaults here are laptop-scale
    (see EXPERIMENTS.md).  ``scale`` multiplies record counts so the same
    benches can run larger.
    """

    dataset: str = "winlog"
    n_records: int = 4000
    chunk_size: int = 500
    seed: int = 20210223
    sample_size: int = 2000
    scale: float = 1.0

    @property
    def records(self) -> int:
        """Scaled record count."""
        return max(1, int(self.n_records * self.scale))


@dataclass
class RunMetrics:
    """Everything one run of the pipeline measures."""

    label: str
    budget_us: float
    n_pushed: int
    partial_loading: bool
    covered_queries: int
    total_queries: int
    # Client side
    prefilter_wall_s: float = 0.0
    prefilter_model_s: float = 0.0
    # Server loading
    loading_wall_s: float = 0.0
    loaded_records: int = 0
    received_records: int = 0
    loading_ratio: float = 1.0
    # Query side
    query_wall_s: float = 0.0
    per_query_wall_s: List[float] = field(default_factory=list)
    query_counts: List[int] = field(default_factory=list)
    queries_using_skipping: int = 0
    queries_benefiting: int = 0
    tuples_skipped: int = 0
    # Transfer
    bytes_shipped: int = 0

    @property
    def end_to_end_wall_s(self) -> float:
        """Prefilter + loading + query, wall-clock."""
        return self.prefilter_wall_s + self.loading_wall_s + self.query_wall_s


class EndToEndRunner:
    """Run the CIAO pipeline repeatedly over one generated dataset."""

    def __init__(self, config: ExperimentConfig, workdir: str | Path,
                 cost_model: Optional[CostModel] = None):
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        generator = make_generator(config.dataset, config.seed)
        self._generator = generator
        self.raw_lines: List[str] = list(generator.raw_lines(config.records))
        self.sample = generator.sample(config.sample_size)
        self.cost_model = cost_model or CostModel(
            DEFAULT_COEFFICIENTS, generator.average_record_length()
        )
        self._run_counter = 0
        self._baseline_counts: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def selectivities(self, workload: Workload) -> Dict[Clause, float]:
        """Sample-estimated selectivities for a workload's pool."""
        return estimate_selectivities(workload.candidate_pool, self.sample)

    def optimizer(self, workload: Workload) -> CiaoOptimizer:
        """An optimizer wired to this runner's sample and cost model."""
        return CiaoOptimizer(
            workload, self.selectivities(workload), self.cost_model
        )

    def plan_for_budget(self, workload: Workload,
                        budget_us: float) -> Optional[PushdownPlan]:
        """Optimize a plan, or None for the zero-budget baseline."""
        if budget_us <= 0:
            return None
        return self.optimizer(workload).plan(Budget(budget_us))

    def plan_for_clauses(self, workload: Workload,
                         clauses: Sequence[Clause]) -> PushdownPlan:
        """Fixed-clause plan for the sensitivity micro-benchmarks."""
        sels = estimate_selectivities(clauses, self.sample)
        return manual_plan(list(clauses), sels, self.cost_model)

    # ------------------------------------------------------------------
    def run(self, workload: Workload,
            plan: Optional[PushdownPlan],
            label: str = "",
            partial_loading: str = "auto",
            verify: bool = True) -> RunMetrics:
        """One full pipeline run; verified against the baseline."""
        run_dir = self.workdir / f"run_{self._run_counter:04d}"
        self._run_counter += 1
        try:
            metrics = self._run_once(workload, plan, label,
                                     partial_loading, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if verify:
            self._verify(workload, metrics)
        return metrics

    def run_budget_sweep(self, workload: Workload,
                         budgets_us: Sequence[float],
                         label_prefix: str = "") -> List[RunMetrics]:
        """Runs across a budget grid (the x-axis of Figs 3–5)."""
        out: List[RunMetrics] = []
        for budget in budgets_us:
            plan = self.plan_for_budget(workload, budget)
            out.append(
                self.run(workload, plan,
                         label=f"{label_prefix}B={budget:g}µs")
            )
        return out

    # ------------------------------------------------------------------
    def _run_once(self, workload: Workload, plan: Optional[PushdownPlan],
                  label: str, partial_loading: str,
                  run_dir: Path) -> RunMetrics:
        covered = (
            sum(1 for q in workload if plan.covers_query(q))
            if plan is not None else 0
        )
        server = CiaoServer(
            run_dir, plan=plan, workload=workload,
            partial_loading=partial_loading,
        )
        client = SimulatedClient(
            "client-0", plan=plan, chunk_size=self.config.chunk_size
        )
        load_start = time.perf_counter()
        bytes_shipped = 0
        for chunk in client.process(iter(self.raw_lines)):
            bytes_shipped += chunk.total_bytes()
            server.ingest(chunk)
        summary = server.finalize_loading()
        loading_wall = time.perf_counter() - load_start - \
            client.stats.wall_seconds

        metrics = RunMetrics(
            label=label,
            budget_us=plan.budget.us if plan is not None else 0.0,
            n_pushed=len(plan) if plan is not None else 0,
            partial_loading=server.partial_loading_enabled,
            covered_queries=covered,
            total_queries=len(workload),
            prefilter_wall_s=client.stats.wall_seconds,
            prefilter_model_s=client.stats.modeled_us / 1e6,
            loading_wall_s=max(loading_wall, summary.wall_seconds),
            loaded_records=summary.loaded,
            received_records=summary.received,
            loading_ratio=summary.loading_ratio,
            bytes_shipped=bytes_shipped,
        )

        baseline_examined = metrics.received_records
        for query in workload.queries:
            result = server.query(query.sql(server.table_name))
            metrics.per_query_wall_s.append(result.wall_seconds)
            metrics.query_wall_s += result.wall_seconds
            metrics.query_counts.append(result.scalar())
            if result.plan_info.used_skipping:
                metrics.queries_using_skipping += 1
                if result.stats.rows_examined < baseline_examined:
                    metrics.queries_benefiting += 1
            metrics.tuples_skipped += result.stats.tuples_skipped
        return metrics

    def _verify(self, workload: Workload, metrics: RunMetrics) -> None:
        """Compare query answers with the cached zero-budget baseline."""
        key = id(workload)
        expected = self._baseline_counts.get(key)
        if expected is None:
            expected = self._baseline_answers(workload)
            self._baseline_counts[key] = expected
        if metrics.query_counts != expected:
            mismatches = [
                (q.name, got, want)
                for q, got, want in zip(
                    workload.queries, metrics.query_counts, expected
                )
                if got != want
            ]
            raise AssertionError(
                f"run {metrics.label!r} returned wrong answers for "
                f"{len(mismatches)} queries; first: {mismatches[0]}"
            )

    def _baseline_answers(self, workload: Workload) -> List[int]:
        """Ground-truth counts via direct semantic evaluation.

        Independent of the storage/engine stack on purpose: parses each
        raw record with the strict record parser and applies
        :meth:`Query.evaluate` — a genuinely separate oracle.
        """
        from ..rawjson.parser import parse_object

        parsed = [parse_object(raw) for raw in self.raw_lines]
        return [
            sum(1 for record in parsed if query.evaluate(record))
            for query in workload.queries
        ]
