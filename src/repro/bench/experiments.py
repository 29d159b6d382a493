"""One function per paper table/figure: the reproduction experiments.

Each function is deterministic given its config, returns plain data, and is
wrapped by a thin bench in ``benchmarks/`` that times it and prints the
paper-style series via :mod:`repro.bench.reporting`.  DESIGN.md §4 maps
figures to these functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.calibration import (
    CalibrationReport,
    fit,
    measure_search_costs,
)
from ..core.patterns import compile_clause
from ..core.predicates import Workload
from ..data import make_generator
from ..data.randomness import rng_stream
from ..simulate.hardware import PLATFORMS, synthesize_observations
from ..workload.pool import PredicatePool
from ..workload.selectivity import measure_raw_hit_rates
from ..workload.workloads import (
    OVERLAP_LEVELS,
    SELECTIVITY_LEVELS,
    SKEWNESS_LEVELS,
    overlap_workload,
    selectivity_workload,
    skewness_workload,
    table3_workload,
)
from .runner import EndToEndRunner, ExperimentConfig, RunMetrics

#: The paper's budget grids (µs per record per client), Figs 3–5.
BUDGET_GRIDS: Dict[str, List[float]] = {
    "winlog": [0, 1, 3, 5, 7, 9],
    "yelp": [0, 10, 20, 30, 40, 50],
    "ycsb": [0, 25, 50, 75, 100, 125],
}

#: Fig. 6's budget grid (YCSB workload C, skipping-benefit fraction).
FIG6_BUDGETS: List[float] = [25, 50, 75, 100, 125]


# ----------------------------------------------------------------------
# Figs 3, 4, 5 — end-to-end budget sweeps per dataset and workload
# ----------------------------------------------------------------------
def end_to_end_sweep(dataset: str, workdir: str | Path,
                     config: Optional[ExperimentConfig] = None,
                     labels: Sequence[str] = ("A", "B", "C"),
                     n_queries: Optional[int] = None,
                     budgets: Optional[Sequence[float]] = None,
                     ) -> Dict[str, List[RunMetrics]]:
    """Reproduce one of Figs 3–5: per-workload budget sweeps."""
    config = config or ExperimentConfig(dataset=dataset)
    if config.dataset != dataset:
        raise ValueError("config.dataset does not match the experiment")
    runner = EndToEndRunner(config, workdir)
    budgets = list(budgets if budgets is not None else BUDGET_GRIDS[dataset])
    results: Dict[str, List[RunMetrics]] = {}
    for label in labels:
        workload = table3_workload(
            dataset, label, seed=config.seed, n_queries=n_queries
        )
        results[label] = runner.run_budget_sweep(
            workload, budgets, label_prefix=f"{label}/"
        )
    return results


def headline_speedups(sweep: Dict[str, List[RunMetrics]]
                      ) -> Dict[str, float]:
    """Best loading/query/end-to-end speedups across a sweep (the abstract's
    21× / 23× / 19× claims, shape-reproduced)."""
    best = {"loading": 0.0, "query": 0.0, "end_to_end": 0.0}
    for runs in sweep.values():
        baseline = runs[0]
        for m in runs[1:]:
            if m.loading_wall_s > 0:
                best["loading"] = max(
                    best["loading"],
                    baseline.loading_wall_s / m.loading_wall_s,
                )
            if m.query_wall_s > 0:
                best["query"] = max(
                    best["query"], baseline.query_wall_s / m.query_wall_s
                )
            if m.end_to_end_wall_s > 0:
                best["end_to_end"] = max(
                    best["end_to_end"],
                    baseline.end_to_end_wall_s / m.end_to_end_wall_s,
                )
    return best


# ----------------------------------------------------------------------
# Fig. 6 — fraction of queries benefiting from data skipping (YCSB, C)
# ----------------------------------------------------------------------
def skipping_benefit_sweep(workdir: str | Path,
                           config: Optional[ExperimentConfig] = None,
                           n_queries: Optional[int] = None,
                           budgets: Optional[Sequence[float]] = None,
                           ) -> List[Tuple[float, float]]:
    """Reproduce Fig. 6: (budget, benefiting fraction) series."""
    config = config or ExperimentConfig(dataset="ycsb")
    runner = EndToEndRunner(config, workdir)
    workload = table3_workload(
        "ycsb", "C", seed=config.seed, n_queries=n_queries
    )
    series: List[Tuple[float, float]] = []
    for budget in (budgets if budgets is not None else FIG6_BUDGETS):
        plan = runner.plan_for_budget(workload, budget)
        metrics = runner.run(workload, plan, label=f"C/B={budget:g}µs")
        fraction = (
            metrics.queries_benefiting / metrics.total_queries
            if metrics.total_queries else 0.0
        )
        series.append((budget, fraction))
    return series


# ----------------------------------------------------------------------
# Figs 7–12 — sensitivity micro-benchmarks (Windows log)
# ----------------------------------------------------------------------
@dataclass
class MicroResult:
    """One sensitivity run: a level plus its baseline-relative metrics."""

    level: str
    metrics: RunMetrics
    baseline: RunMetrics

    @property
    def loading_time_s(self) -> float:
        return self.metrics.loading_wall_s

    @property
    def loading_ratio(self) -> float:
        return self.metrics.loading_ratio

    @property
    def per_query_s(self) -> List[float]:
        return self.metrics.per_query_wall_s


def _micro_run(runner: EndToEndRunner, workload: Workload,
               pushed, level: str) -> MicroResult:
    baseline = runner.run(workload, None, label=f"{level}/baseline")
    plan = runner.plan_for_clauses(workload, pushed)
    metrics = runner.run(workload, plan, label=f"{level}/ciao")
    return MicroResult(level=level, metrics=metrics, baseline=baseline)


def selectivity_experiment(workdir: str | Path,
                           config: Optional[ExperimentConfig] = None,
                           ) -> List[MicroResult]:
    """Figs 7–8: vary predicate selectivity (0.35 / 0.15 / 0.01)."""
    config = config or ExperimentConfig(dataset="winlog")
    runner = EndToEndRunner(config, workdir)
    results = []
    for level in SELECTIVITY_LEVELS:
        workload, pushed = selectivity_workload(level)
        results.append(
            _micro_run(runner, workload, pushed, f"sel={level}")
        )
    return results


def overlap_experiment(workdir: str | Path,
                       config: Optional[ExperimentConfig] = None,
                       ) -> List[MicroResult]:
    """Figs 9–10: vary predicate overlap (low / medium / high)."""
    config = config or ExperimentConfig(dataset="winlog")
    runner = EndToEndRunner(config, workdir)
    results = []
    for level in OVERLAP_LEVELS:
        workload, pushed = overlap_workload(level)
        results.append(_micro_run(runner, workload, pushed, level))
    return results


def skewness_experiment(workdir: str | Path,
                        config: Optional[ExperimentConfig] = None,
                        ) -> List[MicroResult]:
    """Figs 11–12: vary predicate skewness (0.0 / 0.5 / 2.0)."""
    config = config or ExperimentConfig(dataset="winlog")
    runner = EndToEndRunner(config, workdir)
    results = []
    for level in SKEWNESS_LEVELS:
        workload, pushed = skewness_workload(level, seed=config.seed)
        results.append(
            _micro_run(runner, workload, pushed, f"skew={level}")
        )
    return results


# ----------------------------------------------------------------------
# Table IV — cost-model calibration across hardware platforms
# ----------------------------------------------------------------------
@dataclass
class CalibrationRow:
    """One Table IV row: platform, fitted R², paper's R²."""

    platform: str
    hardware: str
    r_squared: float
    paper_r_squared: float
    report: CalibrationReport = field(repr=False, default=None)


def cost_model_experiment(
    predicates_per_dataset: int = 100,
    hit_rate_records: int = 400,
    seed: int = 20210223,
    include_real_local: bool = True,
    real_records: int = 300,
) -> List[CalibrationRow]:
    """Reproduce Table IV.

    For each dataset, sample ``predicates_per_dataset`` pool clauses and
    measure their raw hit rates on a record sample (pattern length and
    record length come for free).  Each simulated platform observes those
    predicate shapes through its noise model; the §V-D model is then fitted
    per platform and R² reported.  Optionally a fourth row times the
    compiled matchers (what clients really run) on the current machine.
    """
    shapes_by_dataset: Dict[str, List[Tuple[float, float]]] = {}
    record_lengths: Dict[str, float] = {}
    compiled_by_dataset = {}
    raw_by_dataset = {}
    for dataset in ("yelp", "winlog", "ycsb"):
        rng = rng_stream(seed, f"table4:{dataset}")
        pool = PredicatePool.from_templates(dataset, rng=rng)
        clauses = pool.clauses[:predicates_per_dataset]
        generator = make_generator(dataset, seed)
        raw = list(generator.raw_lines(hit_rate_records))
        hit_rates = measure_raw_hit_rates(clauses, raw)
        shapes: List[Tuple[float, float]] = []
        compiled = []
        for clause in clauses:
            cc = compile_clause(clause)
            shapes.append(
                (float(cc.total_pattern_length()), hit_rates[clause])
            )
            compiled.append(cc)
        shapes_by_dataset[dataset] = shapes
        record_lengths[dataset] = sum(len(r) for r in raw) / len(raw)
        compiled_by_dataset[dataset] = compiled
        raw_by_dataset[dataset] = raw

    rows: List[CalibrationRow] = []
    for name, profile in PLATFORMS.items():
        rng = rng_stream(seed, f"table4-noise:{name}")
        observations = []
        for dataset, shapes in shapes_by_dataset.items():
            observations.extend(
                synthesize_observations(
                    profile, shapes, record_lengths[dataset], rng
                )
            )
        report = fit(observations)
        rows.append(
            CalibrationRow(
                platform=name,
                hardware=profile.description,
                r_squared=report.r_squared,
                paper_r_squared=profile.paper_r_squared,
                report=report,
            )
        )

    if include_real_local:
        observations = []
        for dataset, compiled in compiled_by_dataset.items():
            records = raw_by_dataset[dataset][:real_records]
            observations.extend(
                measure_search_costs(compiled, records, repeats=3)
            )
        report = fit(observations)
        rows.append(
            CalibrationRow(
                platform="this-machine",
                hardware="compiled matcher timings on the current host",
                r_squared=report.r_squared,
                paper_r_squared=float("nan"),
                report=report,
            )
        )
    return rows
