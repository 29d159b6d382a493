"""Workload substrate: Table II templates, predicate pools, selectivity
estimation, query generation, and the canonical experiment workloads."""

from .. import _lazy

__all__ = [
    "MIN_SELECTIVITY",
    "OVERLAP_LEVELS",
    "PredicatePool",
    "PredicateTemplate",
    "SELECTIVITY_LEVELS",
    "SKEWNESS_LEVELS",
    "SelectionDistribution",
    "TABLE3_SPECS",
    "UNIFORM",
    "WorkloadSpec",
    "estimate_selectivities",
    "estimate_selectivity",
    "false_positive_rates",
    "fixed_size_query",
    "generate_query",
    "generate_workload",
    "measure_raw_hit_rates",
    "multiplicities_for_skew",
    "overlap_statistics",
    "overlap_workload",
    "selectivity_workload",
    "skewness_factor",
    "skewness_workload",
    "table2_summary",
    "table3_workload",
    "templates_for",
    "workload_skewness",
    "workload_with_skewness",
    "zipfian",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".generator": (
        "SelectionDistribution", "UNIFORM", "fixed_size_query",
        "generate_query", "generate_workload", "overlap_statistics",
        "zipfian"),
    ".pool": ("PredicatePool",),
    ".selectivity": (
        "MIN_SELECTIVITY", "estimate_selectivities", "estimate_selectivity",
        "false_positive_rates", "measure_raw_hit_rates"),
    ".skewness": (
        "multiplicities_for_skew", "skewness_factor", "workload_skewness",
        "workload_with_skewness"),
    ".templates": ("PredicateTemplate", "table2_summary", "templates_for"),
    ".workloads": (
        "OVERLAP_LEVELS", "SELECTIVITY_LEVELS", "SKEWNESS_LEVELS",
        "TABLE3_SPECS", "WorkloadSpec", "overlap_workload",
        "selectivity_workload", "skewness_workload", "table3_workload"),
})
