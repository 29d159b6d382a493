"""CIAO's core contribution: predicate model, cost model, and the
budgeted submodular predicate-selection optimizer."""

from .. import _lazy

__all__ = [
    "APPROXIMATION_GUARANTEE",
    "AdaptiveReplanner",
    "Budget",
    "CalibrationReport",
    "CiaoOptimizer",
    "Clause",
    "ClientProfile",
    "CompiledClause",
    "CostCoefficients",
    "CostModel",
    "DEFAULT_COEFFICIENTS",
    "FrequencyTracker",
    "Observation",
    "PLAN_FORMAT",
    "PatternSpec",
    "PlanFormatError",
    "PredicateKind",
    "PushdownEntry",
    "PushdownPlan",
    "Query",
    "ReplanDecision",
    "SelectionObjective",
    "SelectionResult",
    "SimplePredicate",
    "UnsupportedPredicateError",
    "Workload",
    "all_subsets",
    "allocate_budgets",
    "budget_sweep",
    "celf_greedy",
    "clause",
    "compile_clause",
    "compile_clauses",
    "compile_predicate",
    "dumps_plan",
    "exact",
    "exhaustive_optimum",
    "fit",
    "is_submodular_on",
    "key_present",
    "key_value",
    "loads_plan",
    "manual_plan",
    "measure_search_costs",
    "naive_greedy",
    "observed_speed_factors",
    "plan_from_dict",
    "plan_to_dict",
    "predict",
    "prefix",
    "r_squared",
    "ratio_greedy",
    "select_predicates",
    "substring",
    "suffix",
    "total_cost",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".adaptive": ("AdaptiveReplanner", "FrequencyTracker", "ReplanDecision"),
    ".budgets": (
        "Budget", "ClientProfile", "allocate_budgets", "budget_sweep",
        "observed_speed_factors"),
    ".calibration": (
        "CalibrationReport", "Observation", "fit", "measure_search_costs",
        "predict", "r_squared"),
    ".cost_model": (
        "DEFAULT_COEFFICIENTS", "CostCoefficients", "CostModel", "total_cost"),
    ".objective": ("SelectionObjective", "all_subsets", "is_submodular_on"),
    ".optimizer": (
        "CiaoOptimizer", "PushdownEntry", "PushdownPlan", "manual_plan"),
    ".plan_io": (
        "PLAN_FORMAT", "PlanFormatError", "dumps_plan", "loads_plan",
        "plan_from_dict", "plan_to_dict"),
    ".patterns": (
        "CompiledClause", "PatternSpec", "compile_clause", "compile_clauses",
        "compile_predicate"),
    ".predicates": (
        "Clause", "PredicateKind", "Query", "SimplePredicate",
        "UnsupportedPredicateError", "Workload", "clause", "exact",
        "key_present", "key_value", "prefix", "substring", "suffix"),
    ".selection": (
        "APPROXIMATION_GUARANTEE", "SelectionResult", "celf_greedy",
        "exhaustive_optimum", "naive_greedy", "ratio_greedy",
        "select_predicates"),
})
