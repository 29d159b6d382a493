"""Benchmark harness: the end-to-end runner, per-figure experiments, and
paper-style reporting."""

from .. import _lazy

__all__ = [
    "BUDGET_GRIDS",
    "CalibrationRow",
    "EndToEndRunner",
    "ExperimentConfig",
    "FIG6_BUDGETS",
    "MicroResult",
    "RESULTS_DIR",
    "RunMetrics",
    "cost_model_experiment",
    "emit",
    "emit_json",
    "emit_table",
    "end_to_end_sweep",
    "fleet_table",
    "format_table",
    "headline_speedups",
    "load_report_block",
    "metrics_table",
    "overlap_experiment",
    "selectivity_experiment",
    "skewness_experiment",
    "skipping_benefit_sweep",
    "speedup_summary",
    "sweep_payload",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".experiments": (
        "BUDGET_GRIDS", "CalibrationRow", "FIG6_BUDGETS", "MicroResult",
        "cost_model_experiment", "end_to_end_sweep", "headline_speedups",
        "overlap_experiment", "selectivity_experiment", "skewness_experiment",
        "skipping_benefit_sweep"),
    ".reporting": (
        "RESULTS_DIR", "emit", "emit_json", "emit_table", "fleet_table",
        "load_report_block", "format_table", "metrics_table",
        "speedup_summary", "sweep_payload"),
    ".runner": ("EndToEndRunner", "ExperimentConfig", "RunMetrics"),
})
