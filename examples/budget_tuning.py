"""Budget tuning: calibrate the cost model, then walk the benefit frontier.

An administrator deciding the client budget B needs two things the paper
provides: a *calibrated* cost model (§V-D / Table IV) so B is in real
µs/record for the actual client hardware, and the f(S)-vs-cost frontier so
they can see where the diminishing returns of §V set in.

This example calibrates against real timings of the compiled clause
matchers (the scans clients run) on the current machine, injects the
calibrated model into ``CiaoSession.plan`` (every stage of the session's
planning pipeline accepts an override), then sweeps budgets and prints,
for each: predicates pushed, expected filtering benefit f(S), and the
cost-model estimate of client spend.

Run:  python examples/budget_tuning.py
"""

from repro.api import Budget, CiaoSession, CostModel, as_source
from repro.core import fit, measure_search_costs
from repro.core.patterns import compile_clause
from repro.workload import table3_workload


def calibrate(source, clauses, n_records=400):
    """Fit the §V-D model to real compiled-matcher timings."""
    records = list(source.records())[:n_records]
    compiled = [compile_clause(c) for c in clauses]
    observations = measure_search_costs(compiled, records, repeats=3)
    report = fit(observations)
    print(
        f"Calibrated on {len(observations)} predicates: "
        f"R² = {report.r_squared:.3f}"
    )
    print(f"  coefficients: {report.coefficients}")
    return report.coefficients


def main() -> None:
    source = as_source("winlog", seed=5, n_records=400)
    workload = table3_workload("winlog", "A", seed=5, n_queries=40)
    pool = workload.candidate_pool

    coefficients = calibrate(source, list(pool)[:80])
    cost_model = CostModel(coefficients, source.average_record_length())

    print(
        f"\nWorkload: {len(workload)} queries over {len(pool)} candidate "
        f"predicates\n"
    )
    header = (
        f"{'budget (µs/rec)':>16} {'#pushed':>8} {'f(S)':>7} "
        f"{'spend (µs/rec)':>15} {'marginal f per µs':>18}"
    )
    print(header)
    print("-" * len(header))
    with CiaoSession(workload, source=source, seed=5) as session:
        previous = (0.0, 0.0)
        for budget_us in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2):
            plan = session.plan(Budget(budget_us), cost_model=cost_model)
            benefit = plan.expected_benefit()
            spend = plan.total_cost_us()
            marginal = (
                (benefit - previous[0]) / (spend - previous[1])
                if spend > previous[1] else float("nan")
            )
            print(
                f"{budget_us:>16.2f} {len(plan):>8} {benefit:>7.3f} "
                f"{spend:>15.3f} {marginal:>18.2f}"
            )
            previous = (benefit, spend)
    print(
        "\nDiminishing marginal returns (submodularity, §V-B): each extra "
        "µs of budget buys less filtering than the one before."
    )


if __name__ == "__main__":
    main()
